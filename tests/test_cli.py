"""Config parsing, CSV emission, exit codes, and the validation harness."""

import json
import math

import numpy as np
import pytest

from photonmux import (
    LossParameters,
    MultiplexerLayout,
    PairSourceModel,
    PriorityLogic,
    SourceKind,
    TransmissionMatrix,
    build_matrix,
)
from photonmux.cli import (
    EXIT_BRACKET,
    EXIT_CONFIG,
    EXIT_DISAGREEMENT,
    EXIT_OK,
    BinComparison,
    _fmt,
    compare_to_oracle,
    main,
    run_sweep,
    run_tables,
    run_validate,
)
from photonmux.config import ConfigError, parse_config
from photonmux.engine import p1_evaluator
from photonmux.tables import TABLE1_ROWS


def write_config(tmp_path, **overrides):
    config = {
        "version": 1,
        "losses": {"v_r": 0.996, "v_t": 0.97, "v_p": 0.95, "v_p0_s": 0.99, "v_d": 0.9, "v_b": 1.0},
        "source": "poissonian",
        "logics": ["lowest_loss", "first_detection"],
        "m_values": [1, 2],
        "n_values": [1, 2],
        "lambda_bounds": None,
        "output_dir": str(tmp_path / "out"),
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


def write_raw_lambda(tmp_path, literal, **overrides):
    """A config whose "LAMBDA" placeholder strings become the raw JSON literal, e.g. 1e999 or NaN."""
    path = write_config(tmp_path, **overrides)
    path.write_text(path.read_text().replace('"LAMBDA"', literal))
    return path


def assert_line_anchored(path, message, key):
    line = int(message.removeprefix(f"{path}:").split(":")[0])
    assert path.read_text().splitlines()[line - 1].strip().startswith(f'"{key}"')


class TestParseConfig:
    def test_round_trip(self, tmp_path):
        config = parse_config(write_config(tmp_path))
        assert config.source is SourceKind.POISSONIAN
        assert config.m_values == (1, 2)
        assert config.losses.v_r_s == 0.996

    def test_unknown_key_is_line_anchored(self, tmp_path):
        path = write_config(tmp_path, typo_key=3)
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        message = str(err.value)
        assert "typo_key" in message
        line = int(message.split(":")[1])
        assert path.read_text().splitlines()[line - 1].strip().startswith('"typo_key"')

    def test_syntax_error_is_line_anchored(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "version": 1,\n  "oops"\n}\n')
        with pytest.raises(ConfigError, match=r"broken\.json:[34]: "):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "absent.json")

    def test_invalid_values_rejected(self, tmp_path):
        for overrides in (
            {"version": 2},
            {"source": "coherent"},
            {"logics": []},
            {"logics": ["lowest_loss", "lowest_loss"]},
            {"m_values": []},
            {"m_values": [3]},
            {"lambda_bounds": [2.0, 1.0]},
            {"losses": {"v_r": 1.4, "v_t": 0.97, "v_p": 0.95, "v_p0_s": 0.99, "v_d": 0.9}},
            {"validation": {"trials": -1}},
            {"validation": {"points": [[3, 2, 1.0]]}},
            {"validation": {"points": [[2, 6, 1.0]]}},
        ):
            with pytest.raises(ConfigError):
                parse_config(write_config(tmp_path, **overrides))

    def test_repeated_validation_point_rejected(self, tmp_path):
        # 1 and 1.0 are one pump strength; a point that differs in any entry is kept.
        points = [[1, 1, 1.0], [2, 1, 1.0], [1, 1, 2.0], [1, 1, 1]]
        path = write_config(tmp_path, validation={"points": points})
        with pytest.raises(ConfigError, match=r"duplicate validation point \[1, 1, 1\.0\]") as err:
            parse_config(path)
        assert_line_anchored(path, str(err.value), "points")
        config = parse_config(write_config(tmp_path, validation={"points": points[:3]}))
        assert config.validation_points == ((1, 1, 1.0), (2, 1, 1.0), (1, 1, 2.0))

    @pytest.mark.parametrize(
        "literal", ["1e999", "-1e999", "NaN", "1" + "0" * 400], ids=["inf", "-inf", "nan", "1e400"]
    )
    def test_non_finite_lambda_rejected(self, tmp_path, literal):
        # Python's json reads 1e999 as inf and NaN as nan.
        for overrides, key in (
            ({"lambda_bounds": [0, "LAMBDA"]}, "lambda_bounds"),
            ({"lambda_bounds": ["LAMBDA", 1.0]}, "lambda_bounds"),
            ({"validation": {"points": [[1, 1, "LAMBDA"]]}}, "points"),
        ):
            path = write_raw_lambda(tmp_path, literal, **overrides)
            with pytest.raises(ConfigError) as err:
                parse_config(path)
            assert_line_anchored(path, str(err.value), key)


class TestRunSweep:
    def test_writes_expected_files(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert run_sweep(path) == EXIT_OK
        out = tmp_path / "out"
        surface = (out / "surface.csv").read_text().splitlines()
        assert surface[0] == "M,N,lambda_opt,p1,logic"
        assert len(surface) == 1 + 4 * 2  # grid points x logics
        global_lines = (out / "global.csv").read_text().splitlines()
        assert global_lines[0] == "logic,m_opt,n_opt,lambda_opt,p1_max"
        assert len(global_lines) == 3
        assert (out / "p1_vs_N_M1.csv").is_file()
        assert (out / "p1_vs_N_M2.csv").is_file()
        for line in surface[1:]:
            cells = line.split(",")
            assert 0.0 <= float(cells[3]) <= 1.0
            assert 1e-4 <= float(cells[2]) <= 10.0 * int(cells[1])

    def test_output_is_byte_stable(self, tmp_path):
        path = write_config(tmp_path)
        assert run_sweep(path) == EXIT_OK
        first = {f.name: f.read_bytes() for f in (tmp_path / "out").iterdir()}
        assert run_sweep(path) == EXIT_OK
        second = {f.name: f.read_bytes() for f in (tmp_path / "out").iterdir()}
        assert first == second

    def test_curve_files_show_logic_dominance(self, tmp_path):
        path = write_config(tmp_path, m_values=[2], n_values=[2, 4])
        assert run_sweep(path) == EXIT_OK
        lines = (tmp_path / "out" / "p1_vs_N_M2.csv").read_text().splitlines()[1:]
        by_point = {}
        for line in lines:
            n, logic, _, p1 = line.split(",")
            by_point.setdefault(int(n), {})[logic] = float(p1)
        for n, values in by_point.items():
            assert values["lowest_loss"] >= values["first_detection"]

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, m_values=[])
        assert run_sweep(path) == EXIT_CONFIG
        assert "m_values" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["m_values", "n_values"])
    def test_repeated_grid_value_exits_2(self, tmp_path, capsys, key):
        # A repeat would solve its grid points twice and write a curve row twice.
        path = write_config(tmp_path, **{key: [1, 2, 1]})
        assert run_sweep(path) == EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert f'duplicate "{key}" entry 1' in err and len(err.splitlines()) == 1
        assert_line_anchored(path, err, key)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("literal", ["1e999", "NaN"])
    def test_non_finite_bounds_exit_2(self, tmp_path, capsys, literal):
        path = write_raw_lambda(tmp_path, literal, lambda_bounds=[0, "LAMBDA"])
        assert run_sweep(path) == EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"{path}:") and "lambda_bounds" in err
        assert len(err.splitlines()) == 1

    def test_bracket_failure_exits_3(self, tmp_path, capsys):
        path = write_config(tmp_path, m_values=[1], n_values=[1], lambda_bounds=[8.0, 10.0])
        assert run_sweep(path) == EXIT_BRACKET
        assert "bracket" in capsys.readouterr().err.lower()

    def test_thermal_source_at_1000_pairs_per_window_sweeps(self, tmp_path):
        # The closed-form objective has no input truncation, so a thermal
        # source at 1000 pairs per window is a valid bound.
        path = write_config(
            tmp_path, source="thermal", m_values=[1], n_values=[1], lambda_bounds=[1e-4, 1000]
        )
        assert run_sweep(path) == EXIT_OK
        config = parse_config(path)
        rows = (tmp_path / "out" / "surface.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        for row in rows:
            m, n, lam, p1, logic = row.split(",")
            layout = MultiplexerLayout(int(m), int(n), logic=PriorityLogic(logic))
            model = PairSourceModel(SourceKind.THERMAL, float(lam), int(n))
            tm = build_matrix(config.losses, layout)
            assert 1e-4 < float(lam) < 1000
            closed = p1_evaluator(model.kind, config.losses.v_d, tm, layout)
            assert float(p1) == pytest.approx(closed(np.array([model.mean_per_window]))[0], abs=1e-10)


class TestRunValidate:
    def test_happy_path(self, tmp_path):
        path = write_config(
            tmp_path,
            logics=["lowest_loss"],
            validation={"trials": 100_000, "seed": 5, "points": [[1, 1, 1.0]]},
        )
        assert run_validate(path) == EXIT_OK
        lines = (tmp_path / "out" / "validate.csv").read_text().splitlines()
        assert lines[0] == "m,n,lambda,logic,bin,analytic,empirical,std_err,z"
        assert len(lines) > 1
        for line in lines[1:]:
            assert float(line.split(",")[-1]) <= 4.0

    def test_missing_points_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, validation={"trials": 100_000})
        assert run_validate(path) == EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        # An absent key has no line, so the message points at line 1.
        assert err.startswith(f"{path}:1: ") and "points" in err

    def test_empty_points_is_line_anchored(self, tmp_path, capsys):
        path = write_config(tmp_path, validation={"trials": 100_000, "points": []})
        assert run_validate(path) == EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert 'non-empty "points"' in err and len(err.splitlines()) == 1
        assert_line_anchored(path, err, "points")

    def test_low_trials_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, validation={"trials": 1000, "points": [[1, 1, 1.0]]})
        assert run_validate(path) == EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert '"trials" >= 100000' in err and len(err.splitlines()) == 1
        assert_line_anchored(path, err, "trials")

    def test_untruncatable_point_exits_2_before_sampling(self, tmp_path, capsys, monkeypatch):
        # A thermal source at 1000 pairs per window leaves an emission tail
        # above tolerance at any truncation order the heralding step allows.
        path = write_config(
            tmp_path,
            source="thermal",
            validation={"trials": 100_000, "points": [[1, 1, 1000.0]]},
        )

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a point the engine cannot evaluate")

        monkeypatch.setattr("photonmux.cli.simulate", no_sampling)
        assert run_validate(path) == EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert "cannot validate point [1, 1, 1000.0]" in err
        assert_line_anchored(path, err, "points")
        assert len(err.splitlines()) == 1

    def test_repeated_point_exits_2_before_sampling(self, tmp_path, capsys, monkeypatch):
        # A repeat would sample the point twice and write each of its rows twice.
        path = write_config(
            tmp_path, validation={"trials": 100_000, "points": [[1, 1, 1.0], [1, 1, 1]]}
        )

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a configuration that repeats a point")

        monkeypatch.setattr("photonmux.cli.simulate", no_sampling)
        assert run_validate(path) == EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert "duplicate validation point [1, 1, 1.0]" in err and len(err.splitlines()) == 1
        assert_line_anchored(path, err, "points")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("point", [[3, 2, 1.0], [2, 6, 1.0], [0, 1, 1.0]])
    def test_non_power_of_two_point_exits_2_before_sampling(self, tmp_path, capsys, monkeypatch, point):
        # The transmission builders need power-of-two m and n, so such a
        # point is a configuration error, not a traceback from the sampler.
        path = write_config(tmp_path, validation={"trials": 100_000, "points": [point]})

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a point the builders cannot build")

        monkeypatch.setattr("photonmux.cli.simulate", no_sampling)
        assert run_validate(path) == EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert f"invalid validation point {point!r}" in err and "powers of 2" in err
        assert_line_anchored(path, err, "points")

    @pytest.mark.parametrize("literal", ["1e999", "NaN"])
    def test_non_finite_point_exits_2(self, tmp_path, capsys, literal):
        path = write_raw_lambda(
            tmp_path, literal, validation={"trials": 100_000, "points": [[1, 1, "LAMBDA"]]}
        )
        assert run_validate(path) == EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"{path}:") and "validation point" in err
        assert len(err.splitlines()) == 1

    def test_disagreement_exits_4_and_names_bin(self, tmp_path, capsys, monkeypatch):
        path = write_config(
            tmp_path,
            logics=["lowest_loss"],
            validation={"trials": 100_000, "seed": 5, "points": [[1, 1, 1.0]]},
        )
        fake = [BinComparison(bin=2, analytic=0.5, empirical=0.4, std_err=0.001, z=100.0)]
        monkeypatch.setattr("photonmux.cli.compare_to_oracle", lambda *a, **k: fake)
        assert run_validate(path) == EXIT_DISAGREEMENT
        err = capsys.readouterr().err
        assert "bin 2" in err and "z" in err

    def test_std_err_is_the_larger_binomial_error(self):
        # Bit for bit the larger of the empirical and the analytic binomial
        # standard error in every bin: bins where either one is larger, and
        # bins where the sampler saw no count.  Which spread is larger in a
        # bin of the clean comparison is up to chance, so a second one runs
        # the analytic side on the matrix at half transmission: that moves
        # bins 0 and 1 toward 1/2 and bins 2-5 toward 0, far beyond sampling
        # noise, and so holds bins with either ordering whatever the stream.
        params = LossParameters(v_r=0.996, v_t=0.97, v_p=0.95, v_p0_s=0.99, v_d=0.9)
        model = PairSourceModel(SourceKind.POISSONIAN, 1.0, 4)
        layout = MultiplexerLayout(2, 4)
        trials = 200_000
        tm = build_matrix(params, layout)
        dimmed = TransmissionMatrix(values=tm.values * 0.5, arm_order=tm.arm_order)
        clean = compare_to_oracle(model, params, layout, trials=trials, seed=21)
        perturbed = compare_to_oracle(model, params, layout, trials=trials, seed=21, analytic_tm=dimmed)
        comparisons = clean + perturbed
        for run in (clean, perturbed):
            assert [c.bin for c in run] == list(range(len(run)))
        spreads = [(c.empirical * (1.0 - c.empirical), c.analytic * (1.0 - c.analytic)) for c in comparisons]
        assert any(emp > ana for emp, ana in spreads) and any(emp < ana for emp, ana in spreads)
        assert any(c.empirical == 0.0 < c.analytic for c in clean)
        for c in comparisons:
            expected = max(
                math.sqrt(c.empirical * (1.0 - c.empirical) / trials),
                math.sqrt(c.analytic * (1.0 - c.analytic) / trials),
            )
            assert c.std_err == expected, c
            assert c.z == abs(c.empirical - c.analytic) / expected

    def test_mutation_is_detected(self):
        # Perturbing one transmission entry by 0.01 must push some bin
        # beyond four standard errors.  The perturbation moves bin 0 from
        # 0.19738 to 0.20018, an expected z of 2.80e-3 / sqrt(0.19738 *
        # 0.80262 / trials): 7.0 at 1e6 trials, but only 3.15 at 2e5.
        params = LossParameters(v_r=0.996, v_t=0.97, v_p=0.95, v_p0_s=0.99, v_d=0.9)
        layout = MultiplexerLayout(2, 2)
        model = PairSourceModel(SourceKind.POISSONIAN, 1.0, 2)
        clean = compare_to_oracle(model, params, layout, trials=1_000_000, seed=9)
        assert max(c.z for c in clean) <= 4.0
        tm = build_matrix(params, layout)
        corrupted = tm.values.copy()
        corrupted[0, 0] -= 0.01
        bad_tm = TransmissionMatrix(values=corrupted, arm_order=tm.arm_order)
        mutated = compare_to_oracle(
            model, params, layout, trials=1_000_000, seed=9, analytic_tm=bad_tm
        )
        assert max(c.z for c in mutated) > 4.0


class TestRunTables:
    def test_single_row_subset(self, tmp_path, capsys):
        assert run_tables(tmp_path, rows1=TABLE1_ROWS[:1], rows2=()) == EXIT_OK
        table1 = (tmp_path / "table1_repro.csv").read_text().splitlines()
        assert len(table1) == 2
        assert table1[0] == (
            "no,v_r,v_t,v_p,v_p0_s,"
            "p_time,n_time_opt,lambda_time,p_time_ref,n_time_ref,time_flag,"
            "p_spatial,m_spatial_opt,lambda_spatial,p_spatial_ref,m_spatial_ref,spatial_flag"
        )
        header = table1[0].split(",")
        row = dict(zip(header, table1[1].split(",")))
        assert row["time_flag"] == "PASS"
        assert row["spatial_flag"] == "PASS"
        assert row["n_time_opt"] == "128"
        assert abs(float(row["p_time"]) - 0.832) <= 5e-4
        table2 = (tmp_path / "table2_repro.csv").read_text().splitlines()
        assert table2 == [  # header only
            "no,v_t,v_r,v_p,v_t_s,v_r_s,v_p0_s,"
            "p_time,n_time_opt,p_spatial,m_spatial_opt,"
            "p_standalone_ref,m_spatial_ref,n_time_ref,standalone_flag,"
            "p_combined,m_combined_opt,n_combined_opt,lambda_combined,"
            "p_combined_ref,m_combined_ref,n_combined_ref,combined_flag,product_flag"
        ]
        assert "table1 row 1: PASS" in capsys.readouterr().out


def test_fmt_writes_flags_and_numbers():
    # Comparisons of numpy scalars give np.bool_, which is not a bool.
    assert [_fmt(True), _fmt(False)] == ["PASS", "FAIL"]
    assert [_fmt(np.bool_(True)), _fmt(np.bool_(False))] == ["PASS", "FAIL"]
    assert _fmt(np.float64(0.5) < 0.6) == "PASS"
    assert _fmt(np.float64(1.0) / 3.0) == _fmt(1.0 / 3.0) == "0.3333333333"
    assert _fmt(128) == "128"


class TestMain:
    def test_subcommand_dispatch(self, tmp_path):
        path = write_config(tmp_path, m_values=[1], n_values=[1], logics=["lowest_loss"])
        assert main(["sweep", str(path)]) == EXIT_OK
        assert main(["validate", str(path)]) == EXIT_CONFIG  # no points configured

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
