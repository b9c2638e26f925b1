"""Config parsing, CSV emission, exit codes, and the validation harness."""

import copy
import hashlib
import json
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest

from photonmux import (
    LossParameters,
    MultiplexerLayout,
    PairSourceModel,
    PriorityLogic,
    SourceKind,
    SweepSpec,
    TransmissionMatrix,
    build_matrix,
    simulate,
)
from photonmux import cli, transmission
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
from photonmux.tables import TABLE1_ROWS, reproduce_tables
from test_optimize import is_scan, record_kernel_calls


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


def forbid_work_beyond_the_caps(monkeypatch, sample=None):
    """Fail at once where a geometry beyond 4096 is built or more than 2**40 trials are sampled.

    A window of such a geometry, an arm expansion past 4096 arms, or such a
    sampler call raises ``AssertionError``, so a run that lets one through
    stops before it loops or allocates for long.  Any other sampler call
    goes to ``sample``, or raises too when there is none.
    """

    def beyond(*args, **kwargs):
        raise AssertionError("built or sampled work beyond the caps")

    def window(params, splitter, d, n, delayed=transmission._delay_transmission):
        return beyond() if n > 4096 else delayed(params, splitter, d, n)

    class ArmExpansion:  # numpy, as the transmission module sees it
        def __getattr__(self, name):
            return getattr(np, name)

        def repeat(self, values, counts):
            return beyond() if sum(counts) > 4096 else np.repeat(values, counts)

    def sampler(model, params, layout, trials, seed):
        return beyond() if sample is None or trials > 2**40 else sample(model, params, layout, trials, seed)

    monkeypatch.setattr(transmission, "_delay_transmission", window)
    monkeypatch.setattr(transmission, "np", ArmExpansion())
    monkeypatch.setattr(cli, "simulate", sampler)


class TestParseConfig:
    def test_round_trip(self, tmp_path):
        config = parse_config(write_config(tmp_path))
        assert [spec.logic for spec in config.sweeps] == [PriorityLogic.LOWEST_LOSS, PriorityLogic.FIRST_DETECTION]
        for spec in config.sweeps:
            assert spec.source_kind is SourceKind.POISSONIAN
            assert spec.m_values == (1, 2)
            assert spec.params.v_r_s == 0.996

    def test_sweeps_follow_the_config_order_of_logics(self, tmp_path):
        path = write_config(tmp_path, logics=["first_detection", "lowest_loss"], lambda_bounds=[0, 5])
        losses = LossParameters(v_r=0.996, v_t=0.97, v_p=0.95, v_p0_s=0.99, v_d=0.9, v_b=1.0)
        assert parse_config(path).sweeps == tuple(
            SweepSpec((1, 2), (1, 2), losses, SourceKind.POISSONIAN, logic, (0.0, 5.0))
            for logic in (PriorityLogic.FIRST_DETECTION, PriorityLogic.LOWEST_LOSS)
        )

    @pytest.mark.parametrize("bounds", [[0, 1e-320], [1e-4, 1e308], [1e-300, 1e10]])
    def test_bounds_without_a_finite_scan_are_line_anchored(self, tmp_path, bounds):
        path = write_config(tmp_path, lambda_bounds=bounds)
        with pytest.raises(ConfigError, match="lambda_bounds must give a pump-strength scan of finite points") as err:
            parse_config(path)
        assert_line_anchored(path, str(err.value), "lambda_bounds")

    @pytest.mark.parametrize("name", [r"a\u0000b", r"\ud800"], ids=["nul", "lone-surrogate"])
    def test_output_dir_that_is_no_file_system_path_is_line_anchored(self, tmp_path, name):
        # JSON escapes that decode to a NUL and to a lone surrogate, which no path can hold.
        path = write_config(tmp_path, output_dir="NAME")
        path.write_text(path.read_text().replace("NAME", name))
        with pytest.raises(ConfigError, match="output_dir .* is not a file-system path") as err:
            parse_config(path)
        assert_line_anchored(path, str(err.value), "output_dir")

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"version": 1, "x": "\xff"}')
        with pytest.raises(ConfigError, match=r"latin1\.json:1: config file is not UTF-8 text"):
            parse_config(path)

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

    def test_integer_beyond_the_digit_limit_rejected(self, tmp_path):
        # Python's int() refuses more than 4300 digits, so json.loads raises a
        # ValueError that is no JSONDecodeError.
        path = tmp_path / "long.json"
        path.write_text('{"version": ' + "1" * 5000 + "}")
        with pytest.raises(ConfigError, match=r"long\.json:1: .*4300 digits"):
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
        assert f"{key} must hold distinct powers of 2" in err and len(err.splitlines()) == 1
        assert_line_anchored(path, err, key)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("literal", ["1e999", "NaN"])
    def test_non_finite_bounds_exit_2(self, tmp_path, capsys, literal):
        path = write_raw_lambda(tmp_path, literal, lambda_bounds=[0, "LAMBDA"])
        assert run_sweep(path) == EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"{path}:") and "lambda_bounds" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("key", ["m_values", "n_values"])
    def test_grid_value_above_the_cap_exits_2(self, tmp_path, capsys, key):
        # 2**40 windows would have the sweep build an array of 8 TiB in Python.
        path = write_config(tmp_path, **{key: [1, 2**40]})
        assert run_sweep(path) == EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert f"{key} must hold distinct powers of 2 up to 4096" in err and len(err.splitlines()) == 1
        assert_line_anchored(path, err, key)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "hi, cause",
        [(1e4, "hi - step = 9999.9900000001, as when it underflows"),
         (1e5, "hi - step = 99999.9000000001, as when it underflows"),
         (1e8, "lo + step = 100.0000999999 lies past the best scan point")],
    )
    def test_bracket_failure_names_its_cause(self, tmp_path, capsys, hi, cause):
        lossless = {"v_r": 1, "v_t": 1, "v_p": 1, "v_p0_s": 1, "v_d": 1, "v_b": 1}
        path = write_config(tmp_path, losses=lossless, m_values=[1], n_values=[1], lambda_bounds=[1e-4, hi])
        assert run_sweep(path) == EXIT_BRACKET
        err = capsys.readouterr().err
        assert err.startswith("bracket failure: objective not") and cause in err and len(err.splitlines()) == 1

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
            losses = config.sweeps[0].params
            tm = build_matrix(losses, layout)
            assert 1e-4 < float(lam) < 1000
            closed = p1_evaluator(model.kind, losses.v_d, [tm.row_runs], layout.logic)
            expected = closed(np.zeros(1, int), np.array([model.mean_per_window]))[0]
            assert float(p1) == pytest.approx(expected, abs=1e-10)


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

    def test_oracle_refuses_a_source_over_other_windows_before_sampling(self, monkeypatch):
        # Both sides would use the source's per-window mean over 8 windows at
        # a 4-window layout, and agree on the wrong device.
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a source whose windows are not the layout's")

        monkeypatch.setattr("photonmux.montecarlo._simulate_block", no_sampling)
        model = PairSourceModel(SourceKind.POISSONIAN, 1.0, 8)
        params = TABLE1_ROWS[0].losses()
        with pytest.raises(ValueError, match="8 windows, but the layout has 4"):
            compare_to_oracle(model, params, MultiplexerLayout(2, 4), trials=100_000, seed=1)

    def test_oracle_refuses_a_mismatched_analytic_matrix_before_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before checking the analytic matrix's shape")

        monkeypatch.setattr("photonmux.cli.simulate", no_sampling)
        model = PairSourceModel(SourceKind.POISSONIAN, 1.0, 1)
        params = TABLE1_ROWS[0].losses()
        wrong = build_matrix(params, MultiplexerLayout(2, 2))
        with pytest.raises(ValueError, match=r"shape \(2, 2\) does not match layout \(1, 1\)"):
            compare_to_oracle(model, params, MultiplexerLayout(1, 1), trials=100_000, seed=1, analytic_tm=wrong)

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

    @pytest.mark.parametrize("source", ["thermal", "poissonian"])
    def test_subnormal_point_exits_2_before_sampling(self, tmp_path, capsys, monkeypatch, source):
        # At 1e-310 pairs per window 1 / mu overflows, and the sampler's pmf
        # would turn NaN under numpy warnings.
        path = write_config(
            tmp_path, source=source, validation={"trials": 100_000, "points": [[1, 1, 1e-310]]}
        )

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a point with a subnormal mean per window")

        monkeypatch.setattr("photonmux.cli.simulate", no_sampling)
        assert run_validate(path) == EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert "invalid validation point [1, 1, 1e-310]" in err and "subnormal" in err
        assert len(err.splitlines()) == 1
        assert_line_anchored(path, err, "points")

    @pytest.mark.parametrize("point", [[1, 2**40, 1.0], [2**40, 1, 1.0], [8192, 1, 1.0]])
    def test_point_beyond_the_size_cap_exits_2_before_building(self, tmp_path, capsys, monkeypatch, point):
        # The builders take powers of 2 up to 4096; 2**40 windows would loop
        # 2**40 times in Python.
        path = write_config(tmp_path, validation={"trials": 100_000, "points": [point]})
        forbid_work_beyond_the_caps(monkeypatch)
        assert run_validate(path) == EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert f"invalid validation point {point!r}" in err and "powers of 2 up to 4096" in err
        assert_line_anchored(path, err, "points")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("trials", [2**40 + 1, 2**62, 10**30], ids=["2**40+1", "2**62", "10**30"])
    def test_trials_beyond_the_cap_exit_2_before_sampling(self, tmp_path, capsys, monkeypatch, trials):
        # Uncapped, 10**30 overflows SeedSequence.spawn and 2**62 samples for ever.
        path = write_config(tmp_path, validation={"trials": trials, "points": [[1, 1, 1.0]]})
        forbid_work_beyond_the_caps(monkeypatch)
        assert run_validate(path) == EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and f"trials must be at most {2**40}, got {trials}" in err
        assert_line_anchored(path, err, "trials")
        assert not (tmp_path / "out").exists()

    def test_trials_at_the_cap_are_accepted(self, tmp_path):
        path = write_config(tmp_path, validation={"trials": 2**40, "points": [[1, 1, 1.0]]})
        assert parse_config(path).validation_trials == 2**40

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

    def test_no_rows_write_header_only_files(self, tmp_path, capsys, monkeypatch):
        record = record_kernel_calls(monkeypatch)
        assert run_tables(tmp_path, rows1=(), rows2=()) == EXIT_OK
        assert record == []
        for name, columns in (("table1", cli._TABLE1_COLUMNS), ("table2", cli._TABLE2_COLUMNS)):
            header = ",".join(header for header, _ in columns)
            assert (tmp_path / f"{name}_repro.csv").read_text(encoding="utf-8") == header + "\n"
        assert capsys.readouterr().out == ""


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

    def test_commands_leave_the_numpy_state_as_they_found_it(self, tmp_path, monkeypatch):
        # The P(1) kernel runs under a ufunc buffer size of its own: after
        # tables on one row, a sweep and a validation, the caller's buffer
        # size and floating-point error handling are as they were.
        monkeypatch.setattr(cli, "reproduce_tables", lambda rows1, rows2: reproduce_tables(rows1[:1], ()))
        path = write_config(tmp_path, logics=["lowest_loss"], validation=dict(ONE_POINT, seed=3))
        caller = np.getbufsize()
        try:
            np.setbufsize(4096)
            with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
                before = np.getbufsize(), np.geterr()
                for argv in (["tables", "--out", str(tmp_path / "tables")], ["sweep", str(path)], ["validate", str(path)]):
                    assert main(argv) == EXIT_OK, argv
                    assert (np.getbufsize(), np.geterr()) == before, argv
        finally:
            np.setbufsize(caller)
        assert (tmp_path / "tables" / "table1_repro.csv").read_text().count("\n") == 2


# An output directory that is an existing file, a config that is not UTF-8 and
# one whose root is a JSON list.
TAKEN, NOT_UTF8, LIST_ROOT = "taken", b'{"version": 1, "x": "\xff"}', b'[{"version": 1}]\n'
ONE_POINT = {"trials": 100_000, "points": [[1, 1, 1.0]]}
# (command, config overrides or raw bytes, exit code): one case for each input that
# once escaped as a traceback, and one for each exit path that already did not.
COMMAND_LINE_FAILURES = {
    "bounds-scan-underflows": ("sweep", {"lambda_bounds": [0, 1e-320]}, EXIT_CONFIG),
    "bounds-scan-overflows-high": ("sweep", {"lambda_bounds": [1e-4, 1e308]}, EXIT_CONFIG),
    "bounds-scan-overflows-low": ("sweep", {"lambda_bounds": [1e-300, 1e10]}, EXIT_CONFIG),
    "sweep-output-dir-is-a-file": ("sweep", {"output_dir": TAKEN}, EXIT_CONFIG),
    "validate-output-dir-is-a-file": ("validate", {"output_dir": TAKEN, "validation": ONE_POINT}, EXIT_CONFIG),
    "tables-out-is-a-file": ("tables", {}, EXIT_CONFIG),
    "sweep-config-not-utf8": ("sweep", NOT_UTF8, EXIT_CONFIG),
    "validate-config-not-utf8": ("validate", NOT_UTF8, EXIT_CONFIG),
    "config-root-is-a-list": ("sweep", LIST_ROOT, EXIT_CONFIG),
    "loss-above-1": ("sweep", {"losses": {"v_r": 1.5, "v_t": 0.97, "v_p": 0.95, "v_p0_s": 0.99}}, EXIT_CONFIG),
    "bracket-failure": ("sweep", {"m_values": [1], "n_values": [1], "lambda_bounds": [8.0, 10.0]}, EXIT_BRACKET),
    "untruncatable-point": (
        "validate",
        {"source": "thermal", "validation": {"trials": 100_000, "points": [[1, 1, 1000.0]]}},
        EXIT_CONFIG,
    ),
}


@pytest.mark.parametrize("command, config, code", COMMAND_LINE_FAILURES.values(), ids=list(COMMAND_LINE_FAILURES))
def test_command_line_failure_is_one_stderr_line(tmp_path, capsys, command, config, code):
    (tmp_path / TAKEN).write_text("")
    if command == "tables":
        argv = ["tables", "--out", str(tmp_path / TAKEN)]
    elif isinstance(config, bytes):
        path = tmp_path / "config.json"
        path.write_bytes(config)
        argv = [command, str(path)]
    else:
        overrides = {key: str(tmp_path / TAKEN) if value == TAKEN else value for key, value in config.items()}
        argv = [command, str(write_config(tmp_path, **overrides))]
    assert main(argv) == code  # returns, so no exception escaped
    err = capsys.readouterr().err
    assert err.endswith("\n") and len(err.splitlines()) == 1, err
    if isinstance(config, bytes):  # a file that is no config object fails at its line 1
        assert err.startswith(f"{path}:1: "), err
    if command == "sweep":
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["sweep", "validate", "tables"])
def test_output_dir_under_a_file_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command):
    def no_work(*args, **kwargs):
        raise AssertionError("swept, sampled or reproduced with nowhere to write the result")

    for name in ("sweep", "compare_to_oracle", "reproduce_tables"):
        monkeypatch.setattr(f"photonmux.cli.{name}", no_work)
    taken = tmp_path / TAKEN
    taken.write_text("")
    out = taken / "out"
    if command == "tables":
        assert main(["tables", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"cannot make output directory {out}: {taken} is not a directory\n"
        return
    path = write_config(tmp_path, output_dir=str(out), validation=ONE_POINT)
    assert main([command, str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.endswith(f": cannot make output_dir {out}: {taken} is not a directory")
    assert_line_anchored(path, err, "output_dir")


# sha256 of each file the commands write: `tables`, and `sweep` then `validate`
# on the README's example configuration.  A change that moves any byte of these
# outputs fails here; one that moves them on purpose replaces the digests and says so.
PINNED_TABLES = {
    "table1_repro.csv": "71eb8c8db686e79530684850b15ae770be1ceaaa995253b77316699f6131dc2e",
    "table2_repro.csv": "fad801d3bb749ed71cc4ef2fdd3d8ffc94e451de5352601b8363b63f06fcdee3",
}
PINNED_README_RUN = {
    "surface.csv": "0cd8e327f6631ceef89f29e839e8a11a2664fbe1c5e4260e972e274e58877468",
    "global.csv": "df4842e5092519d58f5cf516c01a3cbb342a9dbf6c8e4a78c689c50130f5a02f",
    "p1_vs_N_M1.csv": "10cb52ca87ebe4e68706776883cbddd8cc4452fb02d1cd80af2cd5f39b652654",
    "p1_vs_N_M2.csv": "2fab7d5c124cabcd91bf0df102e1eb68c828092caf26842b4243f970a284e7f4",
    "p1_vs_N_M4.csv": "25b2c7a614ce0d6be4c69f4165b419f093255b6323637c32f985925ecfc1dd64",
    "validate.csv": "c971c7a909e26a50cb91a1f5b616ff4c8526f3b30d484af8947a8470eae7c3c4",
}


def digests(directory):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in directory.iterdir()}


def test_tables_output_is_pinned(tmp_path, monkeypatch):
    # The run's kernel calls are pinned too: all 50 sweeps of the 19 rows are
    # solved as one, in one kernel over the 1,244 grid points, with one outer
    # scan call per window count, 10 in all, and then 16 rounds.
    record = record_kernel_calls(monkeypatch)
    assert run_tables(tmp_path) == EXIT_OK
    assert digests(tmp_path) == PINNED_TABLES
    [(runs, _, calls)] = record
    assert len(runs) == 1244
    assert (sum(map(is_scan, calls)), sum(not is_scan(call) for call in calls)) == (10, 16)


def test_readme_configuration_output_is_pinned(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    config = json.loads(re.search(r"```json\n(.*?)```", readme, flags=re.DOTALL).group(1))
    path = write_config(tmp_path, **{**config, "output_dir": str(tmp_path / "out")})
    assert run_sweep(path) == EXIT_OK
    assert run_validate(path) == EXIT_OK
    assert digests(tmp_path / "out") == PINNED_README_RUN


# The seeded command-line fuzzer.  Each case mutates a valid config one to three
# times, replacing or deleting a value, and runs `sweep` or `validate` on it, or
# runs `tables --out` on a mutated directory.
FUZZ_SEED, FUZZ_CASES = 26, 300
# Literals json.dumps does not write: infinities, NaN and an integer of more
# digits than int() converts.  A config holds each as a "RAW<index>" string.
RAW_LITERALS = ["1e999", "-1e999", "NaN", "1" * 5000]
FUZZ_VALUES = [
    None, True, False, 0, -1, 1, 2, 0.0, -0.0, 0.5, 2.5, 5e-324, 1e308, 10**400, "1", "", [], {}, [1],
    [[1, 1, 1.0]], {"v_r": 0.5}, *(f"RAW{i}" for i in range(len(RAW_LITERALS))),
]
# Large powers of 2 at every count key; a valid point stays at most (8, 8).
POINT_SIZES = [8192, 2**40, 2**62, 2**64]
LARGE_COUNTS = [4096, *POINT_SIZES, 2**40 + 1]
OUT_DIRS = ["out", "taken", "taken/out", "a\0b", "\ud800"]
FUZZ_SITES = {
    **{(key,): FUZZ_VALUES for key in ("version", "losses", "source", "logics", "validation")},
    **{("losses", key): FUZZ_VALUES for key in ("v_r", "v_d", "v_t_s")},
    ("m_values",): [*FUZZ_VALUES, [4096, 1], [2**40]],
    ("n_values",): [*FUZZ_VALUES, [1, 4096], [2**62]],
    ("m_values", 0): FUZZ_VALUES + LARGE_COUNTS,
    ("n_values", 1): FUZZ_VALUES + LARGE_COUNTS,
    ("lambda_bounds",): [*FUZZ_VALUES, [8.0, 10.0], [0, 1e-320], [1e-4, 1e8]],
    ("lambda_bounds", 1): [*FUZZ_VALUES, 1e4],
    ("output_dir",): FUZZ_VALUES + OUT_DIRS,
    ("validation", "trials"): FUZZ_VALUES + LARGE_COUNTS + [100_000],
    ("validation", "seed"): FUZZ_VALUES + LARGE_COUNTS,
    ("validation", "points"): [*FUZZ_VALUES, [[8, 8, 1.0]], [[2, 4, 1.0], [2, 4, 1]], [[1, 1, 1000.0]]],
    ("validation", "points", 0, 0): FUZZ_VALUES + POINT_SIZES,
    ("validation", "points", 0, 1): FUZZ_VALUES + POINT_SIZES,
    ("validation", "points", 0, 2): FUZZ_VALUES,
}


def fuzz_config(rng):
    config = {
        "version": 1,
        "losses": {"v_r": 0.996, "v_t": 0.97, "v_p": 0.95, "v_p0_s": 0.99, "v_d": 0.9, "v_b": 1.0},
        "source": rng.choice(["poissonian", "thermal"]),
        "logics": ["lowest_loss", "first_detection"],
        "m_values": [1, 2],
        "n_values": [1, 2],
        "lambda_bounds": [1e-4, 40.0],
        "output_dir": "out",
        "validation": {"trials": 100_000, "seed": 7, "points": [[2, 4, 1.0]]},
    }
    for _ in range(rng.randint(1, 3)):
        (*steps, key), values = rng.choice(list(FUZZ_SITES.items()))
        node = config
        try:
            for step in steps:
                node = node[step]
            if rng.random() < 0.15:
                del node[key]
            else:
                node[key] = copy.deepcopy(rng.choice(values))  # a later mutation may edit it
        except (KeyError, IndexError, TypeError):  # an earlier mutation removed the site
            pass
    text = json.dumps(config, indent=2)
    for i, literal in enumerate(RAW_LITERALS):
        text = text.replace(f'"RAW{i}"', literal)
    return text


def test_no_config_crashes_the_command_line(tmp_path, capsys, monkeypatch):
    rng = random.Random(FUZZ_SEED)
    budget = [0]  # trials the sampler runs in the current case

    def sample(model, params, layout, trials, seed):
        return simulate(model, params, layout, min(trials, budget[0]), seed)

    forbid_work_beyond_the_caps(monkeypatch, sample)
    monkeypatch.setattr(cli, "reproduce_tables", lambda rows1, rows2: ([], []))
    for case in range(FUZZ_CASES):
        case_dir = tmp_path / str(case)
        case_dir.mkdir()
        monkeypatch.chdir(case_dir)
        Path("taken").write_text("")
        command = rng.choice(["sweep", "validate", "validate", "tables"])
        if command == "tables":
            argv = ["tables", "--out", rng.choice(OUT_DIRS)]
        else:
            Path("config.json").write_text(fuzz_config(rng), encoding="utf-8")
            argv = [command, "config.json"]
        # Most cases sample 1000 trials; a few sample the configured count up to 200,000.
        budget[0] = 200_000 if rng.random() < 0.25 else 1000
        code = main(argv)  # returns, so no exception escaped
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_BRACKET, EXIT_DISAGREEMENT), (case, argv, err)
        if code != EXIT_OK:
            assert err.endswith("\n") and len(err.splitlines()) == 1 and "Traceback" not in err, (case, err)
        if code in (EXIT_CONFIG, EXIT_BRACKET):
            made = {"taken"} if command == "tables" else {"taken", "config.json"}
            assert {path.name for path in case_dir.iterdir()} == made, (case, argv, err)
