"""Pump-strength optimization and grid sweeps."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from photonmux import (
    BracketError,
    LossParameters,
    MultiplexerLayout,
    PairSourceModel,
    PriorityLogic,
    SourceKind,
    SweepSpec,
    build_matrix,
    herald_convolve,
    optimize_lambda,
    output_distribution,
    single_photon_probability,
    sweep,
)
from photonmux import engine, optimize, tables
from photonmux.engine import p1_evaluator
from photonmux.optimize import OptimizationResult
from photonmux.tables import (
    COMBINED_M_GRID,
    COMBINED_N_GRID,
    STANDALONE_GRID,
    TABLE1_ROWS,
    TABLE2_ROWS,
    reproduce_table2_row,
    reproduce_tables,
)

LOSSLESS = LossParameters(v_r=1, v_t=1, v_p=1, v_p0_s=1, v_d=1, v_b=1)
ROW4 = LossParameters(v_r=0.996, v_t=0.97, v_p=0.95, v_p0_s=0.99, v_d=0.9)
P, T = SourceKind.POISSONIAN, SourceKind.THERMAL
LL, FD = PriorityLogic.LOWEST_LOSS, PriorityLogic.FIRST_DETECTION


# Grid points where P(1) has two peaks in the pump strength and the best
# point of the 32-point scan lies on the lower one: (source, (m, n), losses,
# (lambda, p1) of the higher peak).  The scan resolves both peaks.
BIMODAL_CASES = [
    (
        T,
        (4, 256),
        LossParameters(
            v_r=0.9959353696644891,
            v_t=0.9133605071186001,
            v_p=0.6866641096646888,
            v_p0_s=0.9975388294090044,
            v_d=0.5566779464607883,
        ),
        (4.4657, 0.546201),  # the best scan point leads to 0.545700 at 33.217
    ),
    (
        P,
        (256, 32),
        LossParameters(
            v_r=0.951006130895628,
            v_t=0.9556883810698336,
            v_p=0.7453185521742411,
            v_p0_s=0.9798998568775329,
            v_d=0.8647893120638623,
        ),
        (59.91, 0.403288),  # the best scan point leads to 0.402110 at 0.137
    ),
    (
        T,
        (2, 256),
        LossParameters(
            v_r=0.9530213754224339,
            v_t=0.9214651458203167,
            v_p=0.7088268262707471,
            v_p0_s=0.9800785115619809,
            v_d=0.9905153086955223,
        ),
        (2.589, 0.444557),  # the best scan point leads to 0.443498 at 99.08
    ),
]


def spec_for(params, m_values, n_values, **kwargs):
    return SweepSpec(m_values=m_values, n_values=n_values, params=params, **kwargs)


def maximize(f, lo, hi):
    """The peaks that the pump-strength search of ``f`` refines on the scan grid of [lo, hi]."""
    [peaks] = optimize._maximize(lambda points, xs: f(xs), [(optimize._scan_grid(lo, hi), [0])])
    return peaks


def objective(spec, point):
    """P(1) at one grid point of ``spec`` as a function of an array of pump strengths."""
    m, n = point
    runs = build_matrix(spec.params, MultiplexerLayout(m, n, spec.logic)).row_runs
    p1 = p1_evaluator(spec.source_kind, spec.params.v_d, [runs], spec.logic)
    return lambda lams: p1(np.zeros(len(lams), dtype=int), np.asarray(lams, dtype=float) / n)


def record_kernel_calls(monkeypatch):
    """Patch the optimizer's P(1) kernel to record each call; returns the record.

    The record holds one entry per kernel that a sweep or ``optimize_lambda``
    builds: ``(runs, kernel, calls)``, each call a ``(points, means, values)``
    triple of copies, in the call's own form: 1-D pairs (a round) or the
    outer form, points of shape (P, 1) and means of shape (1, K) (a scan).
    """
    record = []
    evaluator = optimize.p1_evaluator

    def recording(kind, v_d, runs, logic):
        p1 = evaluator(kind, v_d, runs, logic)
        calls = []
        record.append((runs, p1, calls))

        def kernel(points, mu):
            values = p1(points, mu)
            calls.append((np.array(points), np.array(mu), values.copy()))
            return values

        return kernel

    monkeypatch.setattr(optimize, "p1_evaluator", recording)
    return record


def is_scan(call):
    """Whether a recorded call is in the outer form, as the scans are."""
    points, mu, values = call
    return points.ndim == 2


def pairs_of(call):
    """``(point, mean, value)`` of every (point, mean) pair of a recorded call, in either form."""
    points, mu, values = call
    return zip(*(np.broadcast_to(a, values.shape).ravel().tolist() for a in (points, mu, values)))


class TestMaximizeUnimodal:
    def test_quadratic_peak(self):
        [(x, fx)] = maximize(lambda x: 1.0 - (x - 2.0) ** 2, 0.5, 10.0)
        assert x == pytest.approx(2.0, abs=1e-5)
        assert fx == pytest.approx(1.0, abs=1e-9)

    def test_kinked_peak_is_resolved_to_tolerance(self):
        # No parabola fits an asymmetric kink, so only the bracket width bounds the error.
        def f(x):
            return np.where(x < math.pi, 3.0 * (x - math.pi), math.pi - x)

        [(x, fx)] = maximize(f, 0.5, 10.0)
        assert abs(x - math.pi) <= 1e-5
        assert fx == f(np.array([x]))[0]

    def test_monotone_increasing_fails_bracket(self):
        with pytest.raises(BracketError):
            maximize(lambda x: x, 0.0, 5.0)

    def test_monotone_decreasing_fails_bracket(self):
        with pytest.raises(BracketError):
            maximize(lambda x: -x, 0.1, 5.0)

    def test_bimodal_profile_refines_both_peaks_best_first(self):
        # Peaks at 0.1 (height 1.0) and 8 (height 0.8) with a dip between.
        def f(x):
            return np.exp(-((np.log(x / 0.1)) ** 2)) + 0.8 * np.exp(-((x - 8.0) ** 2))

        (x, fx), (x2, fx2) = maximize(f, 0.01, 20.0)
        assert x == pytest.approx(0.1, abs=1e-3)
        assert fx == pytest.approx(1.0, abs=1e-6)
        assert x2 == pytest.approx(8.0, abs=1e-3)
        assert fx2 == pytest.approx(0.8, abs=1e-3)

    def test_higher_peak_off_the_best_scan_point_wins(self):
        # A broad peak at 0.1 (height 1.0) holds the best scan point.  A narrow
        # peak of height 1.2 lies between two scan points, 40% of the way in
        # log x, and the scan sees it as a lower local maximum.
        xs = optimize._scan_grid(0.01, 20.0)[: optimize.COARSE_POINTS]
        k = int(np.searchsorted(xs, 8.0))
        peak = xs[k - 1] ** 0.6 * xs[k] ** 0.4

        def f(x):
            broad = np.exp(-((np.log(x / 0.1)) ** 2))
            return broad + 1.2 * np.exp(-((np.log(x / peak) / 0.15) ** 2))

        assert int(np.argmax(f(xs))) != k - 1
        (x_broad, fx_broad), (x, fx) = maximize(f, 0.01, 20.0)
        assert x_broad == pytest.approx(0.1, abs=1e-3)
        assert fx_broad == pytest.approx(1.0, abs=1e-3)
        assert x == pytest.approx(peak, abs=1e-5)
        assert fx == pytest.approx(1.2, abs=1e-6)

    def test_returns_python_floats(self):
        [(x, fx)] = maximize(lambda x: 1.0 - (x - 2.0) ** 2, 0.5, 10.0)
        assert type(x) is float and type(fx) is float


class TestOptimizeLambda:
    def test_lossless_single_source_limit(self):
        lam, p1 = optimize_lambda((1, 1), spec_for(LOSSLESS, (1,), (1,)))
        assert lam == pytest.approx(1.0, abs=1e-4)
        assert p1 == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_reference_time_multiplexer(self):
        lam, p1 = optimize_lambda((1, 128), spec_for(ROW4, (1,), (128,)))
        assert p1 == pytest.approx(0.854, abs=5e-4)

    def test_reference_spatial_multiplexer(self):
        lam, p1 = optimize_lambda((128, 1), spec_for(ROW4, (128,), (1,)))
        assert p1 == pytest.approx(0.842, abs=5e-4)

    def test_optimum_is_stable_to_perturbation(self):
        for point in ((1, 1), (2, 4)):
            spec = spec_for(ROW4, (point[0],), (point[1],))
            lam, p1 = optimize_lambda(point, spec)
            f = objective(spec, point)
            above, below = f(np.array([lam + 1e-4, max(lam - 1e-4, 0.0)]))
            assert above <= p1 + 1e-9
            assert below <= p1 + 1e-9

    def test_brent_step_needs_few_evaluations(self, monkeypatch):
        # Table-2 row 1 at its combined optimum (2, 64).  The 4 bracket checks
        # and the 30 inner points of the scan take 34 pump strengths in one
        # call, which leaves the Brent step at most 14, one per call.
        record = record_kernel_calls(monkeypatch)
        lam, _ = optimize_lambda((2, 64), spec_for(TABLE2_ROWS[0].losses(), (2,), (64,)))
        [(_, _, calls)] = record
        assert sum(mu.size for _, mu, _ in calls) <= 48
        assert len(calls) <= 15
        assert lam == pytest.approx(3.422646523650135, abs=2e-5)  # the golden-section optimum

    def test_no_lambda_is_evaluated_twice(self, monkeypatch):
        # The bracket checks evaluate both bounds, which are also the scan's
        # end points.  Each grid point's n is a power of 2, so its pump
        # strengths are distinct exactly when its means are.
        record = record_kernel_calls(monkeypatch)
        sweep(spec_for(TABLE2_ROWS[0].losses(), (1, 2, 4), (1, 16, 64)))
        optimize_lambda((1, 1), spec_for(LOSSLESS, (1,), (1,), lambda_bounds=(0.0, 5.0)))
        kind, point, params, _ = BIMODAL_CASES[0]  # two peaks, each refined
        with pytest.warns(UserWarning, match="local maxima"):
            optimize_lambda(point, spec_for(params, (point[0],), (point[1],), source_kind=kind))
        means = {}
        for k, (_, _, calls) in enumerate(record):
            for call in calls:
                for i, x, _ in pairs_of(call):
                    means.setdefault((k, i), []).append(x)
        assert len(means) == 11
        for key, xs in means.items():
            assert len(set(xs)) == len(xs), key

    def test_brent_steps_equal_batch_entries(self, monkeypatch):
        # A sweep from (1, 1) to (256, 512) scans the three points of each n
        # in one outer call of the scan's pump strengths, and each scan value
        # is, bit for bit, the one that its pair alone gives.  Every round
        # sends one pump strength per peak still refining, and each value is,
        # bit for bit, the one that its pair alone gives, and the entry that
        # a batch of all of that point's steps gives.  The lock-step optima
        # are optimize_lambda's, each solved alone.
        record = record_kernel_calls(monkeypatch)
        for kind in SourceKind:
            for logic in (LL, FD):
                spec = spec_for(ROW4, (1, 4, 256), (1, 64, 512), source_kind=kind, logic=logic)
                result = sweep(spec)
                _, p1, calls = record[-1]
                assert [is_scan(call) for call in calls] == [True] * 3 + [False] * (len(calls) - 3)
                for k, (n, (points, mu, values)) in enumerate(zip((1, 64, 512), calls[:3])):
                    assert points.tolist() == [[k], [k + 3], [k + 6]]  # the points (1, n), (4, n), (256, n)
                    assert mu.shape == (1, optimize.COARSE_POINTS + 2) and values.shape == (3, mu.size)
                    assert np.array_equal(mu, optimize._scan_grid(1e-4, 10.0 * n)[None, :] / n)
                    for i, x, value in pairs_of((points, mu, values)):
                        assert p1(np.array([i]), np.array([x]))[0] == value
                steps = {}
                for points, mu, values in calls[3:]:
                    assert np.array_equal(np.unique(points), points)  # one step per point
                    for i, x, value in zip(points.tolist(), mu.tolist(), values.tolist()):
                        assert p1(np.array([i]), np.array([x]))[0] == value
                        xs, ys = steps.setdefault(i, ([], []))
                        xs.append(x)
                        ys.append(value)
                assert sorted(steps) == list(range(9))
                assert len(calls) - 3 == max(len(xs) for xs, _ in steps.values())
                for i, (xs, ys) in steps.items():
                    assert len(xs) >= 5
                    assert p1(np.full(len(xs), i), np.array(xs)).tolist() == ys
                for point, optimum in result.surface.items():
                    assert optimize_lambda(point, spec) == optimum
        assert len(record) == 4 * (1 + 9)

    def test_sweep_refines_in_lock_step(self, monkeypatch):
        # A 4 x 4 sweep: one outer scan call per window count for its four
        # points, then one call per round for every peak still refining, so
        # the rounds number as many as the Brent steps of its slowest peak,
        # not the steps of all its points.
        record = record_kernel_calls(monkeypatch)
        sweep(spec_for(TABLE2_ROWS[0].losses(), (1, 2, 4, 8), (1, 2, 4, 8)))
        [(runs, _, calls)] = record
        assert len(runs) == 16
        scans, rounds = calls[:4], calls[4:]
        for k, (points, mu, values) in enumerate(scans):
            n = 2**k
            assert points.tolist() == [[k], [k + 4], [k + 8], [k + 12]]  # (1, n), (2, n), (4, n), (8, n)
            assert np.array_equal(mu, optimize._scan_grid(1e-4, 10.0 * n)[None, :] / n)
            assert values.shape == (4, optimize.COARSE_POINTS + 2)
        assert not any(is_scan(call) for call in rounds)
        sizes = [mu.size for _, mu, _ in rounds]
        assert sizes[0] == 16 and sizes == sorted(sizes, reverse=True)
        steps = np.bincount(np.concatenate([points for points, _, _ in rounds]))
        assert len(rounds) == steps.max() <= 20
        assert len(calls) <= 4 + 20

    def test_sweeps_never_contract_point_by_point(self, monkeypatch):
        # The kernel takes every run weight and every sum of a chunk in one
        # pass each; the per-point helpers that output_distribution keeps
        # must not run.  A 4 x 4 sweep and table 2's combined grid, both
        # sources and logics.
        def per_point(*args):
            raise AssertionError("the P(1) kernel contracted one point at a time")

        monkeypatch.setattr(engine, "_contract", per_point)
        monkeypatch.setattr(engine, "_priority_weights", per_point)
        params = TABLE2_ROWS[0].losses()
        for kind in (P, T):
            for logic in (LL, FD):
                design = sweep(spec_for(params, (1, 2, 4, 8), (1, 2, 4, 8), source_kind=kind, logic=logic))
                combined = sweep(spec_for(params, COMBINED_M_GRID, COMBINED_N_GRID, source_kind=kind, logic=logic))
                assert len(design.surface) == 16 and len(combined.surface) == 72

    def test_table2_row_averages_few_objective_calls(self, monkeypatch):
        # The row's three sweeps (92 grid points) are solved as one: one
        # kernel, one outer call for the bracket checks and the scans of each
        # window count (n = 1: the time sweep's point and the spatial sweep's
        # 10; each other n: 8 combined points and one time point), then one
        # call per round of Brent steps for every peak of every sweep, and at
        # most 10 Brent steps per point on average.
        record = record_kernel_calls(monkeypatch)
        reproduce_table2_row(TABLE2_ROWS[0])
        [(runs, _, calls)] = record
        assert len(runs) == 92
        scans = sum(map(is_scan, calls))
        assert all(map(is_scan, calls[:scans]))
        assert sum(points.size for points, _, _ in calls[:scans]) == len(runs)
        scan_sizes = sorted((points.size for points, _, _ in calls[:scans]), reverse=True)
        assert scan_sizes == [11] + [len(COMBINED_M_GRID) + 1] * len(COMBINED_N_GRID)
        assert len(calls) <= scans + 15
        evaluations = sum(values.size for _, _, values in calls)
        assert evaluations / 92 <= 34 + 10

    def test_explicit_bounds_respected(self):
        spec = spec_for(LOSSLESS, (1,), (1,), lambda_bounds=(0.5, 3.0))
        lam, _ = optimize_lambda((1, 1), spec)
        assert 0.5 <= lam <= 3.0

    def test_bad_bounds_fail_bracket(self):
        # The optimum sits at 1, so [3, 10] has a decreasing profile.
        spec = spec_for(LOSSLESS, (1,), (1,), lambda_bounds=(3.0, 10.0))
        with pytest.raises(BracketError):
            optimize_lambda((1, 1), spec)

    @pytest.mark.parametrize("hi", [1e4, 1e5, 1e8])
    def test_bracket_failure_names_a_check_that_cannot_see_the_slope(self, hi):
        # The lossless optimum sits at 1.  P(1) underflows to exactly 0 at
        # 1e4 and at 1e5, and at the check point hi - step below each; at
        # 1e8 the check point lo + step = 100 lies far past the peak.
        lo = 1e-4
        spec = spec_for(LOSSLESS, (1,), (1,), lambda_bounds=(lo, hi))
        *_, lo_step, hi_step = optimize._scan_grid(lo, hi).tolist()
        with pytest.raises(BracketError) as failure:
            optimize_lambda((1, 1), spec)
        if hi < 1e8:
            expected = (
                f"objective not decreasing at upper bound {hi}: it is 0 there and at the check point "
                f"hi - step = {hi_step}, as when it underflows"
            )
        else:
            expected = (
                f"objective not increasing at lower bound {lo}: the check point lo + step = {lo_step} "
                "lies past the best scan point 0.7429639507594946"
            )
        assert str(failure.value) == expected

    def test_bracket_failure_of_a_monotone_profile_keeps_its_text(self):
        # [8, 10] lies past the peak, so the check at 8 sees the profile fall.
        spec = spec_for(LOSSLESS, (1,), (1,), lambda_bounds=(8.0, 10.0))
        with pytest.raises(BracketError, match=r"^objective not increasing at lower bound 8\.0$"):
            optimize_lambda((1, 1), spec)


# Exact optima of table-2 row 1's losses, recorded once: a change that moves
# any bit of a lambda_opt or its p1 fails here.  A change that moves them on
# purpose replaces these values and says so.
PINNED_OPTIMA = [
    ((1, 1), P, LL, (1.0000004252923946, 0.3310914970542682)),
    ((1, 1), T, FD, (1.0000012037774906, 0.22499999999991846)),
    ((1, 512), P, FD, (19.697357157037796, 0.8455086768375244)),
    ((1, 512), T, LL, (9.510493318176682, 0.8371771281656313)),
    ((512, 1), P, LL, (0.04107737574229215, 0.8425472876946436)),
    ((512, 1), T, FD, (0.02486741204725226, 0.8324276524074306)),
    ((2, 64), P, FD, (3.4762707565523776, 0.8483250936070834)),
    ((2, 64), T, LL, (2.960466337437281, 0.8361352344915075)),
    ((16, 64), P, LL, (1.9561201881639774, 0.8288324085758889)),
    ((16, 64), T, FD, (1.4616682197854363, 0.807651406332241)),
    ((256, 512), P, FD, (26.79716817656242, 0.7816311598657153)),
    ((256, 512), T, LL, (11.266350032976442, 0.7641340180211462)),
]


@pytest.mark.parametrize(
    "case", PINNED_OPTIMA, ids=[f"{c[1].value}-{c[0][0]}x{c[0][1]}-{c[2].value}" for c in PINNED_OPTIMA]
)
def test_optima_are_pinned(case):
    point, kind, logic, expected = case
    spec = spec_for(TABLE2_ROWS[0].losses(), (point[0],), (point[1],), source_kind=kind, logic=logic)
    assert repr(optimize_lambda(point, spec)) == repr(expected)


@pytest.mark.parametrize(
    "case", BIMODAL_CASES, ids=[f"{c[0].value}-{c[1][0]}x{c[1][1]}" for c in BIMODAL_CASES]
)
def test_higher_of_two_scan_peaks_is_found(case):
    kind, (m, n), params, (lam_expected, p1_expected) = case
    spec = spec_for(params, (m,), (n,), source_kind=kind)
    with pytest.warns(UserWarning, match="local maxima"):
        lam, p1 = optimize_lambda((m, n), spec)
    assert lam == pytest.approx(lam_expected, rel=1e-3)
    assert p1 == pytest.approx(p1_expected, abs=1e-6)
    # The series engine gives the same P(1) at the returned pump strength.
    layout = MultiplexerLayout(m, n)
    tm = build_matrix(params, layout)
    heralded = herald_convolve(PairSourceModel(kind, lam, n), params.v_d)
    bound = output_distribution(heralded, tm, layout).tail_bound
    assert abs(single_photon_probability(heralded, tm, layout) - p1) <= bound
    # No point of a dense scan over the default bounds lies higher.
    dense = objective(spec, (m, n))(np.geomspace(1e-4, 10.0 * n, 4000))
    assert dense.max() <= p1 + 1e-9


@pytest.mark.parametrize(
    "case", BIMODAL_CASES, ids=[f"{c[0].value}-{c[1][0]}x{c[1][1]}" for c in BIMODAL_CASES]
)
def test_two_peaks_refine_in_the_same_rounds(case, monkeypatch):
    # Both peaks of a two-peak point advance in the same kernel calls, and
    # each value is the one that its pump strength alone gives, bit for bit.
    kind, (m, n), params, _ = case
    record = record_kernel_calls(monkeypatch)
    with pytest.warns(UserWarning, match="local maxima"):
        optimize_lambda((m, n), spec_for(params, (m,), (n,), source_kind=kind))
    [(_, p1, calls)] = record
    scan, rounds = calls[0], calls[1:]
    assert scan[0].shape == (1, 1) and scan[1].shape == (1, optimize.COARSE_POINTS + 2)
    assert not any(map(is_scan, rounds))
    assert sum(mu.size == 2 for _, mu, _ in rounds) >= 5
    for points, mu, values in rounds:
        assert points.tolist() == [0] * mu.size
        assert [p1(np.zeros(1, int), mu[k : k + 1])[0] for k in range(mu.size)] == values.tolist()


def test_sweep_warns_once_per_two_peak_grid_point(tmp_path):
    # Python's default filter shows a warning once per text and call site.
    # The text names the grid point and its refined peaks, so a sweep over
    # the Poissonian (256, 32) losses shows all 11 points where the scan sees
    # two peaks, not only the first.
    kind, _, params, _ = BIMODAL_CASES[1]
    config = {
        "version": 1,
        "losses": {name: getattr(params, name) for name in ("v_r", "v_t", "v_p", "v_p0_s", "v_d", "v_b")},
        "source": kind.value,
        "logics": ["lowest_loss"],
        "m_values": [64, 128, 256],
        "n_values": [16, 32, 64, 128],
        "lambda_bounds": None,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "photonmux.cli", "sweep", str(path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    lines = [line for line in result.stderr.splitlines() if "local maxima" in line]
    points = {re.search(r"\(m, n\) = \((\d+), (\d+)\)", line).groups() for line in lines}
    assert len(lines) == len(points) == 11, result.stderr
    assert ("256", "32") in points
    for line in lines:
        assert "found 2 local maxima" in line and "lowest_loss" in line
        assert len(re.findall(r"\(\d[\d.e+-]*, 0\.\d+\)", line)) == 2, line


def solve_together(specs):
    """Each spec's sweep, all their grid points solved in one ``_solve``."""
    refined = optimize._solve([(spec, optimize._grid_points(spec)) for spec in specs])
    return [sweep(spec, _refined=refined) for spec in specs]


def surfaces_and_warnings(solve):
    """The repr of each sweep's surface that ``solve()`` returns, and the text of every warning it raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = solve()
    return [repr(list(result.surface.items())) for result in results], [str(w.message) for w in caught]


class TestSharedSolve:
    def test_reference_rows_solved_together_equal_their_sweeps_alone(self, monkeypatch):
        # The 50 sweeps of the 19 reference rows share one kernel; every
        # optimum of every sweep is the one its sweep gives alone, bit for bit.
        solved = []

        def recording(spec, **kwargs):
            result = sweep(spec, **kwargs)
            solved.append((spec, kwargs, result))
            return result

        monkeypatch.setattr(tables, "sweep", recording)
        record = record_kernel_calls(monkeypatch)
        reproduce_tables()
        assert [len(runs) for runs, _, _ in record] == [1244]
        assert len(solved) == 2 * len(TABLE1_ROWS) + 3 * len(TABLE2_ROWS)
        assert sum(len(result.surface) for _, _, result in solved) == 1244
        for spec, kwargs, result in solved:
            assert "_refined" in kwargs
            assert repr(list(result.surface.items())) == repr(list(sweep(spec).surface.items()))

    def test_shared_solve_warns_once_per_two_peak_point(self):
        # A time grid and then the grid of the 11 two-peak points of
        # test_sweep_warns_once_per_two_peak_grid_point, over the losses of
        # the Poissonian (256, 32) case: solved together, they warn at the
        # points and with the texts that their sweeps do alone, and give the
        # same surfaces.
        kind, _, params, _ = BIMODAL_CASES[1]
        specs = [
            spec_for(params, (1,), STANDALONE_GRID, source_kind=kind),
            spec_for(params, (64, 128, 256), (16, 32, 64, 128), source_kind=kind),
        ]
        surfaces, texts = surfaces_and_warnings(lambda: solve_together(specs))
        assert (surfaces, texts) == surfaces_and_warnings(lambda: [sweep(spec) for spec in specs])
        points = [re.search(r"\(m, n\) = \((\d+), (\d+)\)", text).groups() for text in texts]
        assert len(points) == len(set(points))
        assert sum(m != "1" for m, _ in points) == 11 and ("256", "32") in points

    def test_other_losses_and_bounds_share_one_kernel(self, monkeypatch):
        # Loss sets and bounds may differ between the specs of one solve; each
        # (bounds, n) scan takes one call for the points that use it.
        record = record_kernel_calls(monkeypatch)
        specs = [
            spec_for(ROW4, (1, 2), (1, 2)),
            spec_for(dataclasses.replace(ROW4, v_p=0.9), (1, 2), (1, 2)),
            spec_for(ROW4, (4,), (2,), lambda_bounds=(1e-3, 30.0)),
        ]
        together = surfaces_and_warnings(lambda: solve_together(specs))
        [(runs, _, calls)] = record
        assert len(runs) == 9
        assert sorted(points.size for points, _, _ in filter(is_scan, calls)) == [1, 4, 4]
        assert together == surfaces_and_warnings(lambda: [sweep(spec) for spec in specs])

    @pytest.mark.parametrize(
        "change",
        [{"source_kind": T}, {"logic": FD}, {"params": dataclasses.replace(ROW4, v_d=0.8)}],
        ids=["source", "logic", "v_d"],
    )
    def test_specs_of_other_physics_are_refused_before_anything_is_built(self, monkeypatch, change):
        def built(*args):
            raise AssertionError("built before the specs were checked")

        monkeypatch.setattr(optimize, "p1_evaluator", built)
        monkeypatch.setattr(optimize, "_row_runs", built)
        monkeypatch.setattr(optimize, "_scan_grid", built)
        first = spec_for(ROW4, (1, 2), (1,))
        other = dataclasses.replace(first, **change)
        with pytest.raises(ValueError, match="must share source, logic and v_d"):
            next(optimize._solve([(first, [(1, 1)]), (other, [(2, 1)])]))


class TestSweep:
    def test_single_point_surface(self):
        result = sweep(spec_for(LOSSLESS, (1,), (1,)))
        assert set(result.surface) == {(1, 1)}
        assert result.best[:2] == (1, 1)
        assert result.best[2:] == result.surface[(1, 1)]

    def test_restriction_reproduces_standalone_rows(self):
        # A combined sweep restricted to m = 1 must agree with the
        # standalone per-point optimization.
        n_values = (1, 2, 4)
        result = sweep(spec_for(ROW4, (1,), n_values))
        for n in n_values:
            lam, p1 = optimize_lambda((1, n), spec_for(ROW4, (1,), (n,)))
            assert result.surface[(1, n)] == (lam, p1)

    def test_grid_ranking_prefers_larger_p1(self):
        result = sweep(spec_for(ROW4, (1, 2), (1, 2, 4)))
        best_p1 = max(p1 for _, p1 in result.surface.values())
        assert result.best[3] == best_p1

    def test_tie_breaking_rules(self):
        def best(*points):
            return OptimizationResult(surface={(m, n): (0.1, p1) for m, n, p1 in points}).best[:2]

        assert best((4, 4, 0.5), (2, 2, 0.5)) == (2, 2)  # smaller m*n wins a tie
        assert best((4, 2, 0.5), (2, 4, 0.5)) == (2, 4)  # equal m*n: smaller m wins
        assert best((2, 4, 0.5), (4, 2, 0.5)) == (2, 4)  # whatever the grid order
        assert best((1, 1, 0.5), (8, 8, 0.6)) == (8, 8)  # p1 dominates everything

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            spec_for(ROW4, (), (1,))
        with pytest.raises(ValueError):
            spec_for(ROW4, (3,), (1,))
        with pytest.raises(ValueError):
            spec_for(ROW4, (1,), (1,), lambda_bounds=(2.0, 1.0))
        for bounds in ((0.0, math.inf), (0.0, math.nan), (math.nan, 1.0)):
            with pytest.raises(ValueError):
                spec_for(ROW4, (1,), (1,), lambda_bounds=bounds)

    @pytest.mark.parametrize("bounds", [(0.0, 1e-320), (1e-4, 1e308), (1e-300, 1e10)])
    def test_bounds_without_a_finite_scan_rejected(self, bounds):
        # hi * 1e-12 underflows to 0 at (0, 1e-320), a division by zero;
        # hi / lo overflows at the others, which would scan inf and get NaN.
        with pytest.raises(ValueError, match=r"^lambda_bounds must give a pump-strength scan of finite points"):
            spec_for(ROW4, (1,), (1,), lambda_bounds=bounds)

    @pytest.mark.parametrize(
        "bounds", [(0.0, 1e-300), (0.0, 5e-312), (0.0, 1.7e308), (1e-300, 1e-200), (1e-4, 1.0), (0.0, 5.0)]
    )
    def test_bounds_with_a_finite_scan_keep_it(self, bounds):
        # Bounds the refusal lets through scan exactly the points of the scan's
        # formula, written out here, down to subnormal and up to near-overflow ones.
        lo, hi = bounds
        spec_for(ROW4, (1,), (1,), lambda_bounds=bounds)
        step = (hi - lo) * 1e-6
        grid_lo = lo if lo > 0.0 else hi * 1e-12
        last = optimize.COARSE_POINTS - 1
        inner = [grid_lo * (hi / grid_lo) ** (i / last) for i in range(1, last)]
        expected = [lo, *inner, hi, lo + step, hi - step]
        assert optimize._scan_grid(lo, hi).tolist() == expected

    def test_non_integral_grid_values_rejected(self):
        # int() would truncate 2.7 and 4.9 into the powers of two 2 and 4.  A
        # float is refused even when integral; numpy integers are accepted.
        for m_values, n_values in (((2.7,), (4.9,)), ((2,), (4.9,)), ((2.0,), (4,))):
            with pytest.raises(ValueError, match="must hold integers"):
                spec_for(ROW4, m_values, n_values)
        spec = spec_for(ROW4, (np.int64(2),), (np.int64(4),))
        assert spec.m_values == (2,) and spec.n_values == (4,)
        assert all(type(x) is int for x in spec.m_values + spec.n_values)

    def test_repeated_grid_values_rejected(self):
        # A repeat would solve its grid points twice.
        for m_values, n_values in (((2, 4, 2), (1,)), ((1,), (4, 8, 4)), ((2, np.int64(2)), (1,))):
            with pytest.raises(ValueError, match="distinct"):
                spec_for(ROW4, m_values, n_values)

    def test_grid_values_above_the_cap_rejected(self):
        # A grid value sets the length of the window column and arm arrays
        # that a sweep builds, so 2**40 would loop 2**40 times; it is refused
        # before anything is built.
        assert spec_for(ROW4, (4096,), (4096,)).m_values == (4096,)
        for m_values, n_values in (((8192,), (1,)), ((1,), (2**40,)), ((1, 2**40), (4,))):
            with pytest.raises(ValueError, match=r"must hold distinct powers of 2 up to 4096"):
                spec_for(ROW4, m_values, n_values)

    def test_point_beyond_the_grid_rule_rejected(self, monkeypatch):
        # optimize_lambda takes its point apart from the spec's grid, so it
        # checks the same rule before it builds the point's row runs.
        def build(*args):
            raise AssertionError("built a row run")

        monkeypatch.setattr(optimize, "_row_runs", build)
        spec = spec_for(ROW4, (1,), (4,))
        for point in ((1, 2**40), (8192, 1), (3, 4)):
            with pytest.raises(ValueError, match=r"point must hold two powers of 2 up to 4096, got \("):
                optimize_lambda(point, spec)
        for point in ((1,), (1, 2, 4)):
            with pytest.raises(ValueError, match="point must hold two powers of 2 up to 4096"):
                optimize_lambda(point, spec)
        for point in ((True, 2), (1.0, 4)):
            with pytest.raises(ValueError, match="point must hold integers >= 1"):
                optimize_lambda(point, spec)

    def test_boolean_grid_values_rejected(self):
        # operator.index(True) == 1, a power of two, so a boolean would sweep m = 1.
        for m_values, n_values in (((True,), (2,)), ((2,), (False,)), ((np.True_,), (2,))):
            with pytest.raises(ValueError, match="must hold integers"):
                spec_for(ROW4, m_values, n_values)


def factor_loss_sets():
    """Reference and random loss sets, equal splitters, and a dead window column (``v_b = 0``)."""
    rng = np.random.default_rng(9)
    names = ("v_r", "v_t", "v_p", "v_p0_s", "v_d", "v_b", "v_r_s", "v_t_s")
    sets = [row.losses() for row in TABLE1_ROWS + TABLE2_ROWS]
    for _ in range(6):
        sets.append(LossParameters(**{name: float(rng.uniform(0.5, 1.0)) for name in names}))
    # Equal splitters: rounding of v^q v^(levels-q) can still split the arms
    # into a few runs, while v = 1/2 gives exactly one.
    sets.append(dataclasses.replace(sets[-1], v_t_s=sets[-1].v_r_s))
    sets.append(dataclasses.replace(sets[-1], v_r_s=0.5, v_t_s=0.5))
    sets.append(dataclasses.replace(sets[-3], v_b=0.0))
    return sets


class TestSweepTransmissionFactors:
    TABLE_GRIDS = (
        ((1,), STANDALONE_GRID),
        (STANDALONE_GRID, (1,)),
        (COMBINED_M_GRID, COMBINED_N_GRID),
    )

    def test_row_runs_equal_the_built_matrix_runs(self, monkeypatch):
        # Every grid point of the table-1 and table-2 sweeps hands the
        # evaluator the row runs of build_matrix, bit for bit.  The kernel is
        # only built here: each sweep stops before its first evaluation.
        seen = []

        class Built(Exception):
            pass

        def recording(kind, v_d, runs, logic):
            points = [(m, n) for m in spec.m_values for n in spec.n_values]
            seen.extend((spec.params, point, r) for point, r in zip(points, runs, strict=True))
            raise Built

        monkeypatch.setattr(optimize, "p1_evaluator", recording)
        for params in factor_loss_sets():
            for m_values, n_values in self.TABLE_GRIDS:
                spec = spec_for(params, m_values, n_values)
                with pytest.raises(Built):
                    sweep(spec)
        for params, (m, n), runs in seen:
            expected = build_matrix(params, MultiplexerLayout(m, n)).row_runs
            assert runs.rows.dtype == expected.rows.dtype
            assert runs.starts.dtype == expected.starts.dtype
            assert np.array_equal(runs.rows, expected.rows), (params, m, n)
            assert np.array_equal(runs.starts, expected.starts), (params, m, n)
            assert runs.ranks == expected.ranks == m, (params, m, n)
        assert len(seen) == len(factor_loss_sets()) * (10 + 10 + 72)
        # A dead window column merges distinct arm values into one run.
        single_runs = {(params, m) for params, (m, n), runs in seen if len(runs.starts) == 1}
        halves, dead_column = factor_loss_sets()[-2:]
        assert {(halves, 256), (dead_column, 256)} <= single_runs

    def test_sweep_equals_single_point_optimization(self):
        # A table-2 row's combined grid: the factors a sweep shares between its
        # points change no optimum in any bit.
        spec = spec_for(TABLE2_ROWS[9].losses(), COMBINED_M_GRID, COMBINED_N_GRID)
        result = sweep(spec)
        for point, optimum in result.surface.items():
            assert optimum == optimize_lambda(point, spec)
            assert optimum == optimize_lambda(point, dataclasses.replace(spec))
