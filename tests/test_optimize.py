"""Pump-strength optimization and grid sweeps."""

import dataclasses
import math

import numpy as np
import pytest

from photonmux import (
    BracketError,
    LossParameters,
    MultiplexerLayout,
    SourceKind,
    SweepSpec,
    build_matrix,
    maximize_unimodal,
    optimize_lambda,
    sweep,
)
from photonmux import optimize
from photonmux.optimize import OptimizationResult
from photonmux.tables import (
    COMBINED_M_GRID,
    COMBINED_N_GRID,
    STANDALONE_GRID,
    TABLE1_ROWS,
    TABLE2_ROWS,
    reproduce_table2_row,
)

LOSSLESS = LossParameters(v_r=1, v_t=1, v_p=1, v_p0_s=1, v_d=1, v_b=1)
ROW4 = LossParameters(v_r=0.996, v_t=0.97, v_p=0.95, v_p0_s=0.99, v_d=0.9)


def spec_for(params, m_values, n_values, **kwargs):
    return SweepSpec(m_values=m_values, n_values=n_values, params=params, **kwargs)


class TestMaximizeUnimodal:
    def test_quadratic_peak(self):
        x, fx = maximize_unimodal(lambda x: 1.0 - (x - 2.0) ** 2, 0.5, 10.0)
        assert x == pytest.approx(2.0, abs=1e-5)
        assert fx == pytest.approx(1.0, abs=1e-9)

    def test_kinked_peak_is_resolved_to_tolerance(self):
        # No parabola fits an asymmetric kink, so only the bracket width bounds the error.
        def f(x):
            return np.where(x < math.pi, 3.0 * (x - math.pi), math.pi - x)

        x, fx = maximize_unimodal(f, 0.5, 10.0)
        assert abs(x - math.pi) <= 1e-5
        assert fx == f(np.array([x]))[0]

    def test_monotone_increasing_fails_bracket(self):
        with pytest.raises(BracketError):
            maximize_unimodal(lambda x: x, 0.0, 5.0)

    def test_monotone_decreasing_fails_bracket(self):
        with pytest.raises(BracketError):
            maximize_unimodal(lambda x: -x, 0.1, 5.0)

    def test_bimodal_profile_warns_and_refines_best_peak(self):
        # Peaks at 0.1 (height 1.0) and 8 (height 0.8) with a dip between.
        def f(x):
            return np.exp(-((np.log(x / 0.1)) ** 2)) + 0.8 * np.exp(-((x - 8.0) ** 2))

        with pytest.warns(UserWarning, match="local maxima"):
            x, fx = maximize_unimodal(f, 0.01, 20.0)
        assert x == pytest.approx(0.1, abs=1e-3)
        assert fx == pytest.approx(1.0, abs=1e-6)

    def test_returns_python_floats(self):
        x, fx = maximize_unimodal(lambda x: 1.0 - (x - 2.0) ** 2, 0.5, 10.0)
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
        from photonmux.optimize import _objective

        for point in ((1, 1), (2, 4)):
            spec = spec_for(ROW4, (point[0],), (point[1],))
            lam, p1 = optimize_lambda(point, spec)
            f = _objective(spec, point)
            above, below = f(np.array([lam + 1e-4, max(lam - 1e-4, 0.0)]))
            assert above <= p1 + 1e-9
            assert below <= p1 + 1e-9

    def test_brent_step_needs_few_evaluations(self, monkeypatch):
        # Table-2 row 1 at its combined optimum (2, 64).  The 4 bracket checks
        # and the 30 inner points of the scan take 34 pump strengths in one
        # call, which leaves the Brent step at most 14, one per call.
        calls = []
        objective = optimize._objective

        def counted(spec, point):
            f = objective(spec, point)

            def g(lams):
                calls.append(np.array(lams))
                return f(lams)

            return g

        monkeypatch.setattr(optimize, "_objective", counted)
        lam, _ = optimize_lambda((2, 64), spec_for(TABLE2_ROWS[0].losses(), (2,), (64,)))
        assert sum(c.size for c in calls) <= 48
        assert len(calls) <= 15
        assert lam == pytest.approx(3.422646523650135, abs=2e-5)  # the golden-section optimum

    def test_no_lambda_is_evaluated_twice(self, monkeypatch):
        # The bracket checks evaluate both bounds, which are also the scan's end points.
        calls = {}
        objective = optimize._objective

        def recorded(spec, point):
            f = objective(spec, point)
            lams = calls.setdefault((spec.lambda_bounds, point), [])

            def g(batch):
                lams.extend(np.ravel(batch).tolist())
                return f(batch)

            return g

        monkeypatch.setattr(optimize, "_objective", recorded)
        sweep(spec_for(TABLE2_ROWS[0].losses(), (1, 2, 4), (1, 16, 64)))
        optimize_lambda((1, 1), spec_for(LOSSLESS, (1,), (1,), lambda_bounds=(0.0, 5.0)))
        assert len(calls) == 10
        for key, lams in calls.items():
            assert len(set(lams)) == len(lams), key

    def test_table2_row_averages_few_objective_calls(self, monkeypatch):
        # One batched call for the bracket checks and the scan, then the Brent
        # step's single-point calls, at each of the row's 92 grid points.
        calls = []
        objective = optimize._objective

        def counted(spec, point):
            f = objective(spec, point)
            index = len(calls)
            calls.append(0)

            def g(lams):
                calls[index] += 1
                return f(lams)

            return g

        monkeypatch.setattr(optimize, "_objective", counted)
        reproduce_table2_row(TABLE2_ROWS[0])
        assert len(calls) == 92
        assert sum(calls) / len(calls) <= 11

    def test_explicit_bounds_respected(self):
        spec = spec_for(LOSSLESS, (1,), (1,), lambda_bounds=(0.5, 3.0))
        lam, _ = optimize_lambda((1, 1), spec)
        assert 0.5 <= lam <= 3.0

    def test_bad_bounds_fail_bracket(self):
        # The optimum sits at 1, so [3, 10] has a decreasing profile.
        spec = spec_for(LOSSLESS, (1,), (1,), lambda_bounds=(3.0, 10.0))
        with pytest.raises(BracketError):
            optimize_lambda((1, 1), spec)


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

    def test_non_integral_grid_values_rejected(self):
        # int() would truncate 2.7 and 4.9 into the powers of two 2 and 4.  A
        # float is refused even when integral; numpy integers are accepted.
        for m_values, n_values in (((2.7,), (4.9,)), ((2,), (4.9,)), ((2.0,), (4,))):
            with pytest.raises(ValueError, match="must hold integers"):
                spec_for(ROW4, m_values, n_values)
        spec = spec_for(ROW4, (np.int64(2),), (np.int64(4),))
        assert spec.m_values == (2,) and spec.n_values == (4,)
        assert all(type(x) is int for x in spec.m_values + spec.n_values)

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
        # evaluator the row runs of build_matrix, bit for bit.
        seen = []
        evaluator = optimize.p1_evaluator

        def recording(kind, v_d, runs, layout):
            seen.append((spec.params, runs, layout))
            return evaluator(kind, v_d, runs, layout)

        monkeypatch.setattr(optimize, "p1_evaluator", recording)
        for params in factor_loss_sets():
            for m_values, n_values in self.TABLE_GRIDS:
                spec = spec_for(params, m_values, n_values)
                for m in m_values:
                    for n in n_values:
                        optimize._objective(spec, (m, n))
        for params, runs, layout in seen:
            expected = build_matrix(params, layout).row_runs
            assert runs.rows.dtype == expected.rows.dtype
            assert runs.starts.dtype == expected.starts.dtype
            assert np.array_equal(runs.rows, expected.rows), (params, layout)
            assert np.array_equal(runs.starts, expected.starts), (params, layout)
        assert len(seen) == len(factor_loss_sets()) * (10 + 10 + 72)
        # A dead window column merges distinct arm values into one run.
        single_runs = {(params, layout.m) for params, runs, layout in seen if len(runs.starts) == 1}
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
