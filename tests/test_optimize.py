"""Pump-strength optimization and grid sweeps."""

import math

import numpy as np
import pytest

from photonmux import (
    BracketError,
    LossParameters,
    SourceKind,
    SweepSpec,
    maximize_unimodal,
    optimize_lambda,
    sweep,
)
from photonmux import optimize
from photonmux.optimize import _better
from photonmux.tables import TABLE2_ROWS

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
            return 3.0 * (x - math.pi) if x < math.pi else math.pi - x

        x, fx = maximize_unimodal(f, 0.5, 10.0)
        assert abs(x - math.pi) <= 1e-5
        assert fx == f(x)

    def test_monotone_increasing_fails_bracket(self):
        with pytest.raises(BracketError):
            maximize_unimodal(lambda x: x, 0.0, 5.0)

    def test_monotone_decreasing_fails_bracket(self):
        with pytest.raises(BracketError):
            maximize_unimodal(lambda x: -x, 0.1, 5.0)

    def test_bimodal_profile_warns_and_refines_best_peak(self):
        # Peaks at 0.1 (height 1.0) and 8 (height 0.8) with a dip between.
        def f(x):
            return math.exp(-((math.log(x / 0.1)) ** 2)) + 0.8 * math.exp(-((x - 8.0) ** 2))

        with pytest.warns(UserWarning, match="local maxima"):
            x, fx = maximize_unimodal(f, 0.01, 20.0)
        assert x == pytest.approx(0.1, abs=1e-3)
        assert fx == pytest.approx(1.0, abs=1e-6)

    def test_returns_python_floats(self):
        x, fx = maximize_unimodal(lambda x: np.float64(1.0 - (x - 2.0) ** 2), 0.5, 10.0)
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
            assert f(lam + 1e-4) <= p1 + 1e-9
            assert f(max(lam - 1e-4, 0.0)) <= p1 + 1e-9

    def test_brent_step_needs_few_evaluations(self, monkeypatch):
        # Table-2 row 1 at its combined optimum (2, 64).  The 4 bracket checks
        # and the 32-point scan take 36 evaluations, which leaves the Brent
        # step at most 14.
        calls = []
        objective = optimize._objective

        def counted(spec, point):
            f = objective(spec, point)

            def g(lam):
                calls.append(lam)
                return f(lam)

            return g

        monkeypatch.setattr(optimize, "_objective", counted)
        lam, _ = optimize_lambda((2, 64), spec_for(TABLE2_ROWS[0].losses(), (2,), (64,)))
        assert len(calls) <= 50
        assert lam == pytest.approx(3.422646523650135, abs=2e-5)  # the golden-section optimum

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
        assert _better((2, 2, 0.1, 0.5), (4, 4, 0.1, 0.5))  # smaller m*n wins a tie
        assert _better((2, 4, 0.1, 0.5), (4, 2, 0.1, 0.5))  # equal m*n: smaller m wins
        assert not _better((4, 2, 0.1, 0.5), (2, 4, 0.1, 0.5))
        assert _better((8, 8, 0.1, 0.6), (1, 1, 0.1, 0.5))  # p1 dominates everything

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            spec_for(ROW4, (), (1,))
        with pytest.raises(ValueError):
            spec_for(ROW4, (3,), (1,))
        with pytest.raises(ValueError):
            spec_for(ROW4, (1,), (1,), lambda_bounds=(2.0, 1.0))

