"""Maximization of the single-photon probability over the pump strength and geometry.

For fixed losses and geometry (m, n), the single-photon probability is a
unimodal function of the mean pair number: too weak a pump rarely heralds,
too strong a pump floods the output with multi-photon events.  Each grid
point is solved by a coarse logarithmic scan followed by a bracketed Brent
step (parabolic interpolation, safeguarded by golden-section steps); the
sweep then ranks all grid points.  The objective is the engine's closed-form
single-photon probability, which has no input truncation.  It maps an array
of pump strengths to an array of probabilities, so the bracket checks at
both bounds and the whole scan take one call; each Brent step is a batch of
one.

The transmission matrix of a grid point is the outer product of the ranked
arm transmissions and the window column, and the router tree gives only
``log2 m + 1`` distinct arm values.  A ``SweepSpec`` therefore keeps the
distinct arm values with their run starts per m and the window column per
n, and each grid point's evaluator gets its (row runs x n) rows from them;
no m x n matrix is built.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

# build_matrix, herald_convolve and single_photon_probability are not called
# here.  The benchmark's traced mode (bench/workloads.py, rebinding_targets)
# rebinds all three names on this module, so they stay importable.
from .engine import p1_evaluator, single_photon_probability  # noqa: F401
from .statistics import SourceKind, herald_convolve  # noqa: F401
from .transmission import (  # noqa: F401
    LossParameters,
    MultiplexerLayout,
    PriorityLogic,
    RowRuns,
    _arm_runs,
    _factored_runs,
    _is_power_of_two,
    _window_column,
    build_matrix,
)

LAMBDA_TOL = 1e-5
COARSE_POINTS = 32

# Golden-section fraction of the larger bracket segment, for Brent's fallback step.
_GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0
# Smallest Brent step.  Brent's own stopping rule, max(x - a, b - x) <= 2 * _MIN_STEP,
# implies b - a <= LAMBDA_TOL, so stopping on the bracket width always terminates.
_MIN_STEP = LAMBDA_TOL / 4.0


class BracketError(RuntimeError):
    """The pump-strength bounds do not bracket an interior maximum."""


@dataclass(frozen=True)
class SweepSpec:
    """Grid and physics of one optimization sweep."""

    m_values: tuple[int, ...]
    n_values: tuple[int, ...]
    params: LossParameters
    source_kind: SourceKind = SourceKind.POISSONIAN
    logic: PriorityLogic = PriorityLogic.LOWEST_LOSS
    lambda_bounds: tuple[float, float] | None = None

    def __post_init__(self):
        for name in ("m_values", "n_values"):
            raw = tuple(getattr(self, name))
            # operator.index takes True as 1, so booleans are refused first.
            if any(isinstance(x, bool) for x in raw):
                raise ValueError(f"{name} must hold integers, got {raw}")
            try:
                values = tuple(operator.index(x) for x in raw)
            except TypeError as exc:
                raise ValueError(f"{name} must hold integers, got {raw}") from exc
            object.__setattr__(self, name, values)
        if not self.m_values or not self.n_values:
            raise ValueError("m_values and n_values must be non-empty")
        for x in self.m_values + self.n_values:
            if not _is_power_of_two(x):
                raise ValueError(f"grid values must be powers of 2, got {x}")
        if self.lambda_bounds is not None:
            lo, hi = self.lambda_bounds
            if not (0.0 <= lo < hi < math.inf):
                raise ValueError(
                    f"lambda bounds must be finite and satisfy 0 <= lo < hi, got ({lo}, {hi})"
                )

    def bounds_for(self, n: int) -> tuple[float, float]:
        """Pump-strength bounds for an n-window point; default (1e-4, 10 n)."""
        if self.lambda_bounds is not None:
            return self.lambda_bounds
        return 1e-4, 10.0 * n

    @cached_property
    def _factors(self) -> tuple[dict, dict]:
        """Ranked arm runs per m and window column per n, each built on first use."""
        return {}, {}

    def _row_runs(self, m: int, n: int) -> RowRuns:
        """Row runs of the (m, n) transmission matrix, without building the matrix."""
        arms, columns = self._factors
        if m not in arms:
            arms[m] = _arm_runs(self.params, m)
        if n not in columns:
            columns[n] = _window_column(self.params, n)
        return _factored_runs(arms[m], columns[n])


@dataclass(frozen=True)
class OptimizationResult:
    """Per-point optima of a sweep, ``(m, n) -> (lambda_opt, p1)``."""

    surface: dict[tuple[int, int], tuple[float, float]]

    def __post_init__(self):
        if not self.surface:
            raise ValueError("surface must be non-empty")
        for (m, n), (lam, p1) in self.surface.items():
            if not (0.0 <= p1 <= 1.0):
                raise ValueError(f"p1 at ({m}, {n}) out of [0, 1]: {p1}")

    @property
    def best(self) -> tuple[int, int, float, float]:
        """``(m, n, lambda_opt, p1_max)``; exact ties in p1 prefer smaller m*n, then smaller m."""

        def rank(item):
            (m, n), (_, p1) = item
            return p1, -m * n, -m

        (m, n), (lam, p1) = max(self.surface.items(), key=rank)
        return m, n, lam, p1


def maximize_unimodal(
    f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float
) -> tuple[float, float]:
    """Locate the maximum of a unimodal ``f`` on [lo, hi] to absolute ``LAMBDA_TOL`` in x.

    ``f`` maps a 1-D array of points to the array of their values.  A coarse
    logarithmic grid of ``COARSE_POINTS`` brackets the peak between the
    neighbours of its best point; a Brent step refines it until the bracket
    is at most ``LAMBDA_TOL`` wide.  The bounds are validated by a
    finite-difference sign check at both endpoints; a coarse profile with
    more than one local maximum triggers a warning and falls back to
    refining around the best grid point.  The sign checks and the grid take
    one call of ``f``; each Brent step calls it on one point.

    Returns:
        ``(x, f(x))`` as Python floats, ``x`` the best point evaluated.

    Raises:
        BracketError: ``f`` does not increase away from ``lo`` or does not
            decrease toward ``hi``.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got ({lo}, {hi})")
    step = (hi - lo) * 1e-6
    grid_lo = lo if lo > 0.0 else hi * 1e-12
    inner = [
        grid_lo * (hi / grid_lo) ** (i / (COARSE_POINTS - 1)) for i in range(1, COARSE_POINTS - 1)
    ]
    # The scan's end points are lo and hi themselves, which the sign checks evaluate.
    f_lo, f_lo_step, f_hi, f_hi_step, *f_inner = f(
        np.array([lo, lo + step, hi, hi - step, *inner])
    ).tolist()
    if not f_lo_step > f_lo:
        raise BracketError(f"objective not increasing at lower bound {lo}")
    if not f_hi_step > f_hi:
        raise BracketError(f"objective not decreasing at upper bound {hi}")
    xs = [lo, *inner, hi]
    ys = [f_lo, *f_inner, f_hi]
    n_local_max = sum(
        1
        for i in range(COARSE_POINTS)
        if (i == 0 or ys[i] > ys[i - 1]) and (i == COARSE_POINTS - 1 or ys[i] > ys[i + 1])
    )
    if n_local_max > 1:
        warnings.warn(
            f"coarse scan found {n_local_max} local maxima; refining around the best grid point",
            stacklevel=2,
        )
    best = max(range(COARSE_POINTS), key=ys.__getitem__)
    a = xs[best - 1] if best > 0 else lo
    b = xs[best + 1] if best < COARSE_POINTS - 1 else hi
    x, fx = _brent(lambda u: float(f(np.array([u]))[0]), a, b, xs[best], ys[best])
    return float(x), float(fx)


def _brent(
    f: Callable[[float], float], a: float, b: float, x: float, fx: float
) -> tuple[float, float]:
    """Brent's maximization on [a, b] from an interior point ``x`` with ``f(x) = fx``.

    Each step fits a parabola through the three best points and moves to its
    vertex; a golden-section step into the larger segment replaces it when
    the vertex leaves the bracket or the steps stop shrinking.  Steps are at
    least ``_MIN_STEP`` long.  Stops once ``b - a <= LAMBDA_TOL``; ``x`` is
    the best point evaluated and stays inside the bracket.
    """
    w = v = x
    fw = fv = fx
    d = e = 0.0  # the last step and the one before it
    while b - a > LAMBDA_TOL:
        mid = 0.5 * (a + b)
        parabolic = False
        if abs(e) > _MIN_STEP:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # The vertex must lie inside the bracket and the step must be less
            # than half the step before last, or the fit is not converging.
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                u = x + d
                if u - a < 2.0 * _MIN_STEP or b - u < 2.0 * _MIN_STEP:
                    d = _MIN_STEP if x < mid else -_MIN_STEP
                parabolic = True
        if not parabolic:
            e = (a - x) if x >= mid else (b - x)
            d = _GOLDEN_STEP * e
        u = x + d if abs(d) >= _MIN_STEP else x + math.copysign(_MIN_STEP, d)
        fu = f(u)
        if fu >= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def _objective(spec: SweepSpec, point: tuple[int, int]) -> Callable[[np.ndarray], np.ndarray]:
    """P(1) at one grid point as a function of an array of pump strengths."""
    m, n = point
    layout = MultiplexerLayout(m=m, n=n, logic=spec.logic)
    p1 = p1_evaluator(spec.source_kind, spec.params.v_d, spec._row_runs(m, n), layout)

    def p1_of_lambda(lams: np.ndarray) -> np.ndarray:
        return p1(np.asarray(lams, dtype=float) / n)

    return p1_of_lambda


def optimize_lambda(point: tuple[int, int], spec: SweepSpec) -> tuple[float, float]:
    """Pump strength maximizing the single-photon probability at one (m, n) point.

    Returns:
        ``(lambda_opt, p1)`` with ``lambda_opt`` resolved to absolute 1e-5.
    """
    lo, hi = spec.bounds_for(point[1])
    return maximize_unimodal(_objective(spec, point), lo, hi)


def sweep(spec: SweepSpec) -> OptimizationResult:
    """Optimize the pump strength at every (m, n) grid point."""
    return OptimizationResult(
        surface={(m, n): optimize_lambda((m, n), spec) for m in spec.m_values for n in spec.n_values}
    )
