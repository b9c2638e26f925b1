"""Maximization of the single-photon probability over the pump strength and geometry.

For fixed losses and geometry (m, n), the single-photon probability is a
unimodal function of the mean pair number: too weak a pump rarely heralds,
too strong a pump floods the output with multi-photon events.  Each grid
point is solved by a coarse logarithmic scan followed by a bracketed Brent
step (parabolic interpolation, safeguarded by golden-section steps); the
sweep then ranks all grid points.  The objective is the engine's closed-form
single-photon probability, which has no input truncation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

# single_photon_probability and herald_convolve are not called here.  The
# benchmark's traced mode (bench/workloads.py, rebinding_targets) rebinds both
# names on this module, so they stay importable.
from .engine import p1_closed_form, single_photon_probability  # noqa: F401
from .statistics import PairSourceModel, SourceKind, herald_convolve  # noqa: F401
from .transmission import LossParameters, MultiplexerLayout, PriorityLogic, build_matrix

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
        object.__setattr__(self, "m_values", tuple(int(m) for m in self.m_values))
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        if not self.m_values or not self.n_values:
            raise ValueError("m_values and n_values must be non-empty")
        for x in self.m_values + self.n_values:
            if x < 1 or x & (x - 1):
                raise ValueError(f"grid values must be powers of 2, got {x}")
        if self.lambda_bounds is not None:
            lo, hi = self.lambda_bounds
            if not (0.0 <= lo < hi):
                raise ValueError(f"lambda bounds must satisfy 0 <= lo < hi, got ({lo}, {hi})")

    def bounds_for(self, n: int) -> tuple[float, float]:
        """Pump-strength bounds for an n-window point; default (1e-4, 10 n)."""
        if self.lambda_bounds is not None:
            return self.lambda_bounds
        return 1e-4, 10.0 * n


@dataclass(frozen=True)
class OptimizationResult:
    """Per-point optima and the global best of a sweep."""

    surface: dict[tuple[int, int], tuple[float, float]]
    best: tuple[int, int, float, float]  # (m, n, lambda_opt, p1_max)

    def __post_init__(self):
        if not self.surface:
            raise ValueError("surface must be non-empty")
        for (m, n), (lam, p1) in self.surface.items():
            if not (0.0 <= p1 <= 1.0):
                raise ValueError(f"p1 at ({m}, {n}) out of [0, 1]: {p1}")
        if self.best[3] != max(p for _, p in self.surface.values()):
            raise ValueError("best entry does not carry the surface maximum")


def maximize_unimodal(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Locate the maximum of a unimodal ``f`` on [lo, hi] to absolute ``LAMBDA_TOL`` in x.

    A coarse logarithmic grid of ``COARSE_POINTS`` brackets the peak between
    the neighbours of its best point; a Brent step refines it until the
    bracket is at most ``LAMBDA_TOL`` wide.  The bounds are validated by a
    finite-difference sign check at both endpoints; a coarse profile with
    more than one local maximum triggers a warning and falls back to
    refining around the best grid point.

    Returns:
        ``(x, f(x))`` as Python floats, ``x`` the best point evaluated.

    Raises:
        BracketError: ``f`` does not increase away from ``lo`` or does not
            decrease toward ``hi``.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got ({lo}, {hi})")
    step = (hi - lo) * 1e-6
    if not f(lo + step) > f(lo):
        raise BracketError(f"objective not increasing at lower bound {lo}")
    if not f(hi - step) > f(hi):
        raise BracketError(f"objective not decreasing at upper bound {hi}")
    grid_lo = lo if lo > 0.0 else hi * 1e-12
    xs = [grid_lo * (hi / grid_lo) ** (i / (COARSE_POINTS - 1)) for i in range(COARSE_POINTS)]
    ys = [f(x) for x in xs]
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
    x, fx = _brent(f, a, b, xs[best], ys[best])
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


def _objective(spec: SweepSpec, point: tuple[int, int]) -> Callable[[float], float]:
    m, n = point
    layout = MultiplexerLayout(m=m, n=n, logic=spec.logic)
    tm = build_matrix(spec.params, layout)
    v_d = spec.params.v_d

    def p1_of_lambda(lam: float) -> float:
        model = PairSourceModel(kind=spec.source_kind, mean_pairs=lam, n_windows=n)
        return p1_closed_form(model, v_d, tm, layout)

    return p1_of_lambda


def optimize_lambda(point: tuple[int, int], spec: SweepSpec) -> tuple[float, float]:
    """Pump strength maximizing the single-photon probability at one (m, n) point.

    Returns:
        ``(lambda_opt, p1)`` with ``lambda_opt`` resolved to absolute 1e-5.
    """
    lo, hi = spec.bounds_for(point[1])
    return maximize_unimodal(_objective(spec, point), lo, hi)


def _better(candidate: tuple[int, int, float, float], incumbent: tuple[int, int, float, float]) -> bool:
    """Strict improvement; exact ties prefer smaller m*n, then smaller m."""
    cm, cn, _, cp = candidate
    im, in_, _, ip = incumbent
    if cp != ip:
        return cp > ip
    if cm * cn != im * in_:
        return cm * cn < im * in_
    return cm < im


def sweep(spec: SweepSpec) -> OptimizationResult:
    """Optimize the pump strength at every (m, n) grid point and rank the results."""
    surface: dict[tuple[int, int], tuple[float, float]] = {}
    best: tuple[int, int, float, float] | None = None
    for m in spec.m_values:
        for n in spec.n_values:
            lam, p1 = optimize_lambda((m, n), spec)
            surface[(m, n)] = (lam, p1)
            candidate = (m, n, lam, p1)
            if best is None or _better(candidate, best):
                best = candidate
    return OptimizationResult(surface=surface, best=best)

