"""Maximization of the single-photon probability over the pump strength and geometry.

For fixed losses and geometry (m, n), the single-photon probability is a
unimodal function of the mean pair number: too weak a pump rarely heralds,
too strong a pump floods the output with multi-photon events.  Each grid
point is solved by a coarse logarithmic scan followed by golden-section
refinement; the sweep then ranks all grid points.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

from .engine import single_photon_probability
from .statistics import PairSourceModel, SourceKind, herald_convolve
from .transmission import LossParameters, MultiplexerLayout, PriorityLogic, build_matrix

LAMBDA_TOL = 1e-5
COARSE_POINTS = 32

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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

    A coarse logarithmic grid of ``COARSE_POINTS`` brackets the peak,
    golden-section search refines it.  The bounds are validated by a
    finite-difference sign check at both endpoints; a coarse profile with
    more than one local maximum triggers a warning and falls back to
    refining around the best grid point.

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
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > LAMBDA_TOL:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _objective(spec: SweepSpec, point: tuple[int, int]) -> Callable[[float], float]:
    m, n = point
    layout = MultiplexerLayout(m=m, n=n, logic=spec.logic)
    tm = build_matrix(spec.params, layout)

    def p1_of_lambda(lam: float) -> float:
        model = PairSourceModel(kind=spec.source_kind, mean_pairs=lam, n_windows=n)
        heralded = herald_convolve(model, spec.params.v_d)
        return single_photon_probability(heralded, tm, layout)

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

