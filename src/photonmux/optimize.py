"""Maximization of the single-photon probability over the pump strength and geometry.

For fixed losses and geometry (m, n), the single-photon probability rises
from 0 with the mean pair number and falls again at a strong pump: too weak
a pump rarely heralds, too strong a pump floods the output with
multi-photon events.  In between it need not be unimodal: on 60 random loss
sets, for both sources, the scan sees two local maxima at 1,729 of 10,920
grid points of the table grids (none at the points of the reference tables
and the dominance grid), and each such point warns.  Each
grid point is solved by a coarse logarithmic scan followed by a bracketed
Brent step (parabolic interpolation, safeguarded by golden-section steps)
at each peak the scan resolves, and the result is the best of them: the
global maximum unless a higher peak lies between two scan points, where
the scan does not see it; the sweep then ranks all grid points.  Every
point's bounds are checked before any peak is refined, so a sweep with a
point that the bounds do not bracket raises ``BracketError`` before its
first Brent step, and a ``SweepSpec`` refuses mistyped physics (a string
for a source or a logic, say) when it is built.  The
objective is the engine's closed-form single-photon probability, which has
no input truncation.  One P(1) kernel serves every grid point of a sweep:
it maps pairs of a grid point and a pump strength to probabilities, or
every grid point of a set against every pump strength of a set, so the
bracket checks at both bounds and the whole scan of every point of one n
take one call.  ``optimize_lambda`` is a sweep of one point, and sweeps
that share a source, a logic and ``v_d`` can be solved as one, as
``tables.reproduce_tables`` solves all the sweeps of a run.

The transmission matrix of a grid point is the outer product of the ranked
arm transmissions and the window column, and the router tree gives only
``log2 m + 1`` distinct arm values.  A sweep therefore builds the distinct
arm values with their run starts once per m and the window column once per
n, and each grid point's ``RowRuns`` from them, the arm rows times the
window column (``RowRuns`` merges rows that come out equal); no m x n
matrix is built.  The scan's pump strengths depend on the bounds only, so
a sweep builds them once per n too.

Cost of a solve: one kernel call per window count n (and pair of bounds),
of its grid points against their 34 shared pump strengths (the four
bracket-check points and the 30 inner scan points), then one call per round
of Brent steps, each round one pump strength for every peak of every point
still refining.  The rounds number as many as the steps of the slowest
peak, where each point takes about 9.  A full ``photonmux tables`` run
solves its 50 sweeps and 1,244 grid points as one, in 10 scan calls and 16
rounds.  A call's cost is numpy dispatch more than arithmetic, and it is
shared: the kernel contracts each chunk of a call in one pass, with one
window product per point, so a point in a round or a scan costs a
fraction of a call of its own.  A second peak that the scan resolves
refines in the same rounds as the first.
"""

from __future__ import annotations

import math
import reprlib
import warnings
from dataclasses import dataclass
from typing import Callable, Generator, Iterator, NamedTuple, Sequence

import numpy as np

# build_matrix, herald_convolve and single_photon_probability are not called
# here.  The benchmark's traced mode (bench/workloads.py, rebinding_targets)
# rebinds all three names on this module, so they stay importable.
from .engine import p1_evaluator, single_photon_probability  # noqa: F401
from .statistics import SourceKind, herald_convolve  # noqa: F401
from .transmission import (  # noqa: F401
    _GRID_MAX,
    LossParameters,
    PriorityLogic,
    RowRuns,
    _arm_runs,
    _count,
    _number,
    _size,
    _typed,
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


def _grid_values(name: str, raw: tuple, rule: str) -> tuple[int, ...]:
    """``raw`` as Python ints, each a size of the built-in geometry (``_size``).

    Raises:
        ValueError: ``{name} must hold {rule}, got {raw}``, or ``integers >= 1``
            in place of ``rule`` for a value that is no such integer.
    """
    try:
        values = tuple(_count(name, x) for x in raw)
    except ValueError as exc:
        raise ValueError(f"{name} must hold integers >= 1, got {raw}") from exc
    try:
        return tuple(_size(name, x) for x in values)
    except ValueError as exc:
        raise ValueError(f"{name} must hold {rule}, got {raw}") from exc


@dataclass(frozen=True)
class SweepSpec:
    """Grid and physics of one optimization sweep.

    A spec refuses mistyped physics when it is built: ``params`` must be a
    ``LossParameters``, ``source_kind`` a ``SourceKind``, ``logic`` a
    ``PriorityLogic`` and ``lambda_bounds`` a ``(lo, hi)`` pair or None, so
    a string never stands in for an enum member.  A sweep checks every grid
    point's bounds before it refines any peak, and raises the first
    point's ``BracketError`` in grid order.
    """

    m_values: tuple[int, ...]
    n_values: tuple[int, ...]
    params: LossParameters
    source_kind: SourceKind = SourceKind.POISSONIAN
    logic: PriorityLogic = PriorityLogic.LOWEST_LOSS
    lambda_bounds: tuple[float, float] | None = None

    def __post_init__(self):
        for name, kind in (("params", LossParameters), ("source_kind", SourceKind), ("logic", PriorityLogic)):
            _typed(name, getattr(self, name), kind)
        for name in ("m_values", "n_values"):
            raw = tuple(getattr(self, name))
            rule = f"distinct powers of 2 up to {_GRID_MAX}, at least one"
            values = _grid_values(name, raw, rule)
            if not (values and len(set(values)) == len(values)):
                raise ValueError(f"{name} must hold {rule}, got {raw}")
            object.__setattr__(self, name, values)
        bounds = self.lambda_bounds
        if bounds is not None:
            try:
                lo, hi = bounds
            except (TypeError, ValueError):
                raise ValueError(f"lambda_bounds must be a (lo, hi) pair or None, got {reprlib.repr(bounds)}") from None
            lo, hi = (_number(f"lambda_bounds[{i}]", x, math.inf) for i, x in enumerate((lo, hi)))
            if not lo < hi:
                raise ValueError(f"lambda_bounds must satisfy lo < hi, got ({lo!r}, {hi!r})")
            _scan_grid(lo, hi)  # refuses bounds whose scan is not finite
            object.__setattr__(self, "lambda_bounds", (lo, hi))


class Optimum(NamedTuple):
    """The best grid point of a sweep, with its pump strength and single-photon probability."""

    m: int
    n: int
    lambda_opt: float
    p1: float

    @property
    def size(self) -> int:
        """``m * n``: the optimal n of a time sweep, the optimal m of a spatial sweep."""
        return self.m * self.n


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
    def best(self) -> Optimum:
        """The ``Optimum`` of highest p1; exact ties in p1 prefer smaller m*n, then smaller m."""

        def rank(item):
            (m, n), (_, p1) = item
            return p1, -m * n, -m

        (m, n), (lam, p1) = max(self.surface.items(), key=rank)
        return Optimum(m, n, lam, p1)


def _scan_grid(lo: float, hi: float) -> np.ndarray:
    """The scan's pump strengths, read-only: the grid in increasing order, then the sign checks.

    The grid is ``lo``, ``COARSE_POINTS - 2`` logarithmically spaced inner
    points and ``hi``; the sign checks are ``lo + step`` and ``hi - step``.
    The array depends on the bounds only, so a sweep builds it once per n.

    Raises:
        ValueError: a point is not finite, as when ``hi * 1e-12`` underflows
            to 0 at ``lo = 0`` or ``hi / lo`` overflows.
    """
    step = (hi - lo) * 1e-6
    grid_lo = lo if lo > 0.0 else hi * 1e-12
    ratio = hi / grid_lo if grid_lo > 0.0 else math.inf
    inner = [grid_lo * ratio ** (i / (COARSE_POINTS - 1)) for i in range(1, COARSE_POINTS - 1)]
    scan = np.array([lo, *inner, hi, lo + step, hi - step])
    if not np.isfinite(scan).all():
        raise ValueError(
            f"lambda_bounds must give a pump-strength scan of finite points, got ({lo!r}, {hi!r})"
        )
    scan.setflags(write=False)
    return scan


def _maximize(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], scans: Sequence[tuple[np.ndarray, Sequence[int]]]
) -> list[list[tuple[float, float]]]:
    """Locate every peak that each point's scan resolves, each to ``LAMBDA_TOL`` in x.

    Each entry of ``scans`` is a ``_scan_grid(lo, hi)`` and the indices of
    the points that take it, the points numbered ``0 .. P-1`` over all the
    entries.  ``f(points, xs)`` maps point indices and x values to the
    values of f in the two forms of ``engine.p1_evaluator``: two 1-D arrays
    of one length, one value per (point, x) pair, or one entry's points of
    shape (P, 1) and its scan of shape (1, K), one value per (point, x) of
    the two.  Each point's bounds are validated by a finite-difference sign
    check at both endpoints.
    Each strict local maximum of the coarse logarithmic grid of
    ``COARSE_POINTS`` brackets a peak between its two neighbours, and a
    Brent step refines each one until the bracket is at most ``LAMBDA_TOL``
    wide.  ``f`` need not be unimodal, and the single-photon probability is
    not always (two local maxima in x at 1,729 of 10,920 random grid
    points).  A second peak that the grid's points do not resolve is not
    refined, and no fixed grid rules one out.  The sign checks and grids of
    each entry's points take one call of ``f``; then the Brent steps of
    every peak of every point advance in lock-step, one call of ``f`` per
    round for all the peaks still refining.

    Returns:
        Each point's peaks in point order, one ``(x, f(x))`` per refined
        peak, as Python floats, ``x`` the best point evaluated in its
        bracket; the best grid point's peak first.

    Raises:
        BracketError: at the first point where ``f`` does not increase away
            from ``lo`` or does not decrease toward ``hi``, before any peak
            is refined.
    """
    scanned = {}
    for scan, members in scans:
        xs, values = scan.tolist(), f(np.array(members)[:, None], scan[None, :]).tolist()
        scanned.update((i, (xs, ys)) for i, ys in zip(members, values))
    brackets = [_brackets(*scanned[i]) for i in range(len(scanned))]
    peaks: list[list] = [[None] * len(point) for point in brackets]
    # (point, peak, Brent step, its next x)
    active = [(i, k, _brent(*bracket), None) for i, point in enumerate(brackets) for k, bracket in enumerate(point)]
    values = [None] * len(active)
    while active:
        refining = []
        for (i, k, brent, _), fu in zip(active, values):
            try:
                refining.append((i, k, brent, brent.send(fu)))
            except StopIteration as done:
                peaks[i][k] = done.value
        active = refining
        if active:
            points, xs = zip(*((i, u) for i, _, _, u in active))
            values = f(np.array(points), np.array(xs)).tolist()
    return peaks


def _brackets(scan: list[float], ys: list[float]) -> list[tuple[float, float, float, float]]:
    """``(a, b, x, f(x))`` of each peak that a scan resolves, the best grid point's first.

    ``scan`` is a ``_scan_grid`` and ``ys`` the values there.  A failed sign
    check names its cause when the check cannot see the slope at its bound:
    the values at the bound and at the check point are both 0, as when they
    underflow, or the check point lies past the best grid point, which is
    not the bound, as when ``step`` spans several grid points.
    """
    xs, checks = scan[:COARSE_POINTS], scan[COARSE_POINTS:]
    ys, f_checks = ys[:COARSE_POINTS], ys[COARSE_POINTS:]
    best = max(range(COARSE_POINTS), key=ys.__getitem__)
    sides = ((0, "increasing at lower", "lo + step", 1), (-1, "decreasing at upper", "hi - step", -1))
    for (end, trend, name, sign), check, f_check in zip(sides, checks, f_checks):
        if not f_check > ys[end]:
            message = f"objective not {trend} bound {xs[end]}"
            if f_check == ys[end] == 0.0:
                message += f": it is 0 there and at the check point {name} = {check}, as when it underflows"
            elif xs[best] != xs[end] and sign * (check - xs[best]) > 0.0:
                message += f": the check point {name} = {check} lies past the best scan point {xs[best]}"
            raise BracketError(message)
    # Padded so that a bracket stops at the bound and a bound's outer neighbour is lower.
    x_pad, y_pad = [xs[0], *xs, xs[-1]], [-math.inf, *ys, -math.inf]
    others = [i for i in range(COARSE_POINTS) if i != best and y_pad[i] < ys[i] > y_pad[i + 2]]
    return [(x_pad[i], x_pad[i + 2], xs[i], ys[i]) for i in (best, *others)]


def _brent(a: float, b: float, x: float, fx: float) -> Generator[float, float, tuple[float, float]]:
    """Brent's maximization on [a, b] from an interior point ``x`` with ``f(x) = fx``.

    A generator: it yields each point ``u`` to evaluate and is sent
    ``f(u)`` back, and it returns the result.  Each step fits a parabola
    through the three best points and moves to its vertex; a golden-section
    step into the larger segment replaces it when the vertex leaves the
    bracket or the steps stop shrinking.  Steps are at least ``_MIN_STEP``
    long.  Stops once ``b - a <= LAMBDA_TOL``; ``x`` is the best point
    evaluated and stays inside the bracket.
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
        fu = yield u
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


def _row_runs(params: LossParameters, points: list[tuple[int, int]]) -> list[RowRuns]:
    """``build_matrix(...).row_runs`` at each (m, n) point, from the arm runs and the window column.

    Each m's arm runs and each n's window column are built once.  Distinct
    arm values can still give equal rows (a zero window column, or products
    that round alike); ``RowRuns`` merges those as the matrix's own.
    """
    arms = {m: _arm_runs(params, m) for m in dict.fromkeys(m for m, _ in points)}
    columns = {n: _window_column(params, n) for n in dict.fromkeys(n for _, n in points)}
    return [RowRuns(rows=arms[m].rows * columns[n], starts=arms[m].starts, ranks=m) for m, n in points]


def _grid_points(spec: SweepSpec) -> list[tuple[int, int]]:
    """Every (m, n) grid point of ``spec``, m-major: the order of a sweep's surface."""
    return [(m, n) for m in spec.m_values for n in spec.n_values]


def _solve(groups: Sequence[tuple[SweepSpec, list[tuple[int, int]]]]) -> Iterator[list[tuple[float, float]]]:
    """Each point's refined peaks, group by group in point order, every peak of every group in lock-step.

    Each group is a spec and the points solved under it; the groups share
    one source, logic and ``v_d``, since one P(1) kernel serves all their
    points.  Each loss set's row runs come from one ``_row_runs`` call
    over all the points that use it, and each scan, one per pair of
    explicit or default bounds and n, is built once and takes one call for
    every point that uses it, whichever its group.  A generator that does
    all its work, every scan and every round, before it yields the first
    point's peaks; a ``BracketError`` comes before any peak is refined.

    Raises:
        ValueError: the groups' specs differ in source, logic or ``v_d``,
            before anything is built.
    """
    physics = {(spec.source_kind, spec.logic, spec.params.v_d) for spec, _ in groups}
    if len(physics) > 1:
        given = sorted((kind.value, logic.value, v_d) for kind, logic, v_d in physics)
        raise ValueError(f"specs solved together must share source, logic and v_d, got {given}")
    points: list[tuple[int, int]] = []
    by_losses: dict[LossParameters, list[int]] = {}
    members: dict[tuple, list[int]] = {}  # (explicit bounds or None, n) -> point indices
    for spec, group in groups:
        indices = range(len(points), len(points) + len(group))
        by_losses.setdefault(spec.params, []).extend(indices)
        for i, (_, n) in zip(indices, group):
            members.setdefault((spec.lambda_bounds, n), []).append(i)
        points += group
    runs: list = [None] * len(points)
    for params, indices in by_losses.items():
        for i, row_runs in zip(indices, _row_runs(params, [points[i] for i in indices])):
            runs[i] = row_runs
    kind, logic, v_d = physics.pop()
    kernel = p1_evaluator(kind, v_d, runs, logic)
    windows = np.array([n for _, n in points], dtype=float)

    def objective(i: np.ndarray, lams: np.ndarray) -> np.ndarray:
        # An outer call's points share their n, so their means stay one row.
        return kernel(i, lams / windows[i[0] if i.ndim == 2 else i])

    scans = [(_scan_grid(*(bounds or (1e-4, 10.0 * n))), group) for (bounds, n), group in members.items()]
    yield from _maximize(objective, scans)


def optimize_lambda(
    point: tuple[int, int],
    spec: SweepSpec,
    *,
    _refined: Iterator[list[tuple[float, float]]] | None = None,
) -> tuple[float, float]:
    """Pump strength maximizing the single-photon probability at one (m, n) point.

    The best of the peaks that ``_maximize`` refines wins, the first on a
    tie.  A scan that sees more than one peak raises a warning that names
    the grid point, the logic and each refined peak's pump strength and
    P(1), so Python's default filter shows it once per grid point.

    ``sweep`` passes ``_refined``, the ``_solve`` of its whole grid (or of
    several sweeps at once), and calls this function once per grid point through the module's own name,
    so a profiler or tracer that wraps ``optimize_lambda`` (the benchmark's
    traced mode does) still sees every point, and the first point's call
    holds the sweep's scans and rounds.

    Returns:
        ``(lambda_opt, p1)`` with ``lambda_opt`` resolved to absolute 1e-5.

    Raises:
        ValueError: ``spec`` is not a ``SweepSpec``, or ``m`` or ``n`` breaks
            the size rule of the built-in builders (a power of 2 up to 4096),
            before anything is built.
    """
    _typed("spec", spec, SweepSpec)
    point, rule = tuple(point), f"two powers of 2 up to {_GRID_MAX}"
    if len(point) != 2:
        raise ValueError(f"point must hold {rule}, got {point}")
    m, n = _grid_values("point", point, rule)
    peaks = next(_solve([(spec, [(m, n)])]) if _refined is None else _refined)
    if len(peaks) > 1:
        refined = ", ".join(f"({lam:.6g}, {p1:.6g})" for lam, p1 in peaks)
        warnings.warn(
            f"coarse scan found {len(peaks)} local maxima at (m, n) = ({m}, {n}), "
            f"{spec.logic.value}; refined to (lambda, p1) = {refined}",
            stacklevel=2,
        )
    return max(peaks, key=lambda peak: peak[1])


def sweep(
    spec: SweepSpec,
    *,
    _refined: Iterator[list[tuple[float, float]]] | None = None,
) -> OptimizationResult:
    """Optimize the pump strength at every (m, n) grid point, as ``optimize_lambda`` does at each.

    The points' scans take one call per n, and their refinements run in
    lock-step, one call per round of Brent steps; every optimum is bit for
    bit the one ``optimize_lambda`` gives alone.

    A caller that solves several sweeps in one ``_solve`` (as
    ``tables.reproduce_tables`` does) passes each sweep its part of the
    stream as ``_refined``, the next of the spec's grid points in surface
    order, and still calls this function once per sweep, so a profiler or
    tracer that wraps ``sweep`` (the benchmark's traced mode does) still
    sees every sweep.
    """
    points = _grid_points(spec)
    refined = _solve([(spec, points)]) if _refined is None else _refined
    return OptimizationResult(surface={point: optimize_lambda(point, spec, _refined=refined) for point in points})
