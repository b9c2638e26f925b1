"""Exact output photon-number distribution of the combined multiplexer.

For a heralded input ``(p0, pj)`` per (arm, window) cell and net transmissions
``V[k, n]``, the probability of ``i`` output photons is

    P(i) = p0^(M*N) [i = 0]
         + sum_{j,k,n}  C(j, i) W(k, n) pj[j] V[k,n]^i (1 - V[k,n])^(j-i)

where the priority weight ``W(k, n)`` is ``p0^(N*k + n)`` for the lowest-loss
logic (the best-ranked heralded arm wins at the period's end) and
``p0^(M*n + k)`` for the first-detection logic (the earliest heralded window
wins), with 0-based ``k`` and ``n``.  Both weightings enumerate the exponents
``0 .. M*N-1`` exactly once, which makes the distribution normalize by a
geometric telescoping argument.

Both weightings factor as ``W(k, n) = a[k] b[n]``: ``a[k] = p0^(N*k)``,
``b[n] = p0^n`` for lowest-loss and ``a[k] = p0^k``, ``b[n] = p0^(M*n)`` for
first-detection.  Ranks whose rows of ``V`` are identical contribute the same
cell terms, so the sum over ``k`` runs over the matrix's runs of consecutive
identical rows, each weighted by ``A[r]``, the sum of ``a[k]`` over its ranks:

    P(i) = sum_r A[r] sum_n F_i[r, n] b[n]

with ``F_i`` the ``j``-series of one cell.  An evaluation therefore costs
(distinct rows) x N cells, not M x N: the built-in router tree has
``log2 M + 1`` distinct arm transmissions.  Equal rows that are not adjacent
stay separate runs, so any externally built matrix takes the same path.

Thinning keeps a Poissonian source Poissonian and a thermal source thermal:
losing each photon independently with probability ``1 - v`` turns a source
of mean ``mu`` into one of mean ``mu v``, and the no-click part of the
heralding, ``P'(j) (1 - v_d)^j``, equals ``p0`` times the source's own pmf at
the mean ``mu'``:

    source       mu'                         p0
    Poissonian   mu (1 - v_d)                exp(-mu v_d)
    thermal      mu (1 - v_d) / (1 + mu v_d)  1 / (1 + mu v_d)

So the ``j``-series of a cell sums in closed form.  For one output photon,

    F_1(v) = T(1; mu v) - p0 T(1; mu' v)

with ``T(1; x) = x e^-x`` (Poissonian) or ``x / (1 + x)^2`` (thermal), the
probability that the thinned source delivers exactly one photon.
``p1_evaluator`` evaluates P(1) this way, with no input truncation, for
any pairs of a geometry and a per-window mean at once.  It takes only the
row runs of each geometry and the priority logic.  The optimizer uses it
as its one kernel for a whole sweep, on row runs that it builds from the
per-arm and per-window factors without the full matrix: a point's scan is
one call of 34 means at that point, and a round of Brent steps one call of
a mean for each point still refining.  The pairs are evaluated in chunks
of at most ``2^15`` cells (row runs x windows per pair, or one pair if that
has more).  A chunk stacks the thinned means ``mu v`` and ``mu' v`` and
takes ``T`` of both in one in-place pass, inside two work arrays that the
evaluator allocates once.  The means arrive negated, as ``exp`` takes them,
from one product of the means with ``-1`` and ``-(1 - v_d)``: IEEE
negation is exact, so ``-T`` comes out bit for bit, and the subtraction
``-p0 T(mu' v) - (-T(mu v))`` gives ``F_1`` with no pass of its own to
restore the sign.

A chunk of one point broadcasts its means over the point's rows, as it
always has.  A chunk of several points lays their rows and exponents end
to end and runs each elementwise pass once over all of them: the thinned
means, ``T``, the ``p0`` product and the weight ``exp``, each pair's mean,
``p0`` and ``log p0`` repeated over its own cells or exponents.  Only the
contraction stays one batched product per point, over that point's
consecutive pairs, so every value is bit for bit the one that its pair
gives alone.  Besides the work arrays, such a chunk allocates one array of
up to chunk size at a time: the repeated means, then the repeated ``p0``.

The two evaluators differ only in how they build cell terms: the ``j``-series
stacks ``F_i`` over ``i``, the closed form stacks ``F_1`` over the means.  Both
take their priority weights in the exponential form ``p0^e = exp(e log p0)``,
one ``exp`` over the rank exponents followed by the window exponents, with
``log p0`` from the heralded input or from the source (``-mu v_d`` or
``-log1p(mu v_d)``): the factored exponents reach about ``M*N`` (130,560 at
M = 256, N = 512), where ``exp`` is cheaper than ``power``.  Both contract
their stacked cells with the window and run weights in one batched matrix
product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .statistics import HeraldedInputDistribution, SourceKind
from .transmission import MultiplexerLayout, PriorityLogic, RowRuns, TransmissionMatrix, _count

DEFAULT_I_MAX = 10

# Cells (row runs x windows x means) per chunk of a batched P(1) evaluation.
_CHUNK_CELLS = 1 << 15


@dataclass(frozen=True)
class PhotonNumberDistribution:
    """Truncated photon-number probabilities with a certified tail bound.

    ``probs[i]`` is the probability of ``i`` output photons for
    ``i = 0 .. i_max``; ``tail_bound`` bounds the mass beyond ``i_max``
    (including any truncation of the input distribution).  An empirical
    distribution from the Monte-Carlo sampler holds every observed count
    and has a zero tail bound.
    """

    probs: np.ndarray
    tail_bound: float

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1:
            raise ValueError(f"probs must be a vector, got shape {probs.shape}")
        if not np.all((0.0 <= probs) & (probs <= 1.0)):
            raise ValueError("probabilities must lie in [0, 1]")
        if not self.tail_bound >= 0.0:
            raise ValueError(f"tail_bound must be >= 0, got {self.tail_bound}")
        total = float(np.sum(probs)) + self.tail_bound
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"sum(probs) + tail_bound = {total!r} deviates from 1 beyond 1e-10")

    @property
    def i_max(self) -> int:
        """Largest photon number held in ``probs``."""
        return self.probs.size - 1


def _weight_exponents(runs: RowRuns, logic: PriorityLogic) -> np.ndarray:
    """Exponents of ``p0`` in the rank factors ``a[k]``, then in the window factors ``b[n]``."""
    m, n = runs.ranks, runs.rows.shape[1]
    ranks, windows = np.arange(m, dtype=float), np.arange(n, dtype=float)
    if logic is PriorityLogic.FIRST_DETECTION:
        return np.concatenate((ranks, m * windows))
    return np.concatenate((n * ranks, windows))


def _priority_weights(weights: np.ndarray, runs: RowRuns) -> tuple[np.ndarray, np.ndarray]:
    """Weight of each row run (summed over its ranks) and of each window, from ``exp(e log p0)``.

    ``weights`` holds ``exp(e log p0)`` at the ``runs.ranks`` rank exponents
    followed by the window exponents, along its last axis.
    """
    return np.add.reduceat(weights[..., : runs.ranks], runs.starts, axis=-1), weights[..., runs.ranks :]


def _contract(cells: np.ndarray, run_weights: np.ndarray, window_weights: np.ndarray) -> np.ndarray:
    """``sum_r A[..., r] sum_n b[..., n] cells[..., r, n]`` over stacked ``(runs, windows)`` cells."""
    return ((cells @ window_weights[..., None])[..., 0] * run_weights).sum(axis=-1)


def _horner(x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The polynomial ``sum_t coeffs[t] x^t`` at every entry of ``x`` (broadcasts against ``x``)."""
    coeffs = coeffs.tolist()
    out = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        out = out * x + c
    return out


def output_distribution(
    heralded: HeraldedInputDistribution,
    tm: TransmissionMatrix,
    layout: MultiplexerLayout,
    i_max: int = DEFAULT_I_MAX,
) -> PhotonNumberDistribution:
    """Photon-number distribution at the multiplexer output, truncated at ``i_max``.

    Args:
        heralded: per-window heralded input statistics.
        tm: net transmission matrix; any externally built matrix of matching
            shape is accepted, the rows being taken as the arm priority order.
        layout: geometry and priority logic.
        i_max: largest photon number evaluated.  Bins above the input's
            truncation order ``j_max`` are 0.

    The returned ``tail_bound`` certifies both the output truncation at
    ``i_max`` and the propagated input truncation at ``j_max``, which holds
    the mass of any bin above ``j_max``.
    """
    m, n = layout.m, layout.n
    if tm.shape != (m, n):
        raise ValueError(f"transmission matrix of shape {tm.shape} does not match layout ({m}, {n})")
    i_max = _count("i_max", i_max)
    p0 = heralded.p0
    runs = tm.row_runs
    # At p0 = 0, log p0 = -inf would make the weight at exponent 0 NaN; any
    # log below -745 keeps that weight 1 and underflows every other to 0.
    log_p0 = math.log(p0) if p0 > 0.0 else -1e3
    weights = np.exp(log_p0 * _weight_exponents(runs, layout.logic))
    run_weights, window_weights = _priority_weights(weights, runs)
    v = runs.rows
    x = 1.0 - v
    j_max = heralded.j_max
    js = np.arange(j_max + 1)
    pj = np.concatenate(([0.0], heralded.pj))
    terms = []
    v_pow = np.ones_like(v)
    comb = np.ones(j_max + 1)  # C(j, i), exact while below 2^53
    for i in range(min(i_max, j_max) + 1):
        terms.append(v_pow * _horner(x, (comb * pj)[i:]))
        v_pow = v_pow * v
        comb = comb * (js - i) / (i + 1)
    # Bins above j_max stay 0: their mass is part of the input tail bound.
    probs = np.zeros(i_max + 1)
    probs[: len(terms)] = _contract(np.stack(terms), run_weights, window_weights)
    p0_all = p0 ** (m * n)
    probs[0] += p0_all
    # Mass accounting: everything the truncated sums can reach, minus what
    # landed in probs, is output-truncation mass; the input truncation adds
    # at most sum(W) * tail_bound.
    weight_sum = float(np.sum(run_weights)) * float(np.sum(window_weights))
    included = p0_all + weight_sum * float(np.sum(heralded.pj))
    output_truncated = max(included - float(np.sum(probs)), 0.0)
    tail_bound = output_truncated + weight_sum * heralded.tail_bound
    return PhotonNumberDistribution(probs=np.clip(probs, 0.0, 1.0), tail_bound=tail_bound)


def single_photon_probability(
    heralded: HeraldedInputDistribution,
    tm: TransmissionMatrix,
    layout: MultiplexerLayout,
) -> float:
    """P(exactly one output photon): ``output_distribution(...).probs[1]``."""
    return float(output_distribution(heralded, tm, layout, i_max=1).probs[1])


def _one_photon(kind: SourceKind, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``-T(1; x)`` at ``y = -x``: minus the probability that a source of mean ``x`` gives 1 photon.

    Computed in ``out``, of the shape of ``y``: ``y / (1 - y)^2`` (thermal)
    or ``y e^y`` (Poissonian).  IEEE negation is exact, so each entry is
    ``-(x / (1 + x)^2)`` or ``-(x e^-x)`` bit for bit.
    """
    if kind is SourceKind.THERMAL:
        np.subtract(1.0, y, out=out)
        np.square(out, out=out)
        return np.divide(y, out, out=out)
    np.exp(y, out=out)
    return np.multiply(y, out, out=out)


def p1_evaluator(
    kind: SourceKind,
    v_d: float,
    runs: Sequence[RowRuns],
    logic: PriorityLogic,
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """P(exactly one output photon) at pairs of a geometry and a per-window mean pair number.

    Each entry of ``runs`` states one geometry: ``ranks`` arms by
    ``rows.shape[1]`` windows.  The returned function maps two 1-D arrays of
    one length, indices ``points`` into ``runs`` and per-window means
    ``mu``, to the array of P(1) of each (point, mean) pair, by the thinning
    identity, with the heralding detector efficiency ``v_d``.  Each entry is
    the value that its pair alone gives, whatever else the arrays hold.  The
    function reuses its own work arrays, so it serves one thread at a time.
    """
    runs = tuple(runs)
    rows = [r.rows.reshape(-1) for r in runs]
    exponents = [_weight_exponents(r, logic) for r in runs]
    cell_counts, weight_counts = (np.array([a.size for a in x]) for x in (rows, exponents))
    thermal = kind is SourceKind.THERMAL
    # One product of these columns with the means gives -mu, -mu (1 - v_d)
    # and mu v_d (thermal) or log p0 = -mu v_d (Poissonian), each bit for bit
    # the negated product.
    coeffs = np.array([-1.0, -(1.0 - v_d), v_d if thermal else -v_d])[:, None]
    # Every chunk works in these two arrays: the negated thinned means of
    # both sources and -T at them, the source's own means first.
    means, cells = np.empty((2, 2 * max(_CHUNK_CELLS, int(cell_counts.max(initial=0)))))

    def chunk(points: np.ndarray, mu: np.ndarray) -> np.ndarray:
        scaled = coeffs * mu
        neg_missed_means, detected = scaled[1], scaled[2]
        if thermal:
            log_p0 = -np.log1p(detected)
            p0 = 1.0 / (1.0 + detected)
            neg_missed_means *= p0
        else:
            log_p0 = detected
            p0 = np.exp(log_p0)
        order = points.tolist()
        if len(set(order)) == 1:
            # One point: its rows and exponents broadcast over the means.
            thinned = means[: 2 * mu.size * rows[order[0]].size].reshape(2, mu.size, -1)
            np.multiply(scaled[:2, :, None], rows[order[0]], out=thinned)
            exps = exponents[order[0]]

            def spread(x: np.ndarray, counts: np.ndarray) -> np.ndarray:
                return x[:, None]

        else:
            # Several points: their rows and exponents end to end, each pair's
            # values repeated over its own, one repeat alive at a time.
            def spread(x: np.ndarray, counts: np.ndarray) -> np.ndarray:
                return np.repeat(x, counts[points])

            thinned = means[: 2 * cell_counts[points].sum()].reshape(2, -1)
            np.concatenate([rows[i] for i in order], out=thinned[0])
            np.multiply(thinned[0], spread(scaled[1], cell_counts), out=thinned[1])
            thinned[0] *= spread(scaled[0], cell_counts)
            exps = np.concatenate([exponents[i] for i in order])
        f1, missed = _one_photon(kind, thinned, cells[: thinned.size].reshape(thinned.shape))
        missed *= spread(p0, cell_counts)
        np.subtract(missed, f1, out=f1)  # -p0 T(mu' v) + T(mu v) = F_1
        f1, weights = f1.reshape(-1), np.exp(spread(log_p0, weight_counts) * exps).reshape(-1)
        # One batched contraction per point, over its consecutive pairs.
        out = np.empty(len(order))
        lo = cell_at = weight_at = 0
        for hi in range(1, len(order) + 1):
            if hi < len(order) and order[hi] == order[lo]:
                continue
            point, pairs = runs[order[lo]], hi - lo
            group_cells = f1[cell_at : cell_at + pairs * point.rows.size]
            group_weights = weights[weight_at : weight_at + pairs * exponents[order[lo]].size]
            out[lo:hi] = _contract(
                group_cells.reshape(pairs, *point.rows.shape),
                *_priority_weights(group_weights.reshape(pairs, -1), point),
            )
            lo, cell_at, weight_at = hi, cell_at + group_cells.size, weight_at + group_weights.size
        return out

    def p1(points: np.ndarray, mu: np.ndarray) -> np.ndarray:
        points, mu = np.asarray(points), np.asarray(mu, dtype=float)
        if mu.ndim != 1 or points.shape != mu.shape:
            raise ValueError(f"points and means must be 1-D arrays of one length, got {points.shape}, {mu.shape}")
        if not mu.size:
            return np.zeros(0)
        ends = cell_counts[points].cumsum()
        if ends[-1] <= _CHUNK_CELLS:
            return chunk(points, mu)
        out = np.empty(mu.size)
        lo = 0
        while lo < mu.size:
            # The pairs whose cells fit in one chunk, at least one pair.
            hi = int(ends.searchsorted(ends[lo] - cell_counts[points[lo]] + _CHUNK_CELLS, "right"))
            hi = max(hi, lo + 1)
            out[lo:hi] = chunk(points[lo:hi], mu[lo:hi])
            lo = hi
        return out

    return p1
