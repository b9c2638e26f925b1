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
many pairs of a geometry and a per-window mean at once.  It takes only the
row runs of each geometry and the priority logic.  The optimizer uses it
as its one kernel for a whole sweep, on row runs that it builds from the
per-arm and per-window factors without the full matrix.  The kernel takes
two forms of call, one per phase of the optimizer, each with its own
layout:

- outer, for the scans: P points against K shared means, every (point,
  mean) of the two.  The points of one window count share their 34 scan
  means, so all of them take one call.  A chunk lays the points' rows and
  exponents end to end and broadcasts the means over them.
- pairs, for the rounds of Brent steps: one (point, mean) per entry, a
  mean for each peak still refining.  A chunk lays the pairs' rows and
  exponents end to end, each pair's mean, ``p0`` and ``log p0`` repeated
  over its own cells or exponents.  Besides the work arrays, its
  elementwise passes allocate one array of up to chunk size at a time:
  the repeated means, then the repeated ``p0``.

Either way a chunk holds at most ``2^15`` cells (row runs x windows x
means, or one point and one mean if that has more), stacks the thinned
means ``mu v`` and ``mu' v`` and takes ``T`` of both in one in-place pass,
inside two work arrays that the evaluator allocates once, and runs each
elementwise pass once over all its cells: the thinned means, ``T``, the
``p0`` product and the weight ``exp``.  The means arrive negated, as
``exp`` takes them, from one product of the means with ``-1`` and
``-(1 - v_d)``: IEEE negation is exact, so ``-T`` comes out bit for bit,
and the subtraction ``-p0 T(mu' v) - (-T(mu v))`` gives ``F_1`` with no
pass of its own to restore the sign.

Each outer call runs its passes under a ufunc buffer of ``_BUFSIZE``
elements and sets the caller's buffer size back when it returns or raises.
numpy buffers a broadcast operand whenever the inner axis is shorter than
the buffer: the outer form's thinning product of a (means, 1) column
against the cells, its ``p0`` product and its weight exponents all do, and
under numpy's default buffer of 8192 elements such a pass runs several
times slower than under a small one.  An elementwise pass gives the same
values under any buffer, so no P(1) depends on it.  A pairs call repeats
each pair's values over its own cells, broadcasts no column, and keeps the
caller's buffer, as ``output_distribution`` does.

Both evaluators take their priority weights in the exponential form
``p0^e = exp(e log p0)``, one ``exp`` over the rank exponents followed by
the window exponents, with ``log p0`` from the heralded input or from the
source (``-mu v_d`` or ``-log1p(mu v_d)``): the factored exponents reach
about ``M*N`` (130,560 at M = 256, N = 512), where ``exp`` is cheaper than
``power``.  Both lay out each geometry the same way (``_geometry``) and
contract in one function, ``_contract``, and differ only in their cell
terms: ``output_distribution`` passes its ``j``-series stack, ``F_i`` for
each ``i``, as the rows of one entry against one row of weights; the
kernel passes ``F_1`` of its chunk's entries, one row per mean.  The
contraction takes three steps, with the entries end to end along the last
axis:

- run weights: one ``np.add.reduceat`` over the weights gives every
  entry's run weights, at segments that start at the entry's run starts
  and at its window part, offset by its place in the chunk;
- window products: each entry takes its own product of its cells with its
  window weights and writes the row sums into a flat buffer, after a 0 of
  its own.  With one row of cells and of weights, as in a pairs chunk, the
  product is one BLAS ``np.dot`` per entry; with several rows (an outer
  chunk, or the ``i`` stack) it is a batched ``matmul``, which makes the
  same BLAS call per row, so both give the same bits.  The product's last
  bits depend on its shape, so it stays per entry;
- sums: one more ``reduceat`` over the row sums times the run weights
  gives every value.  Each entry's segment starts with its 0, so it adds
  in the order of a sum over the last axis, which starts from the
  identity 0: a plain ``reduceat`` starts from the first term and often
  differs in the last bits.

So every P(1) of the kernel is bit for bit the one that its pair gives
alone, and a chunk's contraction costs a fixed part and one product per
entry.  Besides the weights, the contraction allocates two arrays of (row
runs + 1) values per entry and row, the run weights and the row sums,
beside the (row runs x windows) cells.

The window product needs each entry's cells and weights contiguous along
the window axis, as slices of the chunk's arrays are: a gathered copy such
as ``w[:, idx]`` is column-major, and a contraction fed with it changed
P(1) in the last bits at m = 1 points (``np.take(w, idx, axis=1)`` did
not).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .statistics import HeraldedInputDistribution, SourceKind
from .transmission import MultiplexerLayout, PriorityLogic, RowRuns, TransmissionMatrix, _count

DEFAULT_I_MAX = 10

# Cells (row runs x windows x means) per chunk of a batched P(1) evaluation.
_CHUNK_CELLS = 1 << 15
# Elements per ufunc buffer while an outer P(1) kernel call runs (see the module docstring).
_BUFSIZE = 1024


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


def _geometry(runs: RowRuns, logic: PriorityLogic) -> tuple[np.ndarray, list[int], tuple[int, int, int]]:
    """A geometry's weight exponents, its ``reduceat`` starts and its ``(runs, windows, exponents)`` shape.

    The exponents of ``p0`` are those of the rank factors ``a[k]``, then
    those of the window factors ``b[n]``.  The starts are the run starts,
    then the start of the window exponents, ``runs.ranks``.
    """
    m, (r, n) = runs.ranks, runs.rows.shape
    ranks, windows = np.arange(m, dtype=float), np.arange(n, dtype=float)
    if logic is PriorityLogic.FIRST_DETECTION:
        exponents = np.concatenate((ranks, m * windows))
    else:
        exponents = np.concatenate((n * ranks, windows))
    return exponents, [*runs.starts.tolist(), m], (r, n, m + n)


def _contract(
    cells: np.ndarray, weights: np.ndarray, starts: Sequence[int], shapes: Sequence[tuple[int, int, int]]
) -> tuple[np.ndarray, np.ndarray]:
    """``sum_r A[r] sum_n b[n] cells[r, n]`` of each entry of each row, and the entries' run weights.

    Each row of ``cells`` holds the entries' (runs x windows) cells end to
    end, and each row of ``weights`` their weights ``exp(e log p0)``, or one
    row of weights serves every row of cells.  ``starts`` holds each
    entry's ``reduceat`` starts (``_geometry``), offset by its place among
    the weights, and ``shapes`` each entry's ``(runs, windows, exponents)``.
    Returns the (rows, entries) sums and the (rows of weights, starts)
    ``reduceat`` of the weights: each entry's run weights, then the sum of
    its window weights, which no sum uses.
    """
    run_weights = np.add.reduceat(weights, starts, axis=-1)
    # Each entry's row sums, after a 0 of its own.
    terms = np.zeros((len(cells), run_weights.shape[1]))
    firsts = []
    cell_at = weight_at = term_at = 0
    for r, n, w in shapes:
        entry_cells, window_weights = cells[:, cell_at : cell_at + r * n], weights[:, weight_at + w - n : weight_at + w]
        if len(cells) == 1:
            # One row: the BLAS call that the batched product makes, without its dispatch.
            np.dot(entry_cells.reshape(r, n), window_weights[0], out=terms[0, term_at + 1 : term_at + 1 + r])
        else:
            products = entry_cells.reshape(-1, r, n) @ window_weights[..., None]
            terms[:, term_at + 1 : term_at + 1 + r] = products[..., 0]
        firsts.append(term_at)
        cell_at, weight_at, term_at = cell_at + r * n, weight_at + w, term_at + r + 1
    # Each 0 meets the window sum before it, and each sum starts from its
    # 0 as a sum over the last axis starts from its identity.
    terms[:, 1:] *= run_weights[:, :-1]
    return np.add.reduceat(terms, firsts, axis=-1), run_weights


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
    exponents, starts, shape = _geometry(runs, layout.logic)
    # At p0 = 0, log p0 = -inf would make the weight at exponent 0 NaN; any
    # log below -745 keeps that weight 1 and underflows every other to 0.
    log_p0 = math.log(p0) if p0 > 0.0 else -1e3
    weights = np.exp(log_p0 * exponents)
    v = runs.rows.reshape(-1)
    x = 1.0 - v
    j_max = heralded.j_max
    js = np.arange(j_max + 1)
    pj = np.concatenate(([0.0], heralded.pj))
    # The i stack, F_i's cells in row i: the rows of one entry, against one
    # row of weights.
    stack = np.empty((min(i_max, j_max) + 1, v.size))
    v_pow = np.ones_like(v)
    comb = np.ones(j_max + 1)  # C(j, i), exact while below 2^53
    for i, row in enumerate(stack):
        np.multiply(v_pow, _horner(x, (comb * pj)[i:]), out=row)
        v_pow = v_pow * v
        comb = comb * (js - i) / (i + 1)
    sums, run_weights = _contract(stack, weights[None], starts, [shape])
    # Bins above j_max stay 0: their mass is part of the input tail bound.
    probs = np.zeros(i_max + 1)
    probs[: len(stack)] = sums[:, 0]
    p0_all = p0 ** (m * n)
    probs[0] += p0_all
    # Mass accounting: everything the truncated sums can reach, minus what
    # landed in probs, is output-truncation mass; the input truncation adds
    # at most sum(W) * tail_bound.
    weight_sum = float(np.sum(run_weights[0, :-1])) * float(np.sum(weights[m:]))
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
    ``rows.shape[1]`` windows.  The returned function takes indices
    ``points`` into ``runs`` and per-window means ``mu`` in one of two forms,
    and evaluates P(1) by the thinning identity, with the heralding detector
    efficiency ``v_d``:

    - pairs: two 1-D arrays of one length, one (point, mean) pair per
      entry, to the array of P(1) of each pair;
    - outer: ``points`` of shape (P, 1) and ``mu`` of shape (1, K), to the
      (P, K) array of P(1) at every (point, mean) of the two.

    Each entry is the value that its pair alone gives, whatever else the
    arrays hold: a chunk takes one ``_contract`` call, with one window
    product per entry, in the pairs form one BLAS dot.  Each distinct
    geometry (rank count, row-run shape and run starts) is laid out once,
    when the evaluator is built.  An outer call runs its broadcast passes
    under a small ufunc buffer of its own, which no value depends on, and
    sets the caller's buffer size back when it returns or raises.  The
    function reuses its own work arrays, so it serves one thread at a time.

    Raises:
        ValueError: the arrays are in neither form, a point index is not an
            integer in ``[0, len(runs))``, or a mean is negative or not
            finite; checked before any work.
    """
    runs = tuple(runs)
    rows = [r.rows.reshape(-1) for r in runs]
    # Each distinct geometry's exponents, shape and gaps, laid out once: from
    # each reduceat start of a point to the next, the last to the next
    # point's first exponent.
    layouts, keys = {}, [(r.ranks, r.rows.shape, r.starts.tobytes()) for r in runs]
    for key, r in zip(keys, runs):
        if key not in layouts:
            exponents, starts, shape = _geometry(r, logic)
            layouts[key] = exponents, shape, np.diff([*starts, shape[2]])
    exponents, shapes, gaps = zip(*map(layouts.get, keys)) if runs else ((), (), ())
    cell_counts, weight_counts = (np.array([a.size for a in x]) for x in (rows, exponents))
    sizes = cell_counts.tolist()
    thermal = kind is SourceKind.THERMAL
    # One product of these columns with the means gives -mu, -mu (1 - v_d)
    # and mu v_d (thermal) or log p0 = -mu v_d (Poissonian), each bit for bit
    # the negated product.
    coeffs = np.array([-1.0, -(1.0 - v_d), v_d if thermal else -v_d])[:, None]
    # Every chunk works in these two arrays: the negated thinned means of
    # both sources and -T at them, the source's own means first.
    means, cells = np.empty((2, 2 * max(_CHUNK_CELLS, max(sizes, default=0))))

    def source(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``-mu`` and ``-mu'`` stacked, ``p0`` and ``log p0``, at each mean of ``mu``."""
        scaled = coeffs * mu
        neg_missed_means, detected = scaled[1], scaled[2]
        if thermal:
            log_p0 = -np.log1p(detected)
            p0 = 1.0 / (1.0 + detected)
            neg_missed_means *= p0
        else:
            log_p0 = detected
            p0 = np.exp(log_p0)
        return scaled[:2], p0, log_p0

    def cell_terms(thinned: np.ndarray, p0: np.ndarray) -> np.ndarray:
        """``F_1`` in place of ``thinned[0]``'s ``-T``, from the negated thinned means; ``p0`` spread over them."""
        f1, missed = _one_photon(kind, thinned, cells[: thinned.size].reshape(thinned.shape))
        missed *= p0
        return np.subtract(missed, f1, out=f1)  # -p0 T(mu' v) + T(mu v) = F_1

    def pairs_chunk(points: np.ndarray, mu: np.ndarray, size: int, starts: np.ndarray, shapes: list) -> np.ndarray:
        """Pairs: their rows and exponents end to end, each pair's values repeated over its own."""
        (neg_means, neg_missed_means), p0, log_p0 = source(mu)
        order, counts = points.tolist(), cell_counts[points]
        thinned = means[: 2 * size].reshape(2, -1)
        np.concatenate([rows[i] for i in order], out=thinned[0])
        # One repeat alive at a time.
        np.multiply(thinned[0], neg_missed_means.repeat(counts), out=thinned[1])
        thinned[0] *= neg_means.repeat(counts)
        f1 = cell_terms(thinned, p0.repeat(counts))
        weights = np.exp(log_p0.repeat(weight_counts[points]) * np.concatenate([exponents[i] for i in order]))
        return _contract(f1[None], weights[None], starts, shapes)[0][0]

    def outer_chunk(order: list[int], mu: np.ndarray, size: int, starts: np.ndarray, shapes: list) -> np.ndarray:
        """Outer: the points' rows and exponents end to end, broadcast against the means."""
        scaled, p0, log_p0 = source(mu)
        thinned = means[: 2 * mu.size * size].reshape(2, mu.size, size)
        np.multiply(scaled[:, :, None], np.concatenate([rows[i] for i in order]), out=thinned)
        f1 = cell_terms(thinned, p0[:, None])
        weights = np.exp(log_p0[:, None] * np.concatenate([exponents[i] for i in order]))
        return _contract(f1, weights, starts, shapes)[0].T

    def spans(order: list[int], limit: int) -> Iterator[tuple[int, int, int, np.ndarray, list]]:
        """``(lo, hi, cells, starts, shapes)`` of each run of consecutive ``order`` entries that fit in ``limit`` cells.

        Each run is as long as fits, and at least one entry.  ``starts`` and
        ``shapes`` lay its entries out for ``_contract``: each start the sum
        of the gaps before it.
        """
        lo = 0
        while lo < len(order):
            hi, size = lo + 1, sizes[order[lo]]
            while hi < len(order) and size + sizes[order[hi]] <= limit:
                hi, size = hi + 1, size + sizes[order[hi]]
            steps = np.concatenate([gaps[i] for i in order[lo:hi]])
            yield lo, hi, size, steps.cumsum() - steps, [shapes[i] for i in order[lo:hi]]
            lo = hi

    def p1(points: np.ndarray, mu: np.ndarray) -> np.ndarray:
        points, mu = np.asarray(points), np.asarray(mu, dtype=float)
        outer = points.ndim == 2
        if not (
            (outer and points.shape[1] == 1 and mu.ndim == 2 and mu.shape[0] == 1)
            or (mu.ndim == 1 and points.shape == mu.shape)
        ):
            raise ValueError(
                "points and means must be 1-D arrays of one length, or of shapes (P, 1) and (1, K), "
                f"got {points.shape}, {mu.shape}"
            )
        order = points.ravel().tolist()
        if order and not (points.dtype.kind in "iu" and min(order) >= 0 and max(order) < len(runs)):
            bad = next((i for i in order if type(i) is not int or not 0 <= i < len(runs)), points.dtype)
            raise ValueError(f"point indices must be integers in [0, {len(runs)}), got {bad!r}")
        if mu.size and not (mu.min() >= 0.0 and mu.max() < math.inf):
            # A NaN fails both comparisons.
            raise ValueError(f"means must be finite and >= 0, got {mu[~((mu >= 0.0) & (mu < math.inf))].flat[0]}")
        if not outer:
            out = np.empty(mu.size)
            for lo, hi, *chunk in spans(order, _CHUNK_CELLS):
                out[lo:hi] = pairs_chunk(points[lo:hi], mu[lo:hi], *chunk)
            return out
        bufsize = np.setbufsize(_BUFSIZE)
        try:
            mu = mu[0]
            out = np.empty((len(order), mu.size))
            for lo, hi, size, *layout in spans(order, _CHUNK_CELLS // max(mu.size, 1)):
                # Every mean at once, or as many as fit when one point alone does not.
                step = max(_CHUNK_CELLS // size, 1)
                for at in range(0, mu.size, step):
                    out[lo:hi, at : at + step] = outer_chunk(order[lo:hi], mu[at : at + step], size, *layout)
            return out
        finally:
            # Set back explicitly: numpy 1.x does not scope the buffer size to np.errstate.
            np.setbufsize(bufsize)

    return p1
