"""Stochastic simulation of the multiplexer, independent of the analytic engine.

Each trial walks the (arm, window) cells in the order that the priority rule
consults them: arm-major for lowest-loss (the best-ranked arm's windows,
earliest first, then the next arm), window-major for first-detection (the
earliest window's arms, best-ranked first, then the next window).  The first
cell whose detector clicks ends the trial's walk, and each signal photon of
that cell passes a Bernoulli loss channel.  The priority rule is thus the
visiting order itself.  A trial no cell heralds emits no photon.  Nothing is
shared with the series evaluation in :mod:`photonmux.engine`, so agreement
between the two is a genuine cross-check.

Trials are exchangeable, so a cell draws counts, not per waiting trial.
Every cell sees the same source, so each waiting trial clicks there with the
same probability ``h``, ``1 - exp(-mu v_d)`` (Poissonian) or
``mu v_d / (1 + mu v_d)`` (thermal), with ``mu`` the pairs per window; one
binomial draw gives how many of the waiting trials, ``c``, herald at the
cell.  One multinomial draw splits those ``c`` trials by pair number: its
category ``j`` has probability ``P(K = j | click) = P(j) (1 - (1 - v_d)^j) /
h`` for ``j = 1 .. J``, with ``P(j)`` the source's own pmf (Poissonian
``e^-mu mu^j / j!``, thermal ``mu^j / (1 + mu)^(j+1)``), computed here and
not taken from :mod:`photonmux.statistics`.  One closing category holds
every pair number above ``J``, the smallest pair number at which an
analytic bound on that category's probability falls below
``CLOSING_BOUND``; a trial drawn into it raises instead of being dropped.
So the law is exact, and nothing is truncated silently.  Then one
``binomial(j, V, size=c_j)`` call per present pair number, in increasing
``j``, draws the survivors (bit for bit one array-``n`` binomial over each
``j`` repeated ``c_j`` times), and each call's counts go straight into the
block's histogram, which has ``J + 1`` bins and is trimmed to its largest
count once.

A cell's draws, in order: the heralded count; the multinomial, which draws
nothing for its leading ``j = 0`` category (probability 0) or after its last
trial, so the stream depends on neither that slot nor ``J``; the survivors.

Trials are partitioned into blocks of ``BLOCK_SIZE`` trials, each driven by
its own child of ``numpy.random.SeedSequence(seed)``; results are therefore
reproducible bit for bit and blocks may be evaluated in any order (the block
structure is part of the random-stream definition).  A block's walk stops at
the first cell after which no trial is waiting.  It costs one binomial and
one multinomial per visited cell, the multinomial one binomial per pair
number up to the largest one drawn, one survivor call per present pair
number, plus one survivor draw per heralded trial.  Besides its ``J + 1``
bins it holds the survivors of one pair number of one cell at a time, at
most one int64 per heralded trial, whatever the geometry.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .engine import PhotonNumberDistribution
from .statistics import PairSourceModel, SourceKind
from .transmission import LossParameters, MultiplexerLayout, PriorityLogic, _count, build_matrix

BLOCK_SIZE = 1 << 20
CLOSING_BOUND = 1e-20


def _visiting_order(m: int, n: int, logic: PriorityLogic) -> Iterator[tuple[int, int]]:
    """The (arm rank, window) cells in the order the priority rule consults them."""
    if logic is PriorityLogic.LOWEST_LOSS:
        return ((k, w) for k in range(m) for w in range(n))
    return ((k, w) for w in range(n) for k in range(m))


def _click_probability(model: PairSourceModel, v_d: float) -> float:
    """Probability that one window's heralding detector clicks."""
    x = model.mean_per_window * v_d
    if model.kind is SourceKind.THERMAL:
        return x / (1.0 + x)
    return -math.expm1(-x)


# Stirling's remainder log k! - (k + 1/2) log k + k - log(2 pi) / 2 for k = 1 .. 15,
# rounded from a 50-digit evaluation: below 16 its series converges too slowly,
# and lgamma(k + 1) cancels (k + 1/2) log k to about 1e-14.
_STIRLING_REMAINDERS = (
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834, 0.020790672103765093,
    0.016644691189821193, 0.013876128823070748, 0.01189670994589177, 0.010411265261972096,
    0.009255462182712733, 0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)


def _poisson_log_pmf(mu: float, size: int) -> np.ndarray:
    """``log P(j)`` of a Poissonian source of mean ``mu`` for ``j = 0 .. size - 1``.

    Loader's saddle-point form, ``log P(j) = -s(j) - d(j) - log(2 pi j) / 2``
    for ``j >= 1``: ``s(j)`` is Stirling's remainder (its series from 16 on)
    and ``d(j) = j log(j / mu) + mu - j`` is taken from a series in ``v = (j
    - mu) / (j + mu)`` where ``|v| < 1/2``.  Both are small where the pmf is
    large, so an entry of 1e-9 or more is good to about 1e-14, where ``j log
    mu - mu - lgamma(j + 1)`` cancels terms near ``mu log mu`` (7e3 at 1000
    pairs per window).
    """
    j = np.arange(1.0, size)
    jj = j * j
    stirling = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * jj)) / jj) / jj) / jj) / j
    small = min(size - 1, len(_STIRLING_REMAINDERS))
    stirling[:small] = _STIRLING_REMAINDERS[:small]
    diff = j - mu
    deviance = j * np.log(j / mu) - diff
    near = np.abs(diff) < 0.5 * (j + mu)
    v = diff[near] / (j[near] + mu)
    # d = (j - mu) v + 2 j (v^3 / 3 + v^5 / 5 + ...), since log(j / mu) = 2 atanh(v);
    # v^2 < 1/4, so 30 terms reach 1e-18 of the first.
    term, series = 2.0 * j[near] * v, diff[near] * v
    for k in range(1, 31):
        term = term * v * v
        series = series + term / (2 * k + 1)
    deviance[near] = series
    half_log_2pi_j = 0.5 * np.log(2.0 * math.pi * j)
    return np.concatenate(([-mu], -stirling - deviance - half_log_2pi_j))


def _heralded_pair_pmf(model: PairSourceModel, v_d: float) -> np.ndarray:
    """Categories of the multinomial that splits a cell's heralded trials by pair number.

    Entry ``j`` is ``P(K = j | click)`` for ``j = 0 .. J`` (entry 0 is 0);
    the last entry is the closing category, every pair number above ``J``.
    Since ``1 - (1 - v_d)^j <= j v_d`` and ``v_d / h <= (1 + mu v_d) / mu``,
    its probability is at most ``(1 + mu v_d) U_J``, with ``U_J = sum_{j > J}
    j P(j) / mu``: ``(J + 1 + mu) P(J)`` (thermal) and ``P(K >= J) <= P(J)
    (J + 1) / (J + 1 - mu)`` once ``J + 1 > mu`` (Poissonian).  ``J`` is the
    smallest pair number at which that bound, which the last entry holds,
    is below ``CLOSING_BOUND``.  Entries ``1 .. J`` are divided by their
    exact sum, which is ``h`` to within that bound: numpy's multinomial gives
    the last category whatever the others leave and refuses them if they sum
    past ``1 + 1e-12``.  So a closing draw can come from rounding only with
    a probability of about 1e-16.  A thermal ``J`` grows like ``mu log(1 /
    CLOSING_BOUND)``: 57,050 at 1000 pairs per window.  Needs a click
    probability above 0.
    """
    mu = model.mean_per_window
    log_slack = math.log1p(mu * v_d)
    size = 64
    while True:
        j = np.arange(size)
        if model.kind is SourceKind.THERMAL:
            log_pmf = -j * math.log1p(1.0 / mu) - math.log1p(mu)
            log_u = np.log(j + 1 + mu) + log_pmf
        else:
            log_pmf = _poisson_log_pmf(mu, size)
            headroom = np.maximum(j + 1 - mu, 0.0)
            with np.errstate(divide="ignore"):
                log_u = np.log(j + 1) - np.log(headroom) + log_pmf
        closed = np.flatnonzero(log_u[1:] + log_slack < math.log(CLOSING_BOUND))
        if closed.size:
            break
        size *= 2
    top = int(closed[0]) + 1
    log_miss = math.log1p(-v_d) if v_d < 1.0 else -math.inf
    pvals = np.zeros(top + 2)
    pvals[1 : top + 1] = np.exp(log_pmf[1 : top + 1]) * -np.expm1(j[1 : top + 1] * log_miss)
    pvals[1 : top + 1] /= math.fsum(pvals[1 : top + 1])
    pvals[-1] = math.exp(log_u[top] + log_slack)
    return pvals


def _simulate_block(
    h: float,
    pvals: np.ndarray,
    transmissions: np.ndarray,
    logic: PriorityLogic,
    n_trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Photon-count histogram of one block of trials, up to its largest count."""
    hist = np.zeros(pvals.size - 1, dtype=np.int64)
    waiting = n_trials
    for k, w in _visiting_order(*transmissions.shape, logic):
        if waiting == 0:
            break
        heralded = int(rng.binomial(waiting, h))
        if heralded:
            split = rng.multinomial(heralded, pvals)
            if split[-1]:
                raise RuntimeError(
                    f"{split[-1]} heralded trials drew more than {pvals.size - 2} pairs, "
                    f"a category of probability below {CLOSING_BOUND:g}"
                )
            # One scalar-n call per present pair number, in increasing order.
            v = transmissions[k, w]
            for j in split.nonzero()[0]:
                np.add.at(hist, rng.binomial(j, v, size=split[j]), 1)
            waiting -= heralded
    hist[0] += waiting
    return np.trim_zeros(hist, "b")


def simulate(
    model: PairSourceModel,
    params: LossParameters,
    layout: MultiplexerLayout,
    trials: int,
    seed: int,
) -> PhotonNumberDistribution:
    """Empirical output photon-number distribution over ``trials`` periods.

    Args:
        model: pair-generation statistics of each source.
        params: optical and detector efficiencies.
        layout: geometry and priority logic.
        trials: number of simulated periods, an integer >= 1.
        seed: seed of the block-splitting random stream.

    Returns:
        Empirical distribution: the fraction of trials that emitted each
        photon number, up to the largest one observed, with a zero tail bound.
    """
    trials = _count("trials", trials)
    transmissions = build_matrix(params, layout).values
    h = _click_probability(model, params.v_d)
    if h == 0.0:
        # No detector ever clicks: every trial is vacuum, and nothing is drawn.
        return PhotonNumberDistribution(probs=np.ones(1), tail_bound=0.0)
    pvals = _heralded_pair_pmf(model, params.v_d)
    n_blocks = (trials + BLOCK_SIZE - 1) // BLOCK_SIZE
    streams = np.random.SeedSequence(seed).spawn(n_blocks)
    counts = np.zeros(pvals.size - 1, dtype=np.int64)
    remaining = trials
    for stream in streams:
        block = min(BLOCK_SIZE, remaining)
        hist = _simulate_block(
            h, pvals, transmissions, layout.logic, block, np.random.default_rng(stream)
        )
        counts[: hist.size] += hist
        remaining -= block
    return PhotonNumberDistribution(probs=np.trim_zeros(counts, "b") / trials, tail_bound=0.0)
