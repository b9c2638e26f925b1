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

Trials are exchangeable, so a cell does not draw per waiting trial.  Every
cell sees the same source, so each waiting trial clicks there with the same
probability ``h``, ``1 - exp(-mu v_d)`` (Poissonian) or
``mu v_d / (1 + mu v_d)`` (thermal), with ``mu`` the pairs per window; one
binomial draw gives how many of the waiting trials herald at the cell.  Only
those draw their pair number given the click, exactly and with no
truncation: the pairs whose idler the detector would see and the pairs it
would miss are independent thinned sources, and the click conditions only
the first.  Thermal: ``1 + G(q) + G(q (1 - v_d))`` with ``q = mu / (1 + mu)``
and ``G(r)`` the failures before a success of probability ``1 - r``.
Poissonian: ``1 + Poisson(mu v_d (1 - t)) + Poisson(mu (1 - v_d))``, where
``t = -log1p(U expm1(-mu v_d)) / (mu v_d)``, ``U`` uniform, is the first
detectable pair's arrival, given that one arrives.  Then the heralded
trials' survivors are drawn.  A cell's draws, in order: the heralded count,
the pair numbers (thermal: the two geometric draws; Poissonian: the
uniforms, then the two Poisson draws), the survivors.

Trials are partitioned into blocks of ``BLOCK_SIZE`` trials, each driven by
its own child of ``numpy.random.SeedSequence(seed)``; results are therefore
reproducible bit for bit and blocks may be evaluated in any order (the block
structure is part of the random-stream definition).  A block's walk stops at
the first cell after which no trial is waiting, and it costs one scalar draw
per visited cell plus a few array entries per heralded trial: O(cells +
trials), with one int64 photon count per heralded trial held until the
block's histogram, whatever the geometry.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .engine import PhotonNumberDistribution
from .statistics import PairSourceModel, SourceKind
from .transmission import LossParameters, MultiplexerLayout, PriorityLogic, build_matrix

BLOCK_SIZE = 1 << 20


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


def _pairs_given_click(model: PairSourceModel, v_d: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Pair numbers of ``size`` windows whose detector clicked, drawn exactly."""
    mu = model.mean_per_window
    if model.kind is SourceKind.THERMAL:
        # geometric(1 - r) counts 1 + G(r); 1 - q = 1/(1+mu), 1 - q(1-v_d) = (1+mu v_d)/(1+mu).
        first = rng.geometric(1.0 / (1.0 + mu), size)
        return first + rng.geometric((1.0 + mu * v_d) / (1.0 + mu), size) - 1
    detectable = mu * v_d
    u = rng.random(size)
    # detectable * (1 - t); rounding can take it a hair below 0 for u within an ulp of 1.
    after_first = np.maximum(detectable + np.log1p(u * math.expm1(-detectable)), 0.0)
    return 1 + rng.poisson(after_first) + rng.poisson(mu * (1.0 - v_d), size)


def _simulate_block(
    model: PairSourceModel,
    v_d: float,
    transmissions: np.ndarray,
    logic: PriorityLogic,
    n_trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Photon-count histogram of one block of trials."""
    h = _click_probability(model, v_d)
    emitted = [np.zeros(0, dtype=np.int64)]
    waiting = n_trials
    for k, w in _visiting_order(*transmissions.shape, logic):
        if waiting == 0:
            break
        heralded = int(rng.binomial(waiting, h))
        if heralded:
            pairs = _pairs_given_click(model, v_d, rng, heralded)
            emitted.append(rng.binomial(pairs, transmissions[k, w]))
            waiting -= heralded
    hist = np.bincount(np.concatenate(emitted), minlength=1)
    hist[0] += waiting
    return hist


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
        trials: number of simulated periods (>= 1).
        seed: seed of the block-splitting random stream.

    Returns:
        Empirical distribution: the fraction of trials that emitted each
        photon number, up to the largest one observed, with a zero tail bound.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    transmissions = build_matrix(params, layout).values
    n_blocks = (trials + BLOCK_SIZE - 1) // BLOCK_SIZE
    streams = np.random.SeedSequence(seed).spawn(n_blocks)
    counts = np.zeros(1, dtype=np.int64)
    remaining = trials
    for stream in streams:
        block = min(BLOCK_SIZE, remaining)
        hist = _simulate_block(
            model, params.v_d, transmissions, layout.logic, block, np.random.default_rng(stream)
        )
        if hist.size > counts.size:
            counts = np.concatenate([counts, np.zeros(hist.size - counts.size, dtype=np.int64)])
        counts[: hist.size] += hist
        remaining -= block
    return PhotonNumberDistribution(probs=counts / trials, tail_bound=0.0)
