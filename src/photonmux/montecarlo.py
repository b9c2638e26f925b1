"""Stochastic simulation of the multiplexer, independent of the analytic engine.

Each trial walks the (arm, window) cells in the order that the priority rule
consults them: arm-major for lowest-loss (the best-ranked arm's windows,
earliest first, then the next arm), window-major for first-detection (the
earliest window's arms, best-ranked first, then the next window).  At each
cell, every trial that no earlier cell heralded draws a pair count from the
source statistics and a detector click; the first click ends the trial's walk,
and each signal photon of that cell passes a Bernoulli loss channel.  The
priority rule is thus the visiting order itself.  A trial no cell heralds
emits no photon.  Nothing is shared with the series evaluation in
:mod:`photonmux.engine`, so agreement between the two is a genuine
cross-check.

Trials are partitioned into blocks of ``BLOCK_SIZE`` trials, each driven by
its own child of ``numpy.random.SeedSequence(seed)``; results are therefore
reproducible bit for bit and blocks may be evaluated in any order (the block
structure is part of the random-stream definition).  Within a block, each
cell draws, over the trials still waiting, first their pair counts, then one
uniform per trial for the click, then the survivors of the clicked trials.
A block holds a few arrays of one entry per waiting trial at a time: about
34 bytes per trial, or 35 MB for a full block, whatever the geometry.  Its
walk stops at the first cell after which no trial is waiting, so its time
grows with the number of cells a trial visits before its first click.
"""

from __future__ import annotations

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


def _sample_pairs(model: PairSourceModel, rng: np.random.Generator, size: int) -> np.ndarray:
    mu = model.mean_per_window
    if model.kind is SourceKind.THERMAL:
        return rng.geometric(1.0 / (1.0 + mu), size=size) - 1
    return rng.poisson(mu, size=size)


def _simulate_block(
    model: PairSourceModel,
    v_d: float,
    transmissions: np.ndarray,
    logic: PriorityLogic,
    n_trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Photon-count histogram of one block of trials."""
    emitted = []
    waiting = n_trials
    for k, w in _visiting_order(*transmissions.shape, logic):
        if waiting == 0:
            break
        pairs = _sample_pairs(model, rng, waiting)
        clicked = rng.random(waiting) < 1.0 - (1.0 - v_d) ** pairs
        emitted.append(rng.binomial(pairs[clicked], transmissions[k, w]))
        waiting -= emitted[-1].size
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
