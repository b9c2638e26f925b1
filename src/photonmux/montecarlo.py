"""Stochastic simulation of the multiplexer, independent of the analytic engine.

Every trial draws a pair count for each (arm, window) cell directly from the
source statistics, decides detector clicks photon by photon, applies the
priority rule to the clicked cells, and pushes each signal photon of the
selected cell through a Bernoulli loss channel.  Nothing is shared with the
series evaluation in :mod:`photonmux.engine`, so agreement between the two is
a genuine cross-check.

Trials are partitioned into blocks of ``BLOCK_SIZE`` trials, each driven by
its own child of ``numpy.random.SeedSequence(seed)``; results are therefore
reproducible bit for bit and blocks may be evaluated in any order (the block
structure is part of the random-stream definition).
"""

from __future__ import annotations

import numpy as np

from .engine import PhotonNumberDistribution
from .statistics import PairSourceModel, SourceKind
from .transmission import (
    LossParameters,
    MultiplexerLayout,
    PriorityLogic,
    TransmissionMatrix,
    build_matrix,
)

BLOCK_SIZE = 1 << 20


def _select_cells(
    clicked: np.ndarray, logic: PriorityLogic
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply the priority rule to each trial of a boolean (trial, arm rank, window) click array.

    Lowest-loss: best-ranked arm first, earliest window within it.
    First-detection: earliest window first, best-ranked arm within it.

    Returns:
        ``(heralded, arm, window)``: whether each trial clicked at all, and
        its selected cell; the cell of a trial without a click is (0, 0).
    """
    heralded = clicked.any(axis=(1, 2))
    rows = np.arange(clicked.shape[0])
    if logic is PriorityLogic.LOWEST_LOSS:
        arm = clicked.any(axis=2).argmax(axis=1)
        window = clicked[rows, arm].argmax(axis=1)
    else:
        window = clicked.any(axis=1).argmax(axis=1)
        arm = clicked[rows, :, window].argmax(axis=1)
    return heralded, arm, window


def _sample_pairs(model: PairSourceModel, rng: np.random.Generator, shape) -> np.ndarray:
    mu = model.mean_per_window
    if model.kind is SourceKind.THERMAL:
        return rng.geometric(1.0 / (1.0 + mu), size=shape) - 1
    return rng.poisson(mu, size=shape)


def _simulate_block(
    model: PairSourceModel,
    params: LossParameters,
    layout: MultiplexerLayout,
    tm: TransmissionMatrix,
    n_trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Photon-count histogram of one block of trials (vectorized)."""
    shape = (n_trials, layout.m, layout.n)
    pairs = _sample_pairs(model, rng, shape)
    clicked = rng.random(shape) < 1.0 - (1.0 - params.v_d) ** pairs
    heralded, arm, window = _select_cells(clicked, layout.logic)
    survivors = rng.binomial(pairs[np.arange(n_trials), arm, window], tm.values[arm, window])
    survivors[~heralded] = 0
    return np.bincount(survivors)


def simulate(
    model: PairSourceModel,
    params: LossParameters,
    layout: MultiplexerLayout,
    trials: int,
    seed: int,
    tm: TransmissionMatrix | None = None,
) -> PhotonNumberDistribution:
    """Empirical output photon-number distribution over ``trials`` periods.

    Args:
        model: pair-generation statistics of each source.
        params: optical and detector efficiencies.
        layout: geometry and priority logic.
        trials: number of simulated periods (>= 1).
        seed: seed of the block-splitting random stream.
        tm: transmission matrix override; built from ``params`` when omitted.

    Returns:
        Empirical distribution with per-bin binomial standard errors.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if tm is None:
        tm = build_matrix(params, layout)
    if tm.shape != (layout.m, layout.n):
        raise ValueError(
            f"transmission matrix of shape {tm.shape} does not match layout ({layout.m}, {layout.n})"
        )
    n_blocks = (trials + BLOCK_SIZE - 1) // BLOCK_SIZE
    streams = np.random.SeedSequence(seed).spawn(n_blocks)
    counts = np.zeros(1, dtype=np.int64)
    remaining = trials
    for stream in streams:
        block = min(BLOCK_SIZE, remaining)
        hist = _simulate_block(model, params, layout, tm, block, np.random.default_rng(stream))
        if hist.size > counts.size:
            counts = np.concatenate([counts, np.zeros(hist.size - counts.size, dtype=np.int64)])
        counts[: hist.size] += hist
        remaining -= block
    probs = counts / trials
    std_err = np.sqrt(probs * (1.0 - probs) / trials)
    return PhotonNumberDistribution(
        probs=probs,
        i_max=counts.size - 1,
        tail_bound=0.0,
        std_err=std_err,
        trials=trials,
    )
