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
``p1_closed_form`` evaluates P(1) this way, with no input truncation; the
optimizer uses it as its objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .statistics import HeraldedInputDistribution, PairSourceModel, SourceKind
from .transmission import MultiplexerLayout, PriorityLogic, RowRuns, TransmissionMatrix

DEFAULT_I_MAX = 10


@dataclass(frozen=True)
class PhotonNumberDistribution:
    """Truncated photon-number probabilities with a certified tail bound.

    ``probs[i]`` is the probability of ``i`` output photons for
    ``i = 0 .. i_max``; ``tail_bound`` bounds the mass beyond ``i_max``
    (including any truncation of the input distribution).  Empirical
    distributions from the Monte-Carlo sampler also carry a per-bin binomial
    standard error and the trial count.
    """

    probs: np.ndarray
    i_max: int
    tail_bound: float
    std_err: np.ndarray | None = None
    trials: int | None = None

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        if probs.size != self.i_max + 1:
            raise ValueError(f"probs size {probs.size} inconsistent with i_max={self.i_max}")
        if not np.all((0.0 <= probs) & (probs <= 1.0)):
            raise ValueError("probabilities must lie in [0, 1]")
        if not self.tail_bound >= 0.0:
            raise ValueError(f"tail_bound must be >= 0, got {self.tail_bound}")
        total = float(np.sum(probs)) + self.tail_bound
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"sum(probs) + tail_bound = {total!r} deviates from 1 beyond 1e-10")
        if self.std_err is not None:
            std_err = np.asarray(self.std_err, dtype=float)
            std_err.setflags(write=False)
            object.__setattr__(self, "std_err", std_err)
            if std_err.size != probs.size:
                raise ValueError("std_err must have one entry per probability bin")


@lru_cache(maxsize=64)
def _weight_exponents(m: int, n: int, logic: PriorityLogic) -> tuple[np.ndarray, np.ndarray]:
    """Exponents of ``p0`` in the rank factor ``a[k]`` and the window factor ``b[n]``."""
    if logic is PriorityLogic.FIRST_DETECTION:
        exponents = np.arange(m), m * np.arange(n)
    else:
        exponents = n * np.arange(m), np.arange(n)
    for array in exponents:
        array.setflags(write=False)
    return exponents


def _factored_weights(
    p0: float, runs: RowRuns, layout: MultiplexerLayout
) -> tuple[np.ndarray, np.ndarray]:
    """Priority weight of each row run (summed over its ranks) and of each window."""
    rank_exp, window_exp = _weight_exponents(layout.m, layout.n, layout.logic)
    return np.add.reduceat(np.power(p0, rank_exp), runs.starts), np.power(p0, window_exp)


def _horner(x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The polynomial ``sum_t coeffs[t] x^t`` at every entry of ``x`` (broadcasts against ``x``)."""
    coeffs = coeffs.tolist()
    out = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        out = out * x + c
    return out


def _check_dimensions(tm: TransmissionMatrix, layout: MultiplexerLayout) -> None:
    if tm.shape != (layout.m, layout.n):
        raise ValueError(
            f"transmission matrix of shape {tm.shape} does not match layout ({layout.m}, {layout.n})"
        )


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
    _check_dimensions(tm, layout)
    if i_max < 1:
        raise ValueError(f"i_max must be >= 1, got {i_max}")
    p0 = heralded.p0
    cells = layout.m * layout.n
    if p0 >= 1.0:
        # No window ever heralds: vacuum output, exactly.
        probs = np.zeros(i_max + 1)
        probs[0] = 1.0
        return PhotonNumberDistribution(probs=probs, i_max=i_max, tail_bound=0.0)
    runs = tm.row_runs
    run_weights, window_weights = _factored_weights(p0, runs, layout)
    v = runs.rows
    x = 1.0 - v
    j_max = heralded.j_max
    js = np.arange(j_max + 1)
    pj = np.concatenate(([0.0], heralded.pj))
    # Bins above j_max stay 0: their mass is part of the input tail bound.
    probs = np.zeros(i_max + 1)
    v_pow = np.ones_like(v)
    comb = np.ones(j_max + 1)  # C(j, i), exact while below 2^53
    for i in range(min(i_max, j_max) + 1):
        series = _horner(x, (comb * pj)[i:])
        probs[i] = run_weights @ ((v_pow * series) @ window_weights)
        v_pow = v_pow * v
        comb = comb * (js - i) / (i + 1)
    p0_all = p0**cells
    probs[0] += p0_all
    # Mass accounting: everything the truncated sums can reach, minus what
    # landed in probs, is output-truncation mass; the input truncation adds
    # at most sum(W) * tail_bound.
    weight_sum = float(np.sum(run_weights)) * float(np.sum(window_weights))
    included = p0_all + weight_sum * float(np.sum(heralded.pj))
    output_truncated = max(included - float(np.sum(probs)), 0.0)
    tail_bound = output_truncated + weight_sum * heralded.tail_bound
    return PhotonNumberDistribution(
        probs=np.clip(probs, 0.0, 1.0), i_max=i_max, tail_bound=tail_bound
    )


def single_photon_probability(
    heralded: HeraldedInputDistribution,
    tm: TransmissionMatrix,
    layout: MultiplexerLayout,
) -> float:
    """P(exactly one output photon): ``output_distribution(...).probs[1]``."""
    return float(output_distribution(heralded, tm, layout, i_max=1).probs[1])


def _one_photon(kind: SourceKind, x: np.ndarray) -> np.ndarray:
    """``T(1; x)``: probability that a source of mean ``x`` delivers exactly one photon."""
    if kind is SourceKind.THERMAL:
        return x / (1.0 + x) ** 2
    return x * np.exp(-x)


def p1_closed_form(
    model: PairSourceModel,
    v_d: float,
    tm: TransmissionMatrix,
    layout: MultiplexerLayout,
) -> float:
    """P(exactly one output photon) from the source model, by the thinning identity.

    Equals ``single_photon_probability(herald_convolve(model, v_d), tm, layout)``
    up to that path's input truncation, which this one does not have.
    """
    _check_dimensions(tm, layout)
    mu = model.mean_per_window
    if model.kind is SourceKind.THERMAL:
        p0 = 1.0 / (1.0 + mu * v_d)
        mu_miss = mu * (1.0 - v_d) * p0
    else:
        p0 = math.exp(-mu * v_d)
        mu_miss = mu * (1.0 - v_d)
    runs = tm.row_runs
    run_weights, window_weights = _factored_weights(p0, runs, layout)
    v = runs.rows
    cells = _one_photon(model.kind, mu * v) - p0 * _one_photon(model.kind, mu_miss * v)
    return float(run_weights @ (cells @ window_weights))
