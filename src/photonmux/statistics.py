"""Photon-pair statistics of a heralded source and the threshold-detector heralding step.

A pumped nonlinear source emits photon pairs into each of ``n_windows`` time
windows; the pair number per window follows either a thermal or a Poissonian
distribution with per-window mean ``mean_pairs / n_windows``.  A threshold
detector with efficiency ``v_d`` watching the idler mode turns the emitted
distribution into the pair ``(p0, pj)``: the probability that a window gives
no click, and the joint probabilities that ``j`` signal photons enter the
multiplexer together with a click.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .transmission import _count, _number, _typed

# Hard cap on the adaptive truncation order.
_J_CAP = 512

# Emission-tail mass tolerated beyond the input truncation order.
TAIL_TOL = 1e-12


class TruncationError(ValueError):
    """Requested truncation order cannot push the distribution tail below tolerance.

    Carries the achieved tail bound in :attr:`tail_bound`.
    """

    def __init__(self, message: str, tail_bound: float):
        super().__init__(message)
        self.tail_bound = tail_bound


class SourceKind(Enum):
    THERMAL = "thermal"
    POISSONIAN = "poissonian"


@dataclass(frozen=True)
class PairSourceModel:
    """Pair-generation statistics of one source over a full period.

    Args:
        kind: thermal (single-mode emission) or Poissonian (multimode emission).
        mean_pairs: mean number of photon pairs summed over all time windows,
            a finite float >= 0 whose mean per window is 0 or not subnormal.
        n_windows: number of time windows the period is divided into.
    """

    kind: SourceKind
    mean_pairs: float
    n_windows: int

    def __post_init__(self):
        _typed("kind", self.kind, SourceKind)
        object.__setattr__(self, "mean_pairs", _number("mean_pairs", self.mean_pairs, math.inf))
        object.__setattr__(self, "n_windows", _count("n_windows", self.n_windows))
        if 0.0 < self.mean_per_window < sys.float_info.min:  # 1 / mu would overflow
            raise ValueError(f"mean_pairs per window {self.mean_per_window!r} is positive but subnormal")

    @property
    def mean_per_window(self) -> float:
        return self.mean_pairs / self.n_windows


@dataclass(frozen=True)
class HeraldedInputDistribution:
    """Joint distribution of the signal photon number entering the multiplexer.

    ``p0`` is the no-click probability of a single window; ``pj[j-1]`` is the
    probability that the source emitted ``j`` pairs *and* the detector
    clicked, for ``j = 1 .. j_max``.  ``tail_bound`` is a certified upper
    bound on the heralded probability mass truncated beyond ``j_max``.
    """

    p0: float
    pj: np.ndarray
    tail_bound: float

    def __post_init__(self):
        pj = np.asarray(self.pj, dtype=float)
        pj.setflags(write=False)
        object.__setattr__(self, "pj", pj)
        if pj.ndim != 1 or pj.size < 1:
            raise ValueError(f"pj must be a non-empty vector, got shape {pj.shape}")
        if not (0.0 <= self.p0 <= 1.0) or not np.all((0.0 <= pj) & (pj <= 1.0)):
            raise ValueError("probabilities must lie in [0, 1]")
        if not self.tail_bound >= 0.0:
            raise ValueError(f"tail_bound must be >= 0, got {self.tail_bound}")
        total = self.p0 + float(np.sum(pj)) + self.tail_bound
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"p0 + sum(pj) + tail_bound = {total!r} deviates from 1 beyond 1e-12")

    @property
    def j_max(self) -> int:
        """Truncation order: the largest heralded photon number held in ``pj``."""
        return self.pj.size


def pair_pmf(model: PairSourceModel, k_max: int) -> np.ndarray:
    """Single-window emission probabilities for ``k = 0 .. k_max``.

    Thermal: ``mu^k / (1 + mu)^(k+1)``; Poissonian: ``mu^k e^-mu / k!``,
    with ``mu`` the per-window mean pair number.  The thermal pmf is evaluated
    as ``r^k / (1 + mu)`` with ``r = mu / (1 + mu) < 1``, the Poissonian one as
    ``exp(k log mu - mu - log k!)``, so neither overflows at any ``k``.
    """
    k_max = _count("k_max", k_max, least=0)
    mu = model.mean_per_window
    if mu == 0.0:
        out = np.zeros(k_max + 1)
        out[0] = 1.0
        return out
    k = np.arange(k_max + 1)
    if model.kind is SourceKind.THERMAL:
        return (mu / (1.0 + mu)) ** k / (1.0 + mu)
    log_factorials = _log_factorial_table(1 << k_max.bit_length())[: k_max + 1]
    return np.exp(k * math.log(mu) - mu - log_factorials)


@lru_cache(maxsize=None)
def _log_factorial_table(size: int) -> np.ndarray:
    """``log k!`` for ``k = 0 .. size - 1``; callers round ``size`` up to a power of two."""
    table = np.array([math.lgamma(k + 1.0) for k in range(size)])
    table.setflags(write=False)
    return table


def _emission_tails(model: PairSourceModel, js: np.ndarray) -> np.ndarray:
    """Probabilities that a window emits more than ``j`` pairs, for each ``j`` in ``js``.

    The Poissonian tail sums the pmf smallest term first, down from
    ``top = mu + 20 sqrt(mu) + 60``, beyond which less than 1e-50 of the mass
    lies.  When every ``j`` lies below the mean, the range stops at
    ``max(js)`` instead and the tail is ``1 - P(K <= j)``, about 1/2 or more
    there, so memory stays bounded for any mean.
    """
    mu = model.mean_per_window
    if mu == 0.0:
        return np.zeros(js.shape)
    if model.kind is SourceKind.THERMAL:
        return np.exp((js + 1) * (math.log(mu) - math.log1p(mu)))
    j_top = int(js.max())
    if mu > j_top:
        return 1.0 - np.cumsum(pair_pmf(model, j_top))[js]
    top = int(mu + 20.0 * math.sqrt(mu)) + 60
    # at_least[k] = P(k <= K <= top + 1); every j >= top reads P(K = top + 1).
    at_least = np.cumsum(pair_pmf(model, top + 1)[::-1])[::-1]
    return at_least[np.minimum(js, top) + 1]


def _truncation(model: PairSourceModel, j_max: int | None) -> tuple[int, float]:
    """Truncation order and its emission tail, checked against ``TAIL_TOL``.

    An omitted ``j_max`` is the smallest order whose tail lies below the
    tolerance, searched up to ``_J_CAP``.

    Raises:
        TruncationError: the given or capped order leaves a tail above ``TAIL_TOL``.
    """
    js = np.arange(1, _J_CAP + 1) if j_max is None else np.array([_count("j_max", j_max)])
    tails = _emission_tails(model, js)
    below = np.nonzero(tails < TAIL_TOL)[0]
    if below.size == 0:
        raise TruncationError(
            f"emission tail {tails[-1]:.3e} beyond j={js[-1]} exceeds tolerance {TAIL_TOL:.1e}",
            tail_bound=float(tails[-1]),
        )
    return int(js[below[0]]), float(tails[below[0]])


def herald_convolve(
    model: PairSourceModel, v_d: float, j_max: int | None = None
) -> HeraldedInputDistribution:
    """Fold the emission distribution with a threshold detector of efficiency ``v_d``.

    Returns the no-click probability ``p0 = sum_k P'(k) (1-v_d)^k`` and the
    heralded-input probabilities ``pj = P'(j) (1 - (1-v_d)^j)``: by the
    binomial theorem, ``1 - (1-v_d)^j`` is the probability that at least one
    of ``j`` idler photons is detected.

    Args:
        model: pair-generation statistics.
        v_d: detector efficiency, a finite number in [0, 1].
        j_max: truncation order; adaptively chosen when omitted.

    Raises:
        TruncationError: the (given or capped) truncation order leaves an
            emission tail above ``TAIL_TOL``.
    """
    v_d = _number("v_d", v_d)
    j_max, tail = _truncation(model, j_max)
    if v_d == 0.0:
        # A blind detector never heralds: all mass sits at "no click".
        return HeraldedInputDistribution(p0=1.0, pj=np.zeros(j_max), tail_bound=0.0)
    pmf = pair_pmf(model, j_max)
    js = np.arange(1, j_max + 1)
    click = -np.expm1(js * math.log1p(-v_d)) if v_d < 1.0 else np.ones(j_max)
    # Deriving the no-click factors from the click probabilities keeps
    # p0 + sum(pj) + tail consistent to machine precision.
    miss = np.empty(j_max + 1)
    miss[0] = 1.0
    miss[1:] = 1.0 - click
    p0 = float(np.sum(pmf * miss))
    pj = pmf[1:] * click
    return HeraldedInputDistribution(p0=p0, pj=pj, tail_bound=tail)
