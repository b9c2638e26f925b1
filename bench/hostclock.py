"""Host-speed reference: fixed kernels timed alongside the workload.

The reference machine is a share of a busy host, and the speed it gives one
process drifts by up to 1.7x over seconds to minutes while no steal time
shows in ``/proc/stat``: the same ``optimize.sweep`` call took 0.10 s in one
minute and 0.18 s a few minutes later.  Every call of a timed phase slows
with the host, so raw wall times of runs made at different moments spread
by more than any usable bound.

This module times a fixed kernel that does not use photonmux between blocks
of calls, and the benchmark reports each call's time scaled by
``reference / kernel time``: the time the call would take on a host where
the kernel takes its reference time.  A change to photonmux moves the
scaled time exactly as it moves the raw time; a change in host speed moves
the kernel with it and cancels.  How much a slow host slows a piece of code
depends on what it does (interpreted Python slows more than a pass over a
large array), so each workload's kernel is built from the parts below that
do the kinds of work its calls do.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Calibration time after a block of calls, as a share of the block's time.
CALIBRATION_SHARE = 0.05

_SMALL_A = np.linspace(0.0, 1.0, 300)
_SMALL_B = np.linspace(1.0, 2.0, 50)
_GRID_A = np.random.default_rng(0).random((256, 512))
_GRID_B = np.random.default_rng(1).random((256, 512))


def interpreted() -> float:
    """Python-level float arithmetic, as in the optimizer and config code."""
    total = 0.0
    for i in range(20_000):
        total += (i * 0.5) % 7.0
    return total


def small_arrays() -> float:
    """Many numpy calls on arrays of a few hundred elements, as in ``herald_convolve``."""
    total = 0.0
    for i in range(300):
        total += float(np.convolve(_SMALL_A, _SMALL_B)[i]) + float(np.sum(_SMALL_A * _SMALL_A[i]))
    return total


def grid_arrays() -> float:
    """Elementwise passes over a 256 x 512 grid, as in the engine on the table-2 grid."""
    total = 0.0
    for _ in range(3):
        total += float(np.sum(np.cumprod(_GRID_A * _GRID_B + 0.5, axis=1)[:, -1]))
    return total


def sampling() -> float:
    """Random draws over arrays of millions of elements, as in the Monte-Carlo sampler."""
    rng = np.random.default_rng(4)
    pairs = rng.poisson(0.3, size=(40_000, 32))
    clicked = rng.random((40_000, 32)) < 1.0 - 0.1**pairs
    return float(clicked.any(axis=1).sum())


def fresh_memory() -> float:
    """A new 64 MB array, which the system has to map and zero page by page.

    A Monte-Carlo call allocates about 1 GB of new arrays, and the system
    time this costs swings from 0.2 s to 0.8 s with the host.
    """
    ones = np.ones(8 << 20)
    return float(ones[::4096].sum())


# What each part takes on the reference machine (2-vCPU KVM guest, Intel
# Xeon, numpy 2.4.6) when its host is quiet.
REFERENCE_S = {
    "interpreted": 0.002,
    "small_arrays": 0.0035,
    "grid_arrays": 0.004,
    "sampling": 0.05,
    "fresh_memory": 0.02,
}


class Clock:
    """A kernel made of the named parts above, and its reference time."""

    def __init__(self, parts: tuple[str, ...]):
        self.parts = [globals()[name] for name in parts]
        self.reference_s = sum(REFERENCE_S[name] for name in parts)

    def sample(self, seconds: float) -> list[float]:
        """Kernel times: at least one, and as many as fit in ``seconds``."""
        times: list[float] = []
        while not times or sum(times) < seconds:
            t0 = time.perf_counter()
            for part in self.parts:
                part()
            times.append(time.perf_counter() - t0)
        return times

    def scale(self, times: list[float]) -> float:
        """Factor from measured seconds to reference seconds.

        The mean, not the median: the host switches between speeds within
        a block, and a call pays each speed for the share of time it lasts.
        """
        return self.reference_s / statistics.fmean(times)
