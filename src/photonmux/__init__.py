"""Photon-number statistics and optimization of multiplexed heralded single-photon sources.

The package models a periodic single-photon source built from M heralded
sources, each time-multiplexed over N windows and spatially multiplexed into
one output.  It computes the exact output photon-number distribution for two
priority logics, validates its statistics and priority rules against a
Monte-Carlo sampler, and optimizes the single-photon probability over the
pump strength and geometry.
"""

from .engine import output_distribution, single_photon_probability
from .montecarlo import simulate
from .optimize import BracketError, SweepSpec, optimize_lambda, sweep
from .statistics import PairSourceModel, SourceKind, TruncationError, herald_convolve, pair_pmf
from .transmission import (
    LossParameters,
    MultiplexerLayout,
    PriorityLogic,
    TransmissionMatrix,
    build_matrix,
    spatial_arm_transmissions,
    time_window_transmission,
)

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "LossParameters",
    "MultiplexerLayout",
    "PairSourceModel",
    "PriorityLogic",
    "SourceKind",
    "SweepSpec",
    "TransmissionMatrix",
    "TruncationError",
    "build_matrix",
    "herald_convolve",
    "optimize_lambda",
    "output_distribution",
    "pair_pmf",
    "simulate",
    "single_photon_probability",
    "spatial_arm_transmissions",
    "sweep",
    "time_window_transmission",
]
