"""Photon-number statistics and optimization of multiplexed heralded single-photon sources.

The package models a periodic single-photon source built from M heralded
sources, each time-multiplexed over N windows and spatially multiplexed into
one output.  It computes the exact output photon-number distribution for two
priority logics, validates it against an independent Monte-Carlo sampler, and
optimizes the single-photon probability over the pump strength and geometry.
"""

from .config import CONFIG_VERSION, ConfigError, RunConfig, parse_config
from .engine import (
    PhotonNumberDistribution,
    output_distribution,
    single_photon_probability,
)
from .montecarlo import simulate
from .optimize import (
    BracketError,
    OptimizationResult,
    SweepSpec,
    maximize_unimodal,
    optimize_lambda,
    sweep,
)
from .statistics import (
    HeraldedInputDistribution,
    PairSourceModel,
    SourceKind,
    TruncationError,
    emission_tail,
    herald_convolve,
    pair_distribution,
    pair_pmf,
)
from .tables import (
    TABLE1_ROWS,
    TABLE2_ROWS,
    Table1Row,
    Table2Row,
    reproduce_table1,
    reproduce_table2,
)
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
    "CONFIG_VERSION",
    "ConfigError",
    "HeraldedInputDistribution",
    "LossParameters",
    "MultiplexerLayout",
    "OptimizationResult",
    "PairSourceModel",
    "PhotonNumberDistribution",
    "PriorityLogic",
    "RunConfig",
    "SourceKind",
    "SweepSpec",
    "TABLE1_ROWS",
    "TABLE2_ROWS",
    "Table1Row",
    "Table2Row",
    "TransmissionMatrix",
    "TruncationError",
    "build_matrix",
    "emission_tail",
    "herald_convolve",
    "maximize_unimodal",
    "optimize_lambda",
    "output_distribution",
    "pair_distribution",
    "pair_pmf",
    "parse_config",
    "reproduce_table1",
    "reproduce_table2",
    "simulate",
    "single_photon_probability",
    "spatial_arm_transmissions",
    "sweep",
    "time_window_transmission",
]
