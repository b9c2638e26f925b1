"""The random-loss-set corpus: 60 loss sets, both sources, the table grids.

Each set draws five uniforms from one ``numpy.random.default_rng(5)`` stream,
in the order and ranges of ``LOSS_RANGES``; ``v_b`` is 1 and the spatial
splitters equal the time-multiplexer ones.  Every set is solved for both
sources on the union of the reference tables' grids: the time and spatial
standalone grids and the combined grid, 91 points.  Off the reference
tables, P(1) often has two peaks in the pump strength, so this is where a
change to the pump-strength search shows.
"""

import numpy as np

from photonmux import LossParameters, SourceKind
from photonmux.tables import COMBINED_M_GRID, COMBINED_N_GRID, STANDALONE_GRID

SEED = 5
SETS = 60
LOSS_RANGES = (
    ("v_r", 0.95, 1.0),
    ("v_t", 0.9, 1.0),
    ("v_p", 0.5, 1.0),
    ("v_p0_s", 0.95, 1.0),
    ("v_d", 0.5, 1.0),
)
SOURCES = (SourceKind.POISSONIAN, SourceKind.THERMAL)


def loss_sets() -> list[LossParameters]:
    """The corpus's loss sets, in drawing order."""
    rng = np.random.default_rng(SEED)
    return [
        LossParameters(**{name: float(rng.uniform(lo, hi)) for name, lo, hi in LOSS_RANGES})
        for _ in range(SETS)
    ]


def grid_points() -> list[tuple[int, int]]:
    """The union of the table grids, (m, n) in increasing order."""
    points = {(1, n) for n in STANDALONE_GRID} | {(m, 1) for m in STANDALONE_GRID}
    points |= {(m, n) for m in COMBINED_M_GRID for n in COMBINED_N_GRID}
    return sorted(points)


def scan_peaks(ys: list[float]) -> int:
    """Peaks that the pump-strength search refines on a scan's values ``ys``.

    The best scan point, plus every other strict local maximum, a bound
    counting as higher than its outer neighbour.
    """
    padded = [-np.inf, *ys, -np.inf]
    best = max(range(len(ys)), key=ys.__getitem__)
    return 1 + sum(
        padded[i] < ys[i] > padded[i + 2] for i in range(len(ys)) if i != best
    )
