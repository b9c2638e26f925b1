"""Net transmission of the bulk-optics combined multiplexer.

The device routes a heralded photon from time window ``n`` of spatial arm
``k`` to the common output.  Its survival probability factorizes as
``V[k, n] = V_arm(k) * V_window(n)``: the time multiplexer is a binary
division delay network whose PBS reflection/transmission count follows the
binary representation of the required delay, and the spatial multiplexer is
a binary tree of polarizing-beam-splitter routers whose arm losses follow the
binomial expansion of ``(v_r_s + v_t_s)^levels``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property

import numpy as np


class PriorityLogic(Enum):
    """Rule selecting which heralded (arm, window) cell feeds the output."""

    LOWEST_LOSS = "lowest_loss"
    FIRST_DETECTION = "first_detection"


def _is_power_of_two(x: int) -> bool:
    return x >= 1 and (x & (x - 1)) == 0


def _count(name: str, value) -> int:
    """``value`` as a Python int >= 1; a float, even integral, a string or a bool is refused.

    ``operator.index`` takes ``True`` as 1, so booleans are refused first.
    """
    if not isinstance(value, bool):
        try:
            count = operator.index(value)
        except TypeError:
            pass
        else:
            if count >= 1:
                return count
    raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class LossParameters:
    """Transmission efficiencies of every optical element, each in [0, 1].

    ``v_r`` / ``v_t``: PBS reflection / transmission in the time multiplexer.
    ``v_r_s`` / ``v_t_s``: same for the spatial multiplexer; default to the
    time-multiplexer values (identical beam splitters).
    ``v_p``: propagation through the full delay medium of the time multiplexer.
    ``v_p0_s``: propagation per router level of the spatial multiplexer.
    ``v_b``: basic generic transmission (optical switches etc.).
    ``v_d``: heralding detector efficiency.
    """

    v_r: float
    v_t: float
    v_p: float
    v_p0_s: float
    v_d: float
    v_b: float = 1.0
    v_r_s: float | None = None
    v_t_s: float | None = None

    def __post_init__(self):
        if self.v_r_s is None:
            object.__setattr__(self, "v_r_s", self.v_r)
        if self.v_t_s is None:
            object.__setattr__(self, "v_t_s", self.v_t)
        for field in fields(self):
            value = getattr(self, field.name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{field.name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class MultiplexerLayout:
    """Geometry and priority logic: ``m`` spatial arms, ``n`` time windows.

    The built-in transmission builders require ``m`` and ``n`` to be powers
    of two (binary-tree geometry); a layout with other sizes is accepted here
    and usable with an externally supplied transmission matrix.
    """

    m: int
    n: int
    logic: PriorityLogic = PriorityLogic.LOWEST_LOSS

    def __post_init__(self):
        for name in ("m", "n"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        if not isinstance(self.logic, PriorityLogic):
            raise ValueError(f"logic must be a PriorityLogic, got {self.logic!r}")


@dataclass(frozen=True)
class RowRuns:
    """A transmission matrix with each run of consecutive identical rows kept once.

    ``rows[r]`` is the row shared by the ranks from ``starts[r]`` up to the
    next run's start.  Equal rows that are not adjacent stay separate runs,
    so the runs depend on the row values alone.
    """

    rows: np.ndarray
    starts: np.ndarray


def _merge_equal_rows(rows: np.ndarray, starts: np.ndarray) -> RowRuns:
    """Runs of the candidate rows ``rows[r]``, each from rank ``starts[r]``, merging equal neighbours.

    With no equal neighbours, the common case (a sweep point's arm values
    are distinct, and only a zero window column or products that round
    alike make equal rows), the runs are the candidates themselves, uncopied.
    """
    differs = (rows[1:] != rows[:-1]).any(axis=1)
    if differs.all():
        runs = RowRuns(rows=rows, starts=starts)
    else:
        keep = np.concatenate(([True], differs))
        runs = RowRuns(rows=rows[keep], starts=starts[keep])
    for array in (runs.rows, runs.starts):
        array.setflags(write=False)
    return runs


@dataclass(frozen=True)
class TransmissionMatrix:
    """Net transmissions ``values[k, n]``, rows ordered by descending arm transmission.

    Row index is the arm's priority rank (rank 0 = best arm); ``arm_order``
    records which arm of the canonical enumeration landed at each rank.
    """

    values: np.ndarray
    arm_order: tuple[int, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError(f"values must be a 2-D matrix, got shape {values.shape}")
        if not np.all((0.0 <= values) & (values <= 1.0)):
            raise ValueError("transmission entries must lie in [0, 1]")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if len(self.arm_order) != values.shape[0]:
            raise ValueError("arm_order length must equal the number of arms")

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @cached_property
    def row_runs(self) -> RowRuns:
        """Runs of consecutive identical rows, computed once per matrix."""
        return _merge_equal_rows(self.values, np.arange(self.values.shape[0]))


def time_window_transmission(params: LossParameters, n: int, big_n: int) -> float:
    """Transmission for a photon heralded in window ``n`` of an ``big_n``-window delay network.

    The photon needs a delay of ``big_n - n`` window lengths; each set bit of
    that delay routes it through one reflection, each clear bit through one
    transmission, and propagation scales with the delay fraction:
    ``v_r^h * v_t^(levels-h) * v_p^((big_n-n)/big_n) * v_b`` with ``h`` the
    number of set bits (Hamming weight).
    """
    if not 1 <= n <= big_n:
        raise ValueError(f"window index must lie in 1..{big_n}, got {n}")
    return _delay_transmission(params, _splitter_factors(params, big_n), big_n - n, big_n)


def _ranked_arms(params: LossParameters, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted arm transmissions and the permutation from canonical enumeration."""
    if not _is_power_of_two(m):
        raise ValueError(f"arm count must be a power of 2, got {m}")
    levels = m.bit_length() - 1
    reflections = range(levels, -1, -1)
    v_r_s, v_t_s = params.v_r_s, params.v_t_s
    # Equal splitters give every arm one value, which the product form would round apart.
    values = [v_r_s**levels if v_r_s == v_t_s else v_r_s**q * v_t_s ** (levels - q) for q in reflections]
    arms = np.repeat(values, [math.comb(levels, q) for q in reflections])
    order = np.argsort(-arms, kind="stable")
    return arms[order] * params.v_p0_s**levels, order


def spatial_arm_transmissions(params: LossParameters, m: int) -> np.ndarray:
    """Arm transmissions of an ``m``-input router tree, sorted descending.

    Each arm crosses ``levels = log2(m)`` beam splitters, ``q`` by reflection
    and ``levels - q`` by transmission; ``C(levels, q)`` arms share each
    value.  A common per-level propagation factor ``v_p0_s^levels`` applies.
    Sorting descending realizes the lowest-loss priority labeling whichever
    of ``v_r_s`` and ``v_t_s`` dominates; ties keep the canonical
    (descending-reflection-count) enumeration order.
    """
    values, _ = _ranked_arms(params, m)
    return values


def _splitter_factors(params: LossParameters, n: int) -> list[float]:
    """``v_r^h * v_t^(levels-h)`` for ``h = 0 .. levels`` reflections of an ``n``-window network."""
    if not _is_power_of_two(n):
        raise ValueError(f"window count must be a power of 2, got {n}")
    levels = n.bit_length() - 1
    return [params.v_r**h * params.v_t ** (levels - h) for h in range(levels + 1)]


def _delay_transmission(params: LossParameters, splitter: list[float], d: int, n: int) -> float:
    """Transmission of a photon delayed by ``d`` of ``n`` windows, given ``_splitter_factors(params, n)``."""
    return splitter[d.bit_count()] * params.v_p ** (d / n) * params.v_b


def _window_column(params: LossParameters, n: int) -> np.ndarray:
    """Transmissions of windows 1 .. n (delays n - 1 .. 0), each as ``time_window_transmission`` gives it.

    The splitter factor takes one of ``levels + 1`` values, computed once.
    """
    splitter = _splitter_factors(params, n)
    return np.array([_delay_transmission(params, splitter, d, n) for d in range(n - 1, -1, -1)])


def _arm_runs(params: LossParameters, m: int) -> RowRuns:
    """Each distinct ranked arm transmission once, as a one-column row, from the rank its run starts at."""
    arm_values, _ = _ranked_arms(params, m)
    return _merge_equal_rows(arm_values[:, None], np.arange(m))


def _factored_runs(arm_runs: RowRuns, window_column: np.ndarray) -> RowRuns:
    """``build_matrix(...).row_runs``, built from the factors without the full matrix.

    Ranks of equal arm transmission share a row.  Adjacent distinct arm
    values can still give equal rows (a zero window column, or products that
    round alike), and those merge too, so the runs equal the matrix's own.
    """
    return _merge_equal_rows(arm_runs.rows * window_column, arm_runs.starts)


def build_matrix(params: LossParameters, layout: MultiplexerLayout) -> TransmissionMatrix:
    """Assemble the full transmission matrix ``V[k, n] = V_arm(k) * V_window(n)``."""
    arm_values, order = _ranked_arms(params, layout.m)
    return TransmissionMatrix(
        values=np.outer(arm_values, _window_column(params, layout.n)),
        arm_order=tuple(order.tolist()),
    )
