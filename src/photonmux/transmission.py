"""Net transmission of the bulk-optics combined multiplexer.

The device routes a heralded photon from time window ``n`` of spatial arm
``k`` to the common output.  Its survival probability factorizes as
``V[k, n] = V_arm(k) * V_window(n)``: the time multiplexer is a binary
division delay network whose PBS reflection/transmission count follows the
binary representation of the required delay, and the spatial multiplexer is
a binary tree of polarizing-beam-splitter routers whose arm losses follow the
binomial expansion of ``(v_r_s + v_t_s)^levels``.

The input rules of every record live here: ``_count`` (an integer, no bool),
``_number`` (a finite float in range, no bool or string), ``_size``, the
rule of every m and n the built-in builders take (a count that is a power of
2 up to ``_GRID_MAX``), and ``_typed`` (an instance of a record or enum
type); the config parser builds its values through them too.
"""

from __future__ import annotations

import math
import numbers
import operator
import reprlib
import sys
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property

import numpy as np


class PriorityLogic(Enum):
    """Rule selecting which heralded (arm, window) cell feeds the output."""

    LOWEST_LOSS = "lowest_loss"
    FIRST_DETECTION = "first_detection"


# Largest m and n of the built-in geometry.  A size sets the length of an
# array built in Python, so an unbounded one could exhaust memory.
_GRID_MAX = 4096


def _is_power_of_two(x: int) -> bool:
    return x >= 1 and (x & (x - 1)) == 0


def _count(name: str, value, least: int = 1) -> int:
    """``value`` as a Python int >= ``least``; a float, even integral, a string or a bool is refused.

    ``operator.index`` takes ``True`` as 1, so booleans are refused first.
    """
    if not isinstance(value, bool):
        try:
            count = operator.index(value)
        except TypeError:
            pass
        else:
            if count >= least:
                return count
    raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _size(name: str, value) -> int:
    """``value`` as a count, by ``_count``'s rule, that is a power of 2 up to ``_GRID_MAX``."""
    size = _count(name, value)
    if not (_is_power_of_two(size) and size <= _GRID_MAX):
        raise ValueError(f"{name} must be a power of 2 up to {_GRID_MAX}, got {size}")
    return size


def _number(name: str, value, hi: float = 1.0) -> float:
    """``value`` as a finite Python float in [0, ``hi``]; a bool, a string or NaN is refused.

    Compared before it is converted, so an int too large for a float is
    refused, not overflowed.  Like ``_count``'s, the message begins with ``name``.
    """
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if real and 0 <= value <= min(hi, sys.float_info.max):
        return float(value)
    rule = ">= 0" if hi == math.inf else f"in [0, {hi:g}]"
    raise ValueError(f"{name} must be a finite number {rule}, got {reprlib.repr(value)}")


def _typed(name: str, value, kind: type) -> None:
    """Refuse ``value`` unless it is a ``kind``: a dict, a string or None in its place fails by name."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")


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
    Each is stored as a Python float through ``_number``.
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
        for field in fields(self):
            value = getattr(self, field.name)
            if value is None and field.default is None:
                # v_r_s or v_t_s: the time multiplexer's value, already checked.
                value = getattr(self, field.name.removesuffix("_s"))
            object.__setattr__(self, field.name, _number(field.name, value))


@dataclass(frozen=True)
class MultiplexerLayout:
    """Geometry and priority logic: ``m`` spatial arms, ``n`` time windows.

    The built-in transmission builders require ``m`` and ``n`` to be powers
    of 2 up to 4096 (binary-tree geometry, ``_size``); a layout with other
    sizes is accepted here and usable with an externally supplied
    transmission matrix.
    """

    m: int
    n: int
    logic: PriorityLogic = PriorityLogic.LOWEST_LOSS

    def __post_init__(self):
        for name in ("m", "n"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        _typed("logic", self.logic, PriorityLogic)


@dataclass(frozen=True)
class RowRuns:
    """A transmission matrix with each run of consecutive identical rows kept once.

    ``rows[r]`` is the row shared by the ranks from ``starts[r]`` up to the
    next run's start, the last run's up to ``ranks``, the matrix's row count.
    Construction merges equal neighbouring rows, keeps the arrays uncopied
    when none merge, and makes both read-only.  Equal rows that are not
    adjacent stay separate runs, so the runs depend on the row values alone.
    It raises ``ValueError`` unless ``rows`` is 2-D with one integer start
    per row, the starts increasing strictly from 0 and the last below ``ranks``.
    """

    rows: np.ndarray
    starts: np.ndarray
    ranks: int

    def __post_init__(self):
        ranks = _count("ranks", self.ranks)
        rows, starts = np.asarray(self.rows, dtype=float), np.asarray(self.starts)
        if rows.ndim != 2 or starts.shape != rows.shape[:1]:
            raise ValueError(f"rows must be 2-D with one start each, got shapes {rows.shape}, {starts.shape}")
        bounds = starts.tolist()
        valid = starts.dtype.kind in "iu" and bounds[:1] == [0] and bounds[-1] < ranks
        if not (valid and all(map(operator.lt, bounds, bounds[1:]))):
            raise ValueError(f"starts {bounds} do not split {ranks} ranks into one run per row")
        differs = (rows[1:] != rows[:-1]).any(axis=1)
        if not differs.all():
            keep = np.concatenate(([True], differs))
            rows, starts = rows[keep], starts[keep]
        for array in (rows, starts):
            array.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "ranks", ranks)


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
        return RowRuns(rows=self.values, starts=np.arange(len(self.values)), ranks=len(self.values))


def time_window_transmission(params: LossParameters, n: int, big_n: int) -> float:
    """Transmission for a photon heralded in window ``n`` of an ``big_n``-window delay network.

    The photon needs a delay of ``big_n - n`` window lengths; each set bit of
    that delay routes it through one reflection, each clear bit through one
    transmission, and propagation scales with the delay fraction:
    ``v_r^h * v_t^(levels-h) * v_p^((big_n-n)/big_n) * v_b`` with ``h`` the
    number of set bits (Hamming weight).
    """
    big_n, n = _size("window count", big_n), _count("window index", n)
    if n > big_n:
        raise ValueError(f"window index must lie in 1..{big_n}, got {n}")
    return _delay_transmission(params, _splitter_factors(params, big_n), big_n - n, big_n)


def _ranked_arms(params: LossParameters, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted arm transmissions and the permutation from canonical enumeration."""
    m = _size("arm count", m)
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
    n = _size("window count", n)
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
    """Runs of the ``m`` ranked arm transmissions as one-column rows: each distinct value once."""
    arm_values, _ = _ranked_arms(params, m)
    return RowRuns(rows=arm_values[:, None], starts=np.arange(m), ranks=m)


def build_matrix(params: LossParameters, layout: MultiplexerLayout) -> TransmissionMatrix:
    """Assemble the full transmission matrix ``V[k, n] = V_arm(k) * V_window(n)``.

    Raises:
        ValueError: ``params`` is not a ``LossParameters`` or ``layout`` not a
            ``MultiplexerLayout``, or a size breaks ``_size``'s rule.
    """
    _typed("params", params, LossParameters)
    _typed("layout", layout, MultiplexerLayout)
    arm_values, order = _ranked_arms(params, layout.m)
    return TransmissionMatrix(
        values=np.outer(arm_values, _window_column(params, layout.n)),
        arm_order=tuple(order.tolist()),
    )
