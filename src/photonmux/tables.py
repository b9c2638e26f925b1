"""Reference loss-parameter sets and their published optima, with reproduction runs.

Two benchmark sets are built in.  The first lists seven loss combinations for
standalone multiplexers with their reference maxima (three decimals).  The
second lists twelve combinations chosen so that the standalone time and
spatial maxima coincide, with reference values for both the standalone
maximum and the combined-multiplexer maximum (four decimals).  Detector
efficiency 0.9 and basic transmission 1 apply throughout.

``reproduce_tables`` recomputes the rows of both tables and flags agreement
at the reference precision: probabilities within 5e-4 and optimal (m, n)
matched exactly.  A table-1 row takes a time and a spatial sweep, a
table-2 row a combined, a time and a spatial sweep, and every sweep of a
run is solved as one (``optimize._solve``): one P(1) kernel over all their
grid points, one scan call per window count and one call per round of
Brent steps.  A full run of both tables makes 10 scan calls and 16 rounds
for its 1,244 grid points, where a solve per sweep made 317 and 537; the
time and spatial sweeps, of one point per window count or one window count
in all, add almost nothing to the combined grids' calls.  Each sweep still
gets its own ``sweep`` call, through this module's name, so a tracer that
wraps ``sweep`` sees every sweep, and each optimum is bit for bit the one
its sweep gives alone.  ``reproduce_table1`` and ``reproduce_table2`` are
its one-table cases, ``reproduce_table1_row`` and ``reproduce_table2_row``
its one-row cases.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .optimize import OptimizationResult, SweepSpec, _grid_points, _solve, sweep
from .transmission import LossParameters

PROB_TOL = 5e-4

REFERENCE_V_D = 0.9
REFERENCE_V_B = 1.0

# Standalone sweeps cover m or n in 1..512; combined sweeps cover
# m in 2..256 and n in 2..512 (the reference combined optima deliberately
# exclude the standalone configurations m = 1 and n = 1).
STANDALONE_GRID = tuple(2**i for i in range(10))
COMBINED_M_GRID = tuple(2**i for i in range(1, 9))
COMBINED_N_GRID = tuple(2**i for i in range(1, 10))


class _ReferenceRow:
    """A reference row whose ``v_*`` fields are efficiencies of its loss set."""

    def losses(self) -> LossParameters:
        """The row's loss set, at the reference detector efficiency and basic transmission."""
        given = {f.name: getattr(self, f.name) for f in fields(self) if f.name.startswith("v_")}
        return LossParameters(v_d=REFERENCE_V_D, v_b=REFERENCE_V_B, **given)


@dataclass(frozen=True)
class Table1Row(_ReferenceRow):
    """Loss set and reference standalone optima (time and spatial)."""

    no: int
    v_r: float
    v_t: float
    v_p: float
    v_p0_s: float
    p_time_ref: float
    n_time_ref: int
    p_spatial_ref: float
    m_spatial_ref: int


@dataclass(frozen=True)
class Table2Row(_ReferenceRow):
    """Loss set with equal standalone maxima, plus the combined reference optimum."""

    no: int
    v_t: float
    v_r: float
    v_p: float
    v_t_s: float
    v_r_s: float
    v_p0_s: float
    p_standalone_ref: float
    m_spatial_ref: int
    n_time_ref: int
    p_combined_ref: float
    m_combined_ref: int
    n_combined_ref: int


TABLE1_ROWS: tuple[Table1Row, ...] = (
    Table1Row(1, 0.990, 0.97, 0.95, 0.985, 0.832, 128, 0.800, 64),
    Table1Row(2, 0.990, 0.97, 0.97, 0.990, 0.846, 128, 0.822, 64),
    Table1Row(3, 0.993, 0.97, 0.96, 0.985, 0.850, 128, 0.809, 64),
    Table1Row(4, 0.996, 0.97, 0.95, 0.990, 0.854, 128, 0.842, 128),
    Table1Row(5, 0.996, 0.98, 0.95, 0.990, 0.874, 128, 0.857, 128),
    Table1Row(6, 0.996, 0.99, 0.95, 0.990, 0.899, 256, 0.873, 128),
    Table1Row(7, 0.996, 0.99, 0.96, 0.995, 0.907, 256, 0.904, 256),
)

TABLE2_ROWS: tuple[Table2Row, ...] = (
    Table2Row(1, 0.970, 0.996, 0.9500, 0.970, 0.996, 0.9922, 0.8545, 128, 128, 0.8531, 2, 64),
    Table2Row(2, 0.988, 0.991, 0.9589, 0.988, 0.991, 0.9950, 0.8784, 128, 256, 0.8784, 2, 128),
    Table2Row(3, 0.988, 0.992, 0.9568, 0.990, 0.991, 0.9949, 0.8812, 128, 256, 0.8806, 2, 128),
    Table2Row(4, 0.988, 0.990, 0.9507, 0.988, 0.990, 0.9940, 0.8683, 128, 128, 0.8684, 2, 64),
    Table2Row(5, 0.990, 0.996, 0.9297, 0.986, 0.993, 0.9950, 0.8834, 128, 256, 0.8840, 2, 128),
    Table2Row(6, 0.990, 0.996, 0.9508, 0.990, 0.996, 0.9943, 0.8996, 256, 256, 0.8999, 2, 128),
    Table2Row(7, 0.970, 0.993, 0.9606, 0.980, 0.993, 0.9910, 0.8506, 128, 128, 0.8475, 2, 64),
    Table2Row(8, 0.980, 0.993, 0.9656, 0.990, 0.996, 0.9901, 0.8740, 128, 128, 0.8720, 2, 64),
    Table2Row(9, 0.980, 0.996, 0.9655, 0.990, 0.992, 0.9950, 0.8860, 128, 256, 0.8822, 2, 128),
    Table2Row(10, 0.980, 0.990, 0.9501, 0.970, 0.996, 0.9917, 0.8516, 128, 128, 0.8541, 2, 64),
    Table2Row(11, 0.990, 0.991, 0.9493, 0.980, 0.995, 0.9940, 0.8762, 128, 256, 0.8799, 4, 64),
    Table2Row(12, 0.990, 0.993, 0.9518, 0.980, 0.996, 0.9951, 0.8869, 128, 256, 0.8906, 4, 64),
)


@dataclass(frozen=True)
class StandaloneOptimum:
    p1: float
    size: int  # optimal n for a time sweep, optimal m for a spatial sweep
    lambda_opt: float


def _agrees(p1: float, size, p_ref: float, size_ref) -> bool:
    """Agreement at the reference precision: ``p1`` within ``PROB_TOL``, the optimal size exact."""
    return abs(p1 - p_ref) <= PROB_TOL and size == size_ref


def _standalone_specs(params: LossParameters) -> list[SweepSpec]:
    """The time sweep (windows at one arm) and the spatial sweep (arms at one window) of a loss set."""
    return [
        SweepSpec(m_values=(1,), n_values=STANDALONE_GRID, params=params),
        SweepSpec(m_values=STANDALONE_GRID, n_values=(1,), params=params),
    ]


def _standalone_optimum(result: OptimizationResult) -> StandaloneOptimum:
    """The best point of a standalone sweep, its size the one grid value that is not 1."""
    m, n, lam, p1 = result.best
    return StandaloneOptimum(p1=p1, size=m * n, lambda_opt=lam)


@dataclass(frozen=True)
class Table1Result:
    row: Table1Row
    time: StandaloneOptimum
    spatial: StandaloneOptimum

    @property
    def time_ok(self) -> bool:
        return _agrees(self.time.p1, self.time.size, self.row.p_time_ref, self.row.n_time_ref)

    @property
    def spatial_ok(self) -> bool:
        return _agrees(self.spatial.p1, self.spatial.size, self.row.p_spatial_ref, self.row.m_spatial_ref)

    @property
    def passes(self) -> bool:
        return self.time_ok and self.spatial_ok


@dataclass(frozen=True)
class Table2Result:
    row: Table2Row
    time: StandaloneOptimum
    spatial: StandaloneOptimum
    combined: tuple[int, int, float, float]  # (m, n, lambda_opt, p1)

    @property
    def standalone_ok(self) -> bool:
        row = self.row
        time_ok = _agrees(self.time.p1, self.time.size, row.p_standalone_ref, row.n_time_ref)
        spatial_ok = _agrees(self.spatial.p1, self.spatial.size, row.p_standalone_ref, row.m_spatial_ref)
        return time_ok and spatial_ok

    @property
    def combined_ok(self) -> bool:
        m, n, _, p1 = self.combined
        row = self.row
        return _agrees(p1, (m, n), row.p_combined_ref, (row.m_combined_ref, row.n_combined_ref))

    @property
    def product_ok(self) -> bool:
        """Computed combined optimum satisfies m_opt * n_opt = n_time_opt."""
        return self.combined[0] * self.combined[1] == self.time.size

    @property
    def passes(self) -> bool:
        return self.standalone_ok and self.combined_ok


def reproduce_tables(
    rows1: tuple[Table1Row, ...] = TABLE1_ROWS, rows2: tuple[Table2Row, ...] = TABLE2_ROWS
) -> tuple[list[Table1Result], list[Table2Result]]:
    """Every row of both tables, with all their sweeps solved as one."""
    specs = [spec for row in rows1 for spec in _standalone_specs(row.losses())]
    for row in rows2:
        params = row.losses()
        combined = SweepSpec(m_values=COMBINED_M_GRID, n_values=COMBINED_N_GRID, params=params)
        specs += [combined, *_standalone_specs(params)]
    refined = _solve([(spec, _grid_points(spec)) for spec in specs])
    results = iter([sweep(spec, _refined=refined) for spec in specs])
    table1 = [
        Table1Result(row=row, time=_standalone_optimum(next(results)), spatial=_standalone_optimum(next(results)))
        for row in rows1
    ]
    table2 = [
        Table2Result(
            row=row,
            combined=next(results).best,
            time=_standalone_optimum(next(results)),
            spatial=_standalone_optimum(next(results)),
        )
        for row in rows2
    ]
    return table1, table2


def reproduce_table1(rows: tuple[Table1Row, ...] = TABLE1_ROWS) -> list[Table1Result]:
    return reproduce_tables(rows, ())[0]


def reproduce_table2(rows: tuple[Table2Row, ...] = TABLE2_ROWS) -> list[Table2Result]:
    return reproduce_tables((), rows)[1]


def reproduce_table1_row(row: Table1Row) -> Table1Result:
    return reproduce_table1((row,))[0]


def reproduce_table2_row(row: Table2Row) -> Table2Result:
    return reproduce_table2((row,))[0]
