"""Command-line interface: sweeps, oracle validation, and reference-table runs.

Subcommands
-----------
``photonmux sweep <config>``
    Optimize every configured (m, n) grid point and write ``surface.csv``,
    ``global.csv`` and per-arm-count curve files ``p1_vs_N_M<value>.csv``.
``photonmux validate <config>``
    Compare the analytic engine against the Monte-Carlo sampler for each
    configured (m, n, lambda) point; write ``validate.csv``.
``photonmux tables [--out DIR]``
    Recompute the built-in reference configurations and write
    ``table1_repro.csv`` / ``table2_repro.csv`` with pass/fail flags.

Exit codes: 0 success; 2 invalid configuration, including a config file that
is not UTF-8, an output directory that cannot be made (such as an existing
file; ``tables --out`` too), a grid value or validation point m or n beyond
4096, more than 2**40 trials, and a validation point whose heralded input
cannot be truncated within tolerance; 3 pump-strength bracketing failure; 4
analytic/Monte-Carlo disagreement beyond 4 standard errors.  Each failure is
one line on stderr, and the output directory is checked before any sweep,
sampling or table run starts; ``sweep`` and ``validate`` make it only to
write their results.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError, _fail, _unmakeable, parse_config
from .engine import DEFAULT_I_MAX, output_distribution
from .montecarlo import simulate
from .optimize import BracketError, sweep
from .statistics import PairSourceModel, TruncationError, herald_convolve
# reproduce_table1 and reproduce_table2 are not called here.  The benchmark's
# traced mode (bench/workloads.py, rebinding_targets) rebinds both names on
# this module, so they stay importable until ROADMAP item 12 replaces the
# rebinding with package counters.
from .tables import (  # noqa: F401
    TABLE1_ROWS,
    TABLE2_ROWS,
    reproduce_table1,
    reproduce_table2,
    reproduce_tables,
)
from .transmission import LossParameters, MultiplexerLayout, TransmissionMatrix, build_matrix

Z_LIMIT = 4.0

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BRACKET = 3
EXIT_DISAGREEMENT = 4


def _fmt(value) -> str:
    """CSV cell formatting: PASS/FAIL for booleans (numpy's too), 10 significant digits for floats."""
    if isinstance(value, (bool, np.bool_)):
        return "PASS" if value else "FAIL"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_sweep(config_path: str | Path) -> int:
    """Execute the sweep described by a config file; write surface/global/curve CSVs."""
    try:
        config = parse_config(config_path)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    try:
        results = [(spec.logic.value, sweep(spec)) for spec in config.sweeps]
    except BracketError as exc:
        print(f"bracket failure: {exc}", file=sys.stderr)
        return EXIT_BRACKET
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)

    surface_rows = [
        [m, n, lam, p1, logic] for logic, result in results for (m, n), (lam, p1) in result.surface.items()
    ]
    _write_csv(out / "surface.csv", ["M", "N", "lambda_opt", "p1", "logic"], surface_rows)
    global_rows = [[logic, *result.best] for logic, result in results]
    _write_csv(out / "global.csv", ["logic", "m_opt", "n_opt", "lambda_opt", "p1_max"], global_rows)
    grid = config.sweeps[0]  # every sweep has the same grid
    for m in grid.m_values:
        curve_rows = [[n, logic, *result.surface[(m, n)]] for n in grid.n_values for logic, result in results]
        _write_csv(out / f"p1_vs_N_M{m}.csv", ["N", "logic", "lambda_opt", "p1"], curve_rows)
    return EXIT_OK


@dataclass(frozen=True)
class BinComparison:
    """Analytic vs empirical probability of one photon-number bin."""

    bin: int
    analytic: float
    empirical: float
    std_err: float
    z: float


def compare_to_oracle(
    model: PairSourceModel,
    params: LossParameters,
    layout: MultiplexerLayout,
    trials: int,
    seed: int,
    analytic_tm: TransmissionMatrix | None = None,
) -> list[BinComparison]:
    """Per-bin z-scores between the analytic engine and the Monte-Carlo sampler.

    Bins ``0 .. DEFAULT_I_MAX`` come first, then one closing bin,
    ``DEFAULT_I_MAX + 1``, for every photon number above ``DEFAULT_I_MAX``:
    empirically the fraction of such trials, analytically ``1 - sum(probs)``
    (floored at 0, which rounding of the sum can undershoot).  So the bins
    depend on the configuration alone, and no empirical count is dropped.
    The standard error of each bin is the larger of the empirical and the
    analytic binomial estimate, which keeps near-empty bins from producing
    spurious rejections; a zero standard error with a nonzero difference
    yields an infinite z.  ``analytic_tm`` feeds a different matrix to the
    analytic side only, which lets a mutation test measure the harness's
    sensitivity; it defaults to ``build_matrix(params, layout)``, whose
    entries are, bit for bit, the cell transmissions that the sampler reads
    as products of the arm and window factors without building a matrix.

    Raises:
        TruncationError: the heralded input cannot be truncated within
            tolerance; raised before any sampling.
        ValueError: the source's window count or the shape of
            ``analytic_tm`` is not the layout's; raised before any sampling.
    """
    if analytic_tm is None:
        analytic_tm = build_matrix(params, layout)
    heralded = herald_convolve(model, params.v_d)
    if heralded.j_max < DEFAULT_I_MAX:
        heralded = herald_convolve(model, params.v_d, j_max=DEFAULT_I_MAX)
    probs = output_distribution(heralded, analytic_tm, layout, i_max=DEFAULT_I_MAX).probs
    sampled = simulate(model, params, layout, trials=trials, seed=seed).probs
    closing = DEFAULT_I_MAX + 1
    analytic = [*probs.tolist(), max(1.0 - math.fsum(probs), 0.0)]
    empirical = sampled[:closing].tolist()
    empirical += [0.0] * (closing - len(empirical)) + [math.fsum(sampled[closing:])]
    comparisons = []
    for i, (p_ana, p_emp) in enumerate(zip(analytic, empirical)):
        # sqrt and the division round monotonically, so this is bit-equal to
        # the larger of the two binomial standard errors.
        se = math.sqrt(max(p_emp * (1.0 - p_emp), p_ana * (1.0 - p_ana)) / trials)
        diff = abs(p_emp - p_ana)
        if se == 0.0:
            z = 0.0 if diff == 0.0 else math.inf
        else:
            z = diff / se
        comparisons.append(BinComparison(bin=i, analytic=p_ana, empirical=p_emp, std_err=se, z=z))
    return comparisons


def run_validate(config_path: str | Path) -> int:
    """Cross-check the analytic engine against the sampler at each configured point."""
    try:
        config = parse_config(config_path)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    path = Path(config_path)
    text = path.read_text(encoding="utf-8")
    for key, unusable, message in (
        ("points", not config.validation_points, 'validate requires a non-empty "points" list'),
        ("trials", config.validation_trials < 100_000, 'validate requires "trials" >= 100000'),
    ):
        if unusable:
            print(_fail(path, text, key, message), file=sys.stderr)
            return EXIT_CONFIG
    rows = []
    worst = None
    cases = itertools.product(config.sweeps, config.validation_points)  # logic-major
    for case, (spec, (m, n, lam)) in enumerate(cases):
        logic = spec.logic
        layout = MultiplexerLayout(m=m, n=n, logic=logic)
        model = PairSourceModel(kind=spec.source_kind, mean_pairs=lam, n_windows=n)
        # Stable per-case seed offset keeps the points statistically independent.
        seed = config.validation_seed + case
        try:
            comparisons = compare_to_oracle(model, spec.params, layout, trials=config.validation_trials, seed=seed)
        except TruncationError as exc:
            message = f"cannot validate point [{m}, {n}, {lam}]: {exc}"
            print(_fail(path, text, "points", message), file=sys.stderr)
            return EXIT_CONFIG
        for c in comparisons:
            rows.append([m, n, lam, logic.value, c.bin, c.analytic, c.empirical, c.std_err, c.z])
            if c.z > Z_LIMIT and (worst is None or c.z > worst[4].z):
                worst = (m, n, lam, logic, c)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        config.output_dir / "validate.csv",
        ["m", "n", "lambda", "logic", "bin", "analytic", "empirical", "std_err", "z"],
        rows,
    )
    if worst is not None:
        m, n, lam, logic, c = worst
        print(
            f"disagreement at bin {c.bin} of (m={m}, n={n}, lambda={lam}, logic={logic.value}): "
            f"analytic {c.analytic:.6g} vs empirical {c.empirical:.6g}, |z| = {c.z:.2f} > {Z_LIMIT}",
            file=sys.stderr,
        )
        return EXIT_DISAGREEMENT
    return EXIT_OK


# Each reference table's CSV columns, in order: a header and the cell it takes from one result.
_TABLE1_COLUMNS = (
    ("no", lambda r: r.row.no),
    ("v_r", lambda r: r.row.v_r),
    ("v_t", lambda r: r.row.v_t),
    ("v_p", lambda r: r.row.v_p),
    ("v_p0_s", lambda r: r.row.v_p0_s),
    ("p_time", lambda r: r.time.p1),
    ("n_time_opt", lambda r: r.time.size),
    ("lambda_time", lambda r: r.time.lambda_opt),
    ("p_time_ref", lambda r: r.row.p_time_ref),
    ("n_time_ref", lambda r: r.row.n_time_ref),
    ("time_flag", lambda r: r.time_ok),
    ("p_spatial", lambda r: r.spatial.p1),
    ("m_spatial_opt", lambda r: r.spatial.size),
    ("lambda_spatial", lambda r: r.spatial.lambda_opt),
    ("p_spatial_ref", lambda r: r.row.p_spatial_ref),
    ("m_spatial_ref", lambda r: r.row.m_spatial_ref),
    ("spatial_flag", lambda r: r.spatial_ok),
)

_TABLE2_COLUMNS = (
    ("no", lambda r: r.row.no),
    ("v_t", lambda r: r.row.v_t),
    ("v_r", lambda r: r.row.v_r),
    ("v_p", lambda r: r.row.v_p),
    ("v_t_s", lambda r: r.row.v_t_s),
    ("v_r_s", lambda r: r.row.v_r_s),
    ("v_p0_s", lambda r: r.row.v_p0_s),
    ("p_time", lambda r: r.time.p1),
    ("n_time_opt", lambda r: r.time.size),
    ("p_spatial", lambda r: r.spatial.p1),
    ("m_spatial_opt", lambda r: r.spatial.size),
    ("p_standalone_ref", lambda r: r.row.p_standalone_ref),
    ("m_spatial_ref", lambda r: r.row.m_spatial_ref),
    ("n_time_ref", lambda r: r.row.n_time_ref),
    ("standalone_flag", lambda r: r.standalone_ok),
    ("p_combined", lambda r: r.combined[3]),
    ("m_combined_opt", lambda r: r.combined[0]),
    ("n_combined_opt", lambda r: r.combined[1]),
    ("lambda_combined", lambda r: r.combined[2]),
    ("p_combined_ref", lambda r: r.row.p_combined_ref),
    ("m_combined_ref", lambda r: r.row.m_combined_ref),
    ("n_combined_ref", lambda r: r.row.n_combined_ref),
    ("combined_flag", lambda r: r.combined_ok),
    ("product_flag", lambda r: r.product_ok),
)


def run_tables(out_dir: str | Path = ".", rows1=TABLE1_ROWS, rows2=TABLE2_ROWS) -> int:
    """Recompute the built-in reference configurations and write comparison CSVs."""
    out = Path(out_dir)
    unmakeable = _unmakeable("output directory", out)
    if unmakeable:
        print(unmakeable, file=sys.stderr)
        return EXIT_CONFIG
    out.mkdir(parents=True, exist_ok=True)
    reports = zip(("table1", "table2"), reproduce_tables(rows1, rows2), (_TABLE1_COLUMNS, _TABLE2_COLUMNS))
    for name, results, columns in reports:
        header = [header for header, _ in columns]
        _write_csv(out / f"{name}_repro.csv", header, [[cell(r) for _, cell in columns] for r in results])
        for r in results:
            print(f"{name} row {r.row.no}: {'PASS' if r.passes else 'FAIL'}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonmux",
        description="Photon-number statistics and optimization of multiplexed heralded single-photon sources.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_sweep = sub.add_parser("sweep", help="optimize the configured (m, n) grid")
    p_sweep.add_argument("config", help="path to a JSON run configuration")
    p_validate = sub.add_parser("validate", help="cross-check the engine against the Monte-Carlo sampler")
    p_validate.add_argument("config", help="path to a JSON run configuration")
    p_tables = sub.add_parser("tables", help="recompute the built-in reference tables")
    p_tables.add_argument("--out", default=".", help="output directory (default: current directory)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "sweep":
        return run_sweep(args.config)
    if args.command == "validate":
        return run_validate(args.config)
    return run_tables(args.out)


if __name__ == "__main__":
    sys.exit(main())
