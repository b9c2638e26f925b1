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

Exit codes: 0 success, 2 invalid configuration, 3 pump-strength bracketing
failure, 4 analytic/Monte-Carlo disagreement beyond 4 standard errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError, parse_config
from .engine import DEFAULT_I_MAX, output_distribution
from .montecarlo import simulate
from .optimize import BracketError, SweepSpec, sweep
from .statistics import PairSourceModel, herald_convolve
from .tables import (
    TABLE1_ROWS,
    TABLE2_ROWS,
    Table1Result,
    Table2Result,
    reproduce_table1,
    reproduce_table2,
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
    results = {}
    try:
        for logic in config.logics:
            spec = SweepSpec(
                m_values=config.m_values,
                n_values=config.n_values,
                params=config.losses,
                source_kind=config.source,
                logic=logic,
                lambda_bounds=config.lambda_bounds,
            )
            results[logic] = sweep(spec)
    except BracketError as exc:
        print(f"bracket failure: {exc}", file=sys.stderr)
        return EXIT_BRACKET
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)

    surface_rows = []
    for logic in config.logics:
        for (m, n), (lam, p1) in results[logic].surface.items():
            surface_rows.append([m, n, lam, p1, logic.value])
    _write_csv(out / "surface.csv", ["M", "N", "lambda_opt", "p1", "logic"], surface_rows)

    global_rows = []
    for logic in config.logics:
        m, n, lam, p1 = results[logic].best
        global_rows.append([logic.value, m, n, lam, p1])
    _write_csv(out / "global.csv", ["logic", "m_opt", "n_opt", "lambda_opt", "p1_max"], global_rows)

    for m in config.m_values:
        curve_rows = []
        for n in config.n_values:
            for logic in config.logics:
                lam, p1 = results[logic].surface[(m, n)]
                curve_rows.append([n, logic.value, lam, p1])
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

    The standard error of each bin is the larger of the empirical and the
    analytic binomial estimate, which keeps near-empty bins from producing
    spurious rejections; a zero standard error with a nonzero difference
    yields an infinite z.  ``analytic_tm`` feeds a different matrix to the
    analytic side only, which lets a mutation test measure the harness's
    sensitivity; it defaults to ``build_matrix(params, layout)``, the matrix
    the sampler builds for itself.
    """
    if analytic_tm is None:
        analytic_tm = build_matrix(params, layout)
    empirical = simulate(model, params, layout, trials=trials, seed=seed)
    heralded = herald_convolve(model, params.v_d)
    i_max = max(empirical.i_max, DEFAULT_I_MAX)
    if heralded.j_max < i_max:
        heralded = herald_convolve(model, params.v_d, j_max=i_max)
    analytic = output_distribution(heralded, analytic_tm, layout, i_max=i_max)
    comparisons = []
    for i in range(i_max + 1):
        p_ana = float(analytic.probs[i])
        p_emp = float(empirical.probs[i]) if i <= empirical.i_max else 0.0
        se_emp = float(empirical.std_err[i]) if i <= empirical.i_max else 0.0
        se_ana = math.sqrt(p_ana * (1.0 - p_ana) / trials)
        se = max(se_emp, se_ana)
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
    if not config.validation_points:
        print(f"{config_path}:1: validate requires a non-empty \"points\" list", file=sys.stderr)
        return EXIT_CONFIG
    if config.validation_trials < 100_000:
        print(f"{config_path}:1: validate requires \"trials\" >= 100000", file=sys.stderr)
        return EXIT_CONFIG
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    worst = None
    case = 0
    for logic in config.logics:
        for m, n, lam in config.validation_points:
            layout = MultiplexerLayout(m=m, n=n, logic=logic)
            model = PairSourceModel(kind=config.source, mean_pairs=lam, n_windows=n)
            # Stable per-case seed offset keeps the points statistically independent.
            comparisons = compare_to_oracle(
                model,
                config.losses,
                layout,
                trials=config.validation_trials,
                seed=config.validation_seed + case,
            )
            case += 1
            for c in comparisons:
                rows.append([m, n, lam, logic.value, c.bin, c.analytic, c.empirical, c.std_err, c.z])
                if c.z > Z_LIMIT and (worst is None or c.z > worst[4].z):
                    worst = (m, n, lam, logic, c)
    _write_csv(
        out / "validate.csv",
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


def _table1_csv_rows(results: list[Table1Result]) -> list[list]:
    rows = []
    for r in results:
        rows.append(
            [
                r.row.no,
                r.row.v_r,
                r.row.v_t,
                r.row.v_p,
                r.row.v_p0_s,
                r.time.p1,
                r.time.size,
                r.time.lambda_opt,
                r.row.p_time_ref,
                r.row.n_time_ref,
                r.time_ok,
                r.spatial.p1,
                r.spatial.size,
                r.spatial.lambda_opt,
                r.row.p_spatial_ref,
                r.row.m_spatial_ref,
                r.spatial_ok,
            ]
        )
    return rows


def _table2_csv_rows(results: list[Table2Result]) -> list[list]:
    rows = []
    for r in results:
        m_c, n_c, lam_c, p_c = r.combined
        rows.append(
            [
                r.row.no,
                r.row.v_t,
                r.row.v_r,
                r.row.v_p,
                r.row.v_t_s,
                r.row.v_r_s,
                r.row.v_p0_s,
                r.time.p1,
                r.time.size,
                r.spatial.p1,
                r.spatial.size,
                r.row.p_standalone_ref,
                r.row.m_spatial_ref,
                r.row.n_time_ref,
                r.standalone_ok,
                p_c,
                m_c,
                n_c,
                lam_c,
                r.row.p_combined_ref,
                r.row.m_combined_ref,
                r.row.n_combined_ref,
                r.combined_ok,
                r.product_ok,
            ]
        )
    return rows


TABLE1_HEADER = [
    "no", "v_r", "v_t", "v_p", "v_p0_s",
    "p_time", "n_time_opt", "lambda_time", "p_time_ref", "n_time_ref", "time_flag",
    "p_spatial", "m_spatial_opt", "lambda_spatial", "p_spatial_ref", "m_spatial_ref", "spatial_flag",
]

TABLE2_HEADER = [
    "no", "v_t", "v_r", "v_p", "v_t_s", "v_r_s", "v_p0_s",
    "p_time", "n_time_opt", "p_spatial", "m_spatial_opt",
    "p_standalone_ref", "m_spatial_ref", "n_time_ref", "standalone_flag",
    "p_combined", "m_combined_opt", "n_combined_opt", "lambda_combined",
    "p_combined_ref", "m_combined_ref", "n_combined_ref", "combined_flag", "product_flag",
]


def run_tables(out_dir: str | Path = ".", rows1=TABLE1_ROWS, rows2=TABLE2_ROWS) -> int:
    """Recompute the built-in reference configurations and write comparison CSVs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results1 = reproduce_table1(rows1)
    _write_csv(out / "table1_repro.csv", TABLE1_HEADER, _table1_csv_rows(results1))
    results2 = reproduce_table2(rows2)
    _write_csv(out / "table2_repro.csv", TABLE2_HEADER, _table2_csv_rows(results2))
    for r in results1:
        print(f"table1 row {r.row.no}: {'PASS' if r.passes else 'FAIL'}")
    for r in results2:
        print(f"table2 row {r.row.no}: {'PASS' if r.passes else 'FAIL'}")
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
