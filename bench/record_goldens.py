"""Record the goldens the benchmark checks outputs against.

Run from the root of a checkout, on the commit whose outputs are to become
the reference:

    python3 bench/record_goldens.py

It writes bench/goldens/:

* ``tables.json``: per reference row, the computed optima, probabilities
  and PASS/FAIL flags as ``photonmux tables`` writes them (any seed).
* ``design_sweep_seed0.json``, ``distribution_map_seed0.json``: per pool
  item of the default seed, the sweep's argmax and p1 surface, or the
  output distribution.
* ``oracle_pool.json``: the validation points of the oracle-validate
  workload, each with the analytic bins it must reproduce.  Every point is
  run through ``photonmux validate`` here.  The validation flags a bin at
  |z| > 4, which also happens by chance; a candidate that fails is checked
  again with 16e6 fresh trials per logic.  If that check agrees (every
  |z| <= 4) the failure was chance and the candidate is listed under
  ``skipped`` with its z-scores; if it disagrees, recording stops, because
  the engine and the sampler really differ.

Takes about five minutes on two cores.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ["PHOTONMUX_WORKERS"] = "1"

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from photonmux import cli, tables  # noqa: E402
from photonmux.statistics import PairSourceModel, SourceKind  # noqa: E402
from photonmux.transmission import LossParameters, MultiplexerLayout  # noqa: E402

OUT = ROOT / ".bench_out" / "record"
ORACLE_POOL_SEED = 20160708
ORACLE_POOL_SIZE = 48
ORACLE_CELLS = 32
RECHECK_TRIALS = 16_000_000

TABLE_FIELDS = {
    "table1": {"p_time": float, "n_time_opt": int, "time_flag": str,
               "p_spatial": float, "m_spatial_opt": int, "spatial_flag": str},
    "table2": {"p_time": float, "n_time_opt": int, "p_spatial": float, "m_spatial_opt": int,
               "standalone_flag": str, "p_combined": float, "m_combined_opt": int,
               "n_combined_opt": int, "combined_flag": str, "product_flag": str},
}


def dump(name: str, data) -> None:
    path = workloads.GOLDEN_DIR / name
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")


def record_tables() -> None:
    out = OUT / "tables"
    rc = cli.run_tables(out)
    if rc != 0:
        raise SystemExit(f"run_tables returned {rc}")
    golden = {}
    for table, fields in TABLE_FIELDS.items():
        rows = workloads.csv_rows(out / f"{table}_repro.csv")
        golden[table] = {r["no"]: {k: cast(r[k]) for k, cast in fields.items()} for r in rows}
    if (len(golden["table1"]), len(golden["table2"])) != (len(tables.TABLE1_ROWS), len(tables.TABLE2_ROWS)):
        raise SystemExit("tables CSVs do not hold one line per reference row")
    dump("tables.json", golden)


def round12(x: float) -> float:
    """Probabilities to 1e-12, far inside the 1e-9 golden tolerance."""
    return round(float(x), 12)


def record_seed0(cls, name: str, to_json) -> None:
    workloads.GOLDEN_SEED = None  # build the pool without loading goldens that do not exist yet
    workload = cls(0, OUT / cls.name)
    dump(name, [to_json(workload.collect(item, workload.run(item))) for item in workload.pool])


def oracle_candidates() -> list[dict]:
    rng = np.random.default_rng(ORACLE_POOL_SEED)
    pool = []
    for i in range(2 * ORACLE_POOL_SIZE):
        m = 2 ** int(rng.integers(int(math.log2(ORACLE_CELLS)) + 1))
        n = ORACLE_CELLS // m
        lam = round(float(0.1 * (2.0 * n / 0.1) ** rng.random()), 6)
        source = workloads.SOURCES[int(rng.integers(2))].value
        pool.append({"losses": workloads.draw_losses(rng), "source": source, "point": [m, n, lam],
                     "seed": 1000 + i})
    return pool


def recheck_z(entry: dict) -> list[float]:
    """Largest |z| per logic between the engine and 16e6 fresh sampler trials."""
    m, n, lam = entry["point"]
    model = PairSourceModel(SourceKind(entry["source"]), lam, n)
    params = LossParameters(**entry["losses"])
    return [
        max(c.z for c in cli.compare_to_oracle(
            model, params, MultiplexerLayout(m, n, logic), trials=RECHECK_TRIALS, seed=10_000 + entry["seed"]))
        for logic in workloads.LOGICS
    ]


def record_oracle_pool() -> None:
    out = OUT / "oracle"
    out.mkdir(parents=True, exist_ok=True)
    logics = [lg.value for lg in workloads.LOGICS]
    points, skipped = [], []
    for i, entry in enumerate(oracle_candidates()):
        if len(points) == ORACLE_POOL_SIZE:
            break
        config = out / f"point{i}.json"
        workloads.write_validate_config(config, entry, out / f"out{i}", logics,
                                        workloads.OracleValidateWorkload.trials, entry["seed"])
        rc = cli.run_validate(config)
        if rc != 0:
            zs = recheck_z(entry)
            if max(zs) > cli.Z_LIMIT:
                raise SystemExit(f"pool point {i} disagrees again with 16e6 trials (|z| {zs}): {entry}")
            skipped.append(dict(entry, reason=f"validate returned {rc}; 16e6 fresh trials agree, max |z| per logic {zs}"))
            print(f"pool point {i}: chance failure, skipped (recheck |z| {zs})")
            continue
        rows = workloads.csv_rows(out / f"out{i}" / "validate.csv")
        entry["analytic"] = {
            lg: [round12(r["analytic"]) for r in rows if r["logic"] == lg][: workloads.I_MAX + 1]
            for lg in logics
        }
        points.append(entry)
        print(f"pool point {i}: {entry['point']} {entry['source']} ok")
    if len(points) < ORACLE_POOL_SIZE:
        raise SystemExit("too few candidates for the oracle pool")
    dump("oracle_pool.json", {"points": points, "skipped": skipped})


def main() -> None:
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    record_tables()
    record_oracle_pool()
    record_seed0(workloads.DesignSweepWorkload, "design_sweep_seed0.json",
                 lambda out: {"best": out["best"], "p1": [round12(p) for p in out["p1"]]})
    record_seed0(workloads.DistributionMapWorkload, "distribution_map_seed0.json",
                 lambda probs: [round12(p) for p in probs])


if __name__ == "__main__":
    main()
