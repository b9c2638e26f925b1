"""photonmux benchmark: one workload, timed for a fixed number of seconds.

Usage, from the root of a checkout:

    python3 bench/run.py --workload tables --seed 0 --seconds 20 --trace 0

Each workload is a closed loop: one client in this process issues a call,
waits for it to return, then issues the next.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the same calls untraced and then
traced and prints per-layer metrics taken from spans around each layer's
public functions.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("tables", "design-sweep", "distribution-map", "oracle-validate")
SETUP_PROBES = 2  # extra set-ups in child processes; setup_s is the median of 1 + SETUP_PROBES
BLOCK_S = 0.2  # the host clock is read after each block of calls lasting at least this long
SETUP_CALIBRATION_S = 0.1
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def set_up(name: str, seed: int, work_dir: Path):
    """Import photonmux, generate the inputs, run one warm-up item; return the workload."""
    import photonmux

    if not Path(photonmux.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"photonmux imported from {photonmux.__file__}, not from {SRC}")
    import workloads

    workload = workloads.WORKLOADS[name](seed, work_dir)
    workload.warm_up()
    return workload


def timed_set_up(name: str, seed: int, work_dir: Path):
    """The workload and its set-up time in reference seconds (see hostclock.py)."""
    start = time.perf_counter()
    workload = set_up(name, seed, work_dir)
    elapsed = time.perf_counter() - start
    # Imported only now: the host clock imports numpy, which set-up must pay for.
    import hostclock

    clock = hostclock.Clock(workload.clock_parts)
    return workload, elapsed * clock.scale(clock.sample(SETUP_CALIBRATION_S))


def probe_set_up(args, index: int) -> float:
    """Set-up time of a fresh interpreter, which pays the imports again."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-probe", str(index),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_items(workload, seconds: float | None = None, indices: list[int] | None = None):
    """Closed loop over the pool, for ``seconds`` or over the given pool indices.

    Returns one record per call: pool index, wall and CPU seconds, the
    factor to reference seconds of the call's block, and the collected
    output or the exception text.  After each block of calls lasting at
    least ``BLOCK_S`` the host clock is read; a block's factor comes from
    the kernel times taken just before and just after it.
    """
    import hostclock

    clock = hostclock.Clock(workload.clock_parts)
    records = []
    start = time.perf_counter()
    before = clock.sample(0.0)
    block_first, block_wall = 0, 0.0
    k = 0
    while True:
        if indices is not None:
            if k == len(indices):
                break
            idx = indices[k]
        else:
            if time.perf_counter() - start >= seconds:
                break
            idx = k % len(workload.pool)
        item = workload.pool[idx]
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            returned = workload.run(item)
            error = None
        except Exception as exc:  # an item that raises counts as failed; the run goes on
            returned, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        c1 = time.process_time()
        output = workload.collect(item, returned) if error is None else None
        records.append({"idx": idx, "wall": t1 - t0, "cpu": c1 - c0, "output": output, "error": error})
        k += 1
        block_wall += t1 - t0
        if block_wall >= BLOCK_S:
            after = clock.sample(hostclock.CALIBRATION_SHARE * block_wall)
            factor = clock.scale(before + after)
            for r in records[block_first:]:
                r["scale"] = factor
            before, block_first, block_wall = after, len(records), 0.0
    if block_first < len(records):
        factor = clock.scale(before + clock.sample(hostclock.CALIBRATION_SHARE * block_wall))
        for r in records[block_first:]:
            r["scale"] = factor
    return records


def count_failures(workload, records) -> dict[int, str]:
    bad = {pos: r["error"] for pos, r in enumerate(records) if r["error"] is not None}
    ok = [(pos, r) for pos, r in enumerate(records) if r["error"] is None]
    found = workload.failures([(r["idx"], r["output"]) for _, r in ok])
    for k, msg in found.items():
        bad[ok[k][0]] = msg
    return bad


def end_to_end_metrics(workload, records, setup_s: float) -> dict[str, tuple[float, str]]:
    """Every timing in reference seconds: measured time times its block's factor."""
    walls = [r["wall"] * r["scale"] for r in records]
    cpus = [r["cpu"] * r["scale"] for r in records]
    return {
        "setup_s": (setup_s, "s"),
        "call_s": (statistics.fmean(walls), "s"),
        "cpu_s": (statistics.fmean(cpus), "s"),
        "points_per_s": (workload.points_per_item * len(walls) / sum(walls), "1/s"),
        "call_ms.p50": (statistics.median(walls) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


LAYER_SPANS = {
    "statistics.herald_convolve": ("calls", "self_s", "us_p50"),
    "transmission.build_matrix": ("calls", "self_s"),
    "engine.single_photon_probability": ("calls", "self_s", "cells", "ns_per_cell"),
    "engine.output_distribution": ("calls", "self_s", "cells", "ns_per_cell"),
    "optimize.optimize_lambda": ("calls", "self_s"),
    "optimize.sweep": ("calls", "self_s"),
    "montecarlo.simulate": ("calls", "self_s", "trials_per_s", "peak_traced_mb"),
    "config.parse_config": ("calls", "self_s"),
}
UNITS = {
    "calls": "1/item", "self_s": "s/item", "us_p50": "us", "cells": "1/item",
    "ns_per_cell": "ns", "trials_per_s": "1/s", "peak_traced_mb": "MB",
}


def layer_metrics(tracer, workload, records, untraced: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from the traced phase, per item where they are totals.

    Layer times are measured seconds; the tracing overhead compares the
    traced and untraced phases in reference seconds.
    """
    items = len(records)
    traced_wall = sum(r["wall"] for r in records)
    agg = tracer.summary()
    empty = {"calls": 0, "self_s": 0.0, "durations_s": [], "value": 0.0}
    out: dict[str, tuple[float, str]] = {}
    self_total = 0.0
    for span, fields in LAYER_SPANS.items():
        a = agg.get(span, empty)
        self_total += a["self_s"]
        derived = {
            "calls": a["calls"] / items,
            "self_s": a["self_s"] / items,
            "us_p50": statistics.median(a["durations_s"]) * 1e6 if a["durations_s"] else 0.0,
            "cells": a["value"] / items,
            "ns_per_cell": a["self_s"] * 1e9 / a["value"] if a["value"] else 0.0,
            "trials_per_s": a["value"] / a["self_s"] if a["self_s"] else 0.0,
            "peak_traced_mb": tracer.peak_traced_bytes.get(span, 0) / 2**20,
        }
        for field in fields:
            out[f"{span}.{field}"] = (derived[field], UNITS[field])
    herald = agg.get("statistics.herald_convolve", empty)
    out["statistics.j_max.mean"] = (herald["value"] / herald["calls"] if herald["calls"] else 0.0, "1")
    lam = agg.get("optimize.optimize_lambda", empty)
    spp = agg.get("engine.single_photon_probability", empty)
    out["optimize.evals_per_point"] = (spp["calls"] / lam["calls"] if lam["calls"] else 0.0, "1")
    for group, names in (
        ("tables", ("tables.reproduce_table1", "tables.reproduce_table2")),
        ("cli", ("cli.run_tables", "cli.run_validate")),
    ):
        s = sum(agg.get(name, empty)["self_s"] for name in names)
        self_total += s
        out[f"{group}.self_s"] = (s / items, "s/item")
    out["cli.csv_bytes"] = (workload.csv_bytes / items, "B/item")
    # Item wall times include the benchmark's own calls into each layer, so
    # what the layers' self times leave is time spent outside every span.
    out["trace.wall_s"] = (traced_wall / items, "s/item")
    out["trace.unaccounted_s"] = ((traced_wall - self_total) / items, "s/item")
    out["trace.overhead_frac"] = (reference_s(records) / reference_s(untraced) - 1.0, "1")
    out["trace.items"] = (float(items), "count")
    return out


def reference_s(records) -> float:
    return sum(r["wall"] * r["scale"] for r in records)


def environment(args) -> dict:
    import numpy
    import scipy

    import photonmux

    blas = {}
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except Exception as exc:  # the layout of show_config differs across numpy versions
        blas = {"error": repr(exc)}
    cpu_model = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text(encoding="utf-8", errors="replace").splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "photonmux": photonmux.__version__,
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "photonmux").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "photonmux" / "__init__.py").is_file():
        print(f"error: no photonmux sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One client in one process: no worker pool, whatever the caller's setting.
    found_workers = os.environ.get("PHOTONMUX_WORKERS")
    os.environ["PHOTONMUX_WORKERS"] = "1"

    work_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.setup_probe is not None:
        probe_dir = work_dir / f"probe{args.setup_probe}"
        shutil.rmtree(probe_dir, ignore_errors=True)
        _, elapsed = timed_set_up(args.workload, args.seed, probe_dir)
        print(repr(elapsed))
        return 0

    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    workload, setup_main = timed_set_up(args.workload, args.seed, work_dir)
    env = environment(args)
    env["photonmux_workers_found"] = found_workers
    print(json.dumps({"environment": env}))

    if args.trace == 0:
        setups = [setup_main] + [probe_set_up(args, i) for i in range(SETUP_PROBES)]
        records = run_items(workload, seconds=args.seconds)
        metrics = end_to_end_metrics(workload, records, statistics.median(setups))
        extra = {"setup_samples_s": setups}
    else:
        import spans
        import workloads

        untraced = run_items(workload, seconds=args.seconds / 2)
        indices = [r["idx"] for r in untraced]
        tracer = spans.Tracer()
        for key, name, measure in workload.entry_points():
            workload.calls[key] = tracer.wrap(name, workload.calls[key], measure)
        workload.csv_bytes = 0
        origin = time.perf_counter_ns()
        with spans.Rebinding(tracer, workloads.rebinding_targets()):
            traced = run_items(workload, indices=indices)
        metrics = layer_metrics(tracer, workload, traced, untraced)
        tracer.write(work_dir / "spans.json", origin, {"environment": env})
        records = untraced + traced
        extra = {}

    bad = count_failures(workload, records)
    for pos in sorted(bad)[:10]:
        print(f"FAILED item {pos} (pool index {records[pos]['idx']}): {bad[pos]}")
    result = {
        "correct": not bad,
        "attempted": len(records),
        "failed": len(bad),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:17s} {name:40s} {value:14.6g} {unit}")
    record = dict(result, environment=env, failed_frac=len(bad) / len(records), **extra)
    record["item_wall_s"] = [r["wall"] for r in records]
    record["item_scale"] = [r["scale"] for r in records]
    (work_dir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
