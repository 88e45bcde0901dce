"""Benchmark entry point: one measured run of one workload.

    python3 perfbench/run.py --workload optimum-pipeline --seed 1 --seconds 10 --trace 0

Times interpreter start-up to a ready `import bsqrng.cli` several times, writes
the workload's inputs, starts worker.py as the workload's single measured
process, checks every output of the program against computations made apart
from it, and prints one JSON object as the last line of stdout. With
``--trace 0`` it carries the end-to-end metrics; with ``--trace 1`` the
per-layer ones, and the spans go to .perfbench/trace-<workload>-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 7
WORKER_GRACE_S = 120  # a round that outlives --seconds, plus start-up

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import workloads  # noqa: E402


def _child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one caller, no added threads
    return env


def setup_seconds(env: dict[str, str]) -> tuple[float, float]:
    """Interpreter start until bsqrng.cli is imported and ready, raw and
    rescaled by the calibration kernel timed right after it."""
    start = time.perf_counter()
    probe = subprocess.run(
        [sys.executable, "-c", "import time, bsqrng.cli; print(repr(time.perf_counter()))"],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
    raw = float(probe.stdout) - start
    return raw, raw * calibrate.REFERENCE_S / calibrate.kernel_seconds()


def _scaled(record: dict, seconds: float) -> float:
    return seconds * calibrate.REFERENCE_S / record["kernel_s"]


def _rates(name: str, result: dict, work: dict) -> dict[str, tuple[float, str]]:
    """The workload's user-facing rates, from the median time of each command."""
    untraced = [r["walls"] for r in result["rounds"] if not r["traced"]]

    def median_of(*ops: int) -> float:
        return statistics.median(sum(walls[i] for i in ops) for walls in untraced)

    rates = {}
    if name in workloads.SIMULATED:
        rates["gates_per_s"] = (work["gates"] / median_of(0), "gates/s")
        rates["output_bits_per_s"] = (work["output_bits"] / median_of(0), "bits/s")
    if name == "optimum-pipeline":
        rates["tested_bits_per_s"] = (work["tested_bits"] / median_of(1), "bits/s")
    if name == "battery-bulk":
        rates["tested_bits_per_s"] = (work["tested_bits"] / median_of(0), "bits/s")
    if name == "analytic-scan":
        rates["sweep_rows_per_s"] = (work["rows"] / median_of(0), "rows/s")
        searches = range(1, 1 + work["searches"])
        rates["optimum_searches_per_s"] = (work["searches"] / median_of(*searches),
                                           "searches/s")
    return rates


def _per_layer(result: dict, trace_path: Path, name: str, seed: int) -> dict:
    traced = [r for r in result["rounds"] if r["traced"]]
    untraced = [r for r in result["rounds"] if not r["traced"]]
    metrics = {
        key: statistics.median(_scaled(r, r["layers"][key]) if key.endswith("_s")
                               else r["layers"][key] for r in traced)
        for key in traced[0]["layers"]
    }
    traced_wall = statistics.median(_scaled(r, sum(r["walls"])) for r in traced)
    untraced_wall = statistics.median(_scaled(r, sum(r["walls"])) for r in untraced)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    spans = result["spans"]
    origin = spans[0][1] if spans else 0.0
    trace_path.write_text(json.dumps({
        "workload": name,
        "seed": seed,
        "traced_rounds": len(traced),
        "wall_s": {"traced": traced_wall, "untraced": untraced_wall},
        "per_layer": metrics,
        "span_fields": ["name", "start_s", "end_s", "parent_index"],
        "spans_of_last_traced_round": [[n, s - origin, e - origin, p] for n, s, e, p in spans],
    }))
    return metrics


def _run(args: argparse.Namespace, tmp: Path) -> int:
    env = _child_env()
    setups = [setup_seconds(env) for _ in range(SETUP_PROBES)]
    workloads.prepare(args.workload, args.seed, tmp)
    result_path = tmp / "result.json"
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--tmp", str(tmp), "--result", str(result_path)],
        env=env, cwd=ROOT, check=True, timeout=args.seconds + WORKER_GRACE_S)
    result = json.loads(result_path.read_text())

    sys.path.insert(0, str(SRC))
    import checks

    verdict, failed_ops, work = checks.check_run(args.workload, args.seed, tmp, result)
    rounds = result["rounds"]
    traced = [r for r in rounds if r["traced"]]
    if traced:
        verdict.add("trace: spans nest inside their parents and do not overlap",
                    all(r["well_nested"] for r in traced))
        cover = min(r["root_s"] / sum(r["walls"]) for r in traced)
        verdict.add("trace: command spans cover the commands' wall time", cover >= 0.99,
                    f"lowest share {cover:.4f}")
    for name, ok, detail in verdict.results:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    for note in verdict.failed_ops:
        print(f"failed operation: {note}")
    if args.trace:
        metrics = _per_layer(result, OUT / f"trace-{args.workload}-seed{args.seed}.json",
                             args.workload, args.seed)
        units = {key: ("s" if key.endswith("_s") else "count") for key in metrics}
        units.update({"mcsim.valid_fraction": "ratio", "postproc.vn_yield": "ratio"})
    else:
        if verdict.ok:
            for key, (value, unit) in _rates(args.workload, result, work).items():
                print(f"rate {key}={value:.6g} {unit} (as measured)")
        print(f"raw setup_s={statistics.median(raw for raw, _ in setups):.6g} s, "
              f"wall_s={statistics.median(sum(r['walls']) for r in rounds):.6g} s "
              f"over {len(rounds)} rounds, kernel "
              f"{statistics.median(r['kernel_s'] for r in rounds):.6g} s")
        metrics = {
            "setup_s": statistics.median(scaled for _, scaled in setups),
            "wall_s": statistics.median(_scaled(r, sum(r["walls"])) for r in rounds),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
    for key, value in metrics.items():
        print(f"metric {key}={value:.6g} {units[key]}")
    print(json.dumps({
        "correct": verdict.ok,
        "attempted": len(rounds) * len(failed_ops),
        "failed": len(rounds) * sum(failed_ops),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "bsqrng" / "cli.py").is_file():
        print(f"error: no bsqrng sources under {SRC}", file=sys.stderr)
        return 2
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        return _run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
