"""The measured process of one run: whole rounds of one workload, one caller.

Started by run.py with ``src`` on PYTHONPATH and one BLAS thread. It imports
bsqrng, then runs rounds until ``--seconds`` have passed; with ``--trace 1``
every untraced round is followed by a traced one, so the two can be compared.
Before and after each round it times the calibration kernel. It writes its timings,
exit codes, output digests and per-layer figures to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import bsqrng.cli as cli

import calibrate
import tracing
import workloads


def _caches():
    """cache_clear of every memoised function in bsqrng, so that each round
    starts as cold as a fresh `bsqrng` command does."""
    return [
        fn.cache_clear
        for name, module in list(sys.modules.items())
        if name.startswith("bsqrng")
        for fn in vars(module).values()
        if callable(getattr(fn, "cache_clear", None))
    ]


def _digest(text: str, argv: list[str]) -> str:
    h = hashlib.sha256(text.encode())
    if "--out" in argv:
        h.update(Path(argv[argv.index("--out") + 1]).read_bytes())
    return h.hexdigest()


def run_round(ops, tracer: tracing.Tracer | None) -> dict:
    walls, codes, digests, texts = [], [], [], []
    for argv in ops:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = tracer.command(cli.main, argv) if tracer else cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            walls.append(time.perf_counter() - start)
        codes.append(code)
        texts.append({"stdout": out.getvalue(), "stderr": err.getvalue()})
        digests.append(_digest(out.getvalue() + err.getvalue(), argv))
    return {"traced": tracer is not None, "walls": walls, "codes": codes,
            "digests": digests, "texts": texts}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    ops = workloads.operations(args.workload, args.seed, args.tmp)
    caches = _caches()
    tracer = tracing.Tracer() if args.trace else None
    modes = (None, tracer) if tracer else (None,)
    rounds, spans = [], []
    calibrate.kernel_seconds()  # warm the kernel's code paths once
    deadline = time.perf_counter() + args.seconds
    while not rounds or time.perf_counter() < deadline:
        for mode in modes:
            for clear in caches:
                clear()
            kernel_before = calibrate.kernel_seconds()
            if mode is None:
                record = run_round(ops, None)
            else:
                mode.reset()
                with mode.installed():
                    record = run_round(ops, mode)
                record["layers"] = tracing.layer_metrics(mode)
                record["well_nested"] = tracing.well_nested(mode.spans)
                record["root_s"] = sum(e - s for n, s, e, p in mode.spans if n == tracing.ROOT)
                spans = mode.spans
            record["kernel_s"] = (kernel_before + calibrate.kernel_seconds()) / 2.0
            if rounds:
                del record["texts"]  # the first round's text stands for all: digests match
            rounds.append(record)
    result = {
        "rounds": rounds,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": spans,
    }
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
