"""The benchmark's four workloads: the commands of one round and their inputs.

Every workload is a closed loop with one caller: a round runs its commands in
order through ``bsqrng.cli.main``, with the argv a user would type, and the
next round starts when the last command has returned. All inputs follow from
the run's ``--seed``.
"""

from __future__ import annotations

import random
import struct
from pathlib import Path

import numpy as np

NAMES = ("optimum-pipeline", "bright-mixture", "battery-bulk", "analytic-scan")

GATES = 1 << 21  # two simulator chunks of 2**20 gates
BLOCK_SIZE = 20_000
PIPELINE_ALPHA = 0.01  # the `test` default
BULK_BITS = 4_000_000  # 200 battery blocks
BULK_ALPHA = 0.05
SWEEP_SOURCES = ("single", "indist", "dist", "mix:0.5")
SWEEP_POINTS = 60
SWEEP_MAX = 20.0

# The simulated configurations: the paper's operating point on ideal
# detectors, and a bright, unequal-detector mixture whose raw stream is biased.
SIMULATED = {
    "optimum-pipeline": {"source": "indist", "mu": 2.1, "eta0": 1.0, "eta1": 1.0,
                         "debias": True},
    "bright-mixture": {"source": "mix:0.5", "mu": 8.0, "eta0": 0.6, "eta1": 0.5,
                       "debias": False},
}


def sweep_min(seed: int) -> float:
    """Lower end of the sweep grid, within 10 % of 0.05, drawn from the seed."""
    return float(f"{0.05 * 1.1 ** random.Random(seed).uniform(-1.0, 1.0):.6g}")


def operations(name: str, seed: int, tmp: Path) -> list[list[str]]:
    """The argv of each command in one round of workload ``name``."""
    if name == "optimum-pipeline":
        bits, report = str(tmp / "pipeline.bsrb"), str(tmp / "pipeline-report.csv")
        return [
            ["generate", "--source", "indist", "--mu-eta", "2.1", "--gates", str(GATES),
             "--seed", str(seed), "--debias", "--out", bits],
            ["test", bits, "--block-size", str(BLOCK_SIZE), "--format", "csv",
             "--out", report],
        ]
    if name == "bright-mixture":
        return [
            ["generate", "--source", "mix:0.5", "--mu", "8", "--eta0", "0.6",
             "--eta1", "0.5", "--gates", str(GATES), "--seed", str(seed),
             "--out", str(tmp / "mixture.bsrb")],
        ]
    if name == "battery-bulk":
        report = str(tmp / "bulk-report.csv")
        return [
            ["test", str(tmp / "uniform.bsrb"), "--block-size", str(BLOCK_SIZE),
             "--alpha", str(BULK_ALPHA), "--format", "csv", "--out", report],
            ["report", report],
        ]
    if name == "analytic-scan":
        return [
            ["sweep", "--mu-eta-min", repr(sweep_min(seed)), "--mu-eta-max", str(SWEEP_MAX),
             "--points", str(SWEEP_POINTS), "--spacing", "log",
             "--source", ",".join(SWEEP_SOURCES), "--out", str(tmp / "sweep.csv")],
        ] + [["optimum", "--source", source] for source in SWEEP_SOURCES]
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")


def write_bit_file(path: Path, bits_packed: bytes, n_bits: int, provenance: dict) -> None:
    """A bit file in the documented layout: magic, version, u64 bit count,
    u32 provenance length, provenance lines, MSB-first packed payload."""
    prov = "".join(f"{k}={v}\n" for k, v in provenance.items()).encode()
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sBQI", b"BSRB", 1, n_bits, len(prov)))
        fh.write(prov)
        fh.write(bits_packed)


def prepare(name: str, seed: int, tmp: Path) -> None:
    """Write the inputs a workload reads; only battery-bulk has any."""
    if name == "battery-bulk":
        payload = np.random.Generator(np.random.PCG64(seed)).bytes(BULK_BITS // 8)
        write_bit_file(tmp / "uniform.bsrb", payload, BULK_BITS,
                       {"generator": "numpy-pcg64", "seed": seed})
