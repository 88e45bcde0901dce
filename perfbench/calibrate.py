"""A fixed calibration kernel that tracks how fast the machine runs right now.

On a shared host the speed one process gets drifts by tens of percent over a
minute, as other tenants come and go, and a workload's round times drift with
it. The kernel mixes the three kinds of work the workloads do: interpreter
loops, numpy calls on small arrays, and numpy passes over megabyte arrays.
Timed beside each measurement in the same process, it rescales that
measurement to the speed at which the kernel takes REFERENCE_S:
``time * REFERENCE_S / kernel_seconds()``. A change to bsqrng moves the
rescaled time; a change in machine load mostly cancels out of it.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the host the reference figures in README.md were taken on.
REFERENCE_S = 0.020
REPEATS = 3


def _kernel(rng: np.random.Generator) -> None:
    total = 0
    for i in range(60_000):
        total += i * i
    small = rng.random(64)
    for _ in range(1_500):
        np.diff(small).max()
    u = rng.random(1 << 16)
    np.searchsorted(np.sort(u[:4096]), u)
    np.cumsum(u)


def kernel_seconds() -> float:
    """Median of REPEATS timings of the kernel."""
    rng = np.random.Generator(np.random.Philox(0))
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel(rng)
        times.append(time.perf_counter() - start)
    return sorted(times)[REPEATS // 2]
