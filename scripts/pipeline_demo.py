#!/usr/bin/env python3
"""End-to-end demo: simulate at the interfering optimum, debias, test.

Usage: python scripts/pipeline_demo.py [n_gates] [seed]
"""

import sys

from bsqrng.fock import SourceModel
from bsqrng.mcsim import SimConfig, run
from bsqrng.postproc import events_to_bits, von_neumann
from bsqrng.randtests import run_battery


def main() -> int:
    n_gates = int(sys.argv[1]) if len(sys.argv) > 1 else 2_000_000
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 7

    cfg = SimConfig(
        seed=seed,
        n_gates=n_gates,
        mu=2.1,
        source=SourceModel.indistinguishable_pair(),
    )
    tally, outcomes = run(cfg)
    for key, value in tally.summary().items():
        print(f"{key}={value}")
    print(f"raw_throughput_bits_per_s={tally.p_gen * cfg.gate_rate:.6g}")

    raw = events_to_bits(outcomes, {"seed": str(seed), "mu": "2.1", "source": "indist"})
    debiased = von_neumann(raw)
    print(f"raw_bits={raw.length}")
    print(f"debiased_bits={debiased.length}")
    print(f"extraction_efficiency={debiased.length / raw.length:.4f}")

    block = max(debiased.length // 10, 128)
    report = run_battery(debiased, block_size=block)
    for name, fraction in report.pass_fraction().items():
        print(f"pass_fraction {name} {fraction:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
