#!/usr/bin/env python3
"""Generation/discard probability curves over the experimental mu*eta range.

Writes the analytic table for both source configurations to CSV (60 log
points over [0.05, 20]), each grid point's rows as soon as they are
computed, then prints the located optima plus the improvement ratio. The grid
stays far below the photon-total cap, so no row is refused.

Usage: python scripts/sweep_curves.py [out.csv]
"""

import sys

from bsqrng.cli import SweepSpec, find_optimum, sweep
from bsqrng.fock import SourceModel


def main() -> int:
    out = sys.argv[1] if len(sys.argv) > 1 else "sweep_curves.csv"
    spec = SweepSpec(mu_eta_min=0.05, mu_eta_max=20.0, points=60, spacing="log")
    sweep(spec, out)
    print(f"wrote {spec.points} grid points per source to {out}")

    mu_single, p_single = find_optimum(SourceModel.single(), bracket=(0.2, 6.0))
    mu_pair, p_pair = find_optimum(
        SourceModel.indistinguishable_pair(), bracket=(0.5, 6.0)
    )
    print(f"single source optimum:       p_gen = {p_single:.4f} at mu*eta = {mu_single:.4f}")
    print(f"interfering pair optimum:    p_gen = {p_pair:.4f} at mu*eta = {mu_pair:.4f}")
    print(f"improvement ratio:           {p_pair / p_single:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
