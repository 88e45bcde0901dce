"""Beam-splitter quantum random number generator: simulation and analysis.

Analytic photon statistics for interfering and non-interfering weak coherent
sources on a 50/50 splitter, a seeded Monte Carlo gate simulator, bit-stream
extraction with von Neumann debiasing, and a block-wise statistical
randomness battery. Each name lives in its module (``fock``, ``detection``,
``mcsim``, ``postproc``, ``randtests``, ``special``, ``cli``); the package
re-exports only a few of them.
"""

from .detection import folding_equivalence_check
from .randtests import (
    approximate_entropy,
    block_frequency,
    cumulative_sums,
    longest_run_of_ones,
    runs,
    serial,
)

__version__ = "0.1.0"

__all__ = [
    "approximate_entropy",
    "block_frequency",
    "cumulative_sums",
    "folding_equivalence_check",
    "longest_run_of_ones",
    "runs",
    "serial",
]
