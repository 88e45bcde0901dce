"""Threshold-detector model and analytic per-gate outcome probabilities.

A threshold detector of efficiency eta clicks on an i-photon state with
probability 1 - (1 - eta)^i. Each output mode of the splitter feeds one
detector; a gate yields a valid bit when exactly one detector clicks, a
discarded collision when both click, and nothing when neither does. The
coincidence contrast compares the interfering pair's collision probability
with the distinguishable pair's, as an exact midpoint-rule average over the
pair's relative phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    JointPhotonDistribution,
    SourceModel,
    TruncationPolicy,
    output_joint_distribution,
)


@dataclass(frozen=True)
class DetectorPair:
    """Overall efficiencies of the bit-0 and bit-1 channels (no dark counts)."""

    eta0: float = 1.0
    eta1: float = 1.0

    def __post_init__(self):
        for name, eta in (("eta0", self.eta0), ("eta1", self.eta1)):
            if not 0.0 <= eta <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {eta}")

    def click_probabilities(self, width: int) -> tuple[np.ndarray, np.ndarray]:
        """Click probability of the bit-0 and bit-1 channels for 0..width-1 photons."""
        counts = np.arange(width)
        return 1.0 - (1.0 - self.eta0) ** counts, 1.0 - (1.0 - self.eta1) ** counts


@dataclass(frozen=True)
class OutcomeProbabilities:
    """Per-gate event probabilities, with the four bit-generating terms kept separate.

    ``p_bit0_lone`` covers gates where only the bit-0 mode holds photons,
    ``p_bit0_partner_missed`` gates where both modes hold photons but the
    bit-1 detector misses; likewise for bit 1. Truncated probability mass is
    charged to ``p_none``. ``p_bit0_given_valid`` is None when no valid bit
    can occur.
    """

    p_gen: float
    p_disc: float
    p_none: float
    p_bit0_given_valid: float | None
    p_bit0_lone: float
    p_bit0_partner_missed: float
    p_bit1_lone: float
    p_bit1_partner_missed: float


def outcome_probabilities(
    dist: JointPhotonDistribution, det: DetectorPair = DetectorPair()
) -> OutcomeProbabilities:
    """Fold a joint output photon distribution through a threshold-detector pair."""
    p = dist.probs
    click0, click1 = det.click_probabilities(len(p))
    bit0_lone = float(np.sum(p[1:, 0] * click0[1:]))
    bit1_lone = float(np.sum(p[0, 1:] * click1[1:]))
    # Both modes occupied: rows m >= 1, columns n >= 1.
    both = p[1:, 1:]
    c0, c1 = click0[1:, None], click1[None, 1:]
    bit0_missed = float(np.sum(both * c0 * (1.0 - c1)))
    bit1_missed = float(np.sum(both * (1.0 - c0) * c1))
    disc = float(np.sum(both * c0 * c1))
    p_gen = bit0_lone + bit0_missed + bit1_lone + bit1_missed
    p_none = 1.0 - p_gen - disc
    bias = (bit0_lone + bit0_missed) / p_gen if p_gen > 0.0 else None
    return OutcomeProbabilities(
        p_gen=p_gen,
        p_disc=disc,
        p_none=p_none,
        p_bit0_given_valid=bias,
        p_bit0_lone=bit0_lone,
        p_bit0_partner_missed=bit0_missed,
        p_bit1_lone=bit1_lone,
        p_bit1_partner_missed=bit1_missed,
    )


def coincidence_contrast(mu_eff: float) -> float:
    """Coincidence-count contrast of the interfering pair against the no-interference baseline.

    Returns 1 - P_cc(indist) / P_cc(dist), where P_cc is the probability that
    both detectors click at unit efficiency (``mu_eff`` already holds the
    losses), exactly: no photon-number truncation. With a = mu_eff / 2 the
    outputs at relative phase delta are coherent states of means
    a (1 +- cos delta), so P_cc(dist) = expm1(-a)^2 and P_cc(indist) =
    P_cc(dist) - 2 e^-a (I0(a) - 1). The contrast is then the mean over delta
    in [0, pi/2] of (exp(-a sin^2(delta/2)) expm1(-a cos delta) / expm1(-a))^2,
    whose terms are positive: nothing cancels at small a or overflows at
    large. The integrand is periodic and analytic, so the midpoint rule with
    16 + ceil(3 sqrt(a)) points converges exponentially; ``math`` per term
    and ``math.fsum`` keep it free of numpy's rounding. It falls from 1/2 as
    mu_eff grows.
    """
    if mu_eff <= 0.0:
        raise ValueError(f"mean photon number must be positive, got {mu_eff}")
    if not math.isfinite(mu_eff):
        raise ValueError(f"mean photon number must be finite, got {mu_eff}")
    a = 0.5 * mu_eff
    click = -math.expm1(-a)  # one output's click probability without interference
    if click * click == 0.0:
        raise ValueError(
            f"baseline coincidence probability underflows at mu_eff={mu_eff}"
        )
    n = 16 + math.ceil(3.0 * math.sqrt(a))
    deltas = ((k + 0.5) * math.pi / (2 * n) for k in range(n))
    mean = math.fsum(
        (math.exp(-a * math.sin(d / 2) ** 2) * math.expm1(-a * math.cos(d)) / click) ** 2
        for d in deltas
    ) / n
    return min(mean, 0.5)  # the mean of n terms near 1/2 can round an ulp above it


# Loss folding is exact in the model; a tight tail keeps the truncation
# residue of the comparison well under the 1e-6 contract.
_FOLDING_POLICY = TruncationPolicy(tail_mass=1e-9)


def folding_equivalence_check(mu: float, eta: float, source: SourceModel) -> float:
    """Max deviation between detector loss and source attenuation.

    Computes the outcome probabilities twice, once from the distribution at
    ``mu`` seen by detectors of efficiency ``eta`` and once from the
    distribution at ``mu * eta`` seen by ideal detectors, and returns the
    largest component-wise difference. Uniform loss commutes with the
    splitter, so the two must agree.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"efficiency must lie in (0, 1], got {eta}")
    if mu <= 0.0:
        raise ValueError(f"mean photon number must be positive, got {mu}")
    lossy = outcome_probabilities(
        output_joint_distribution(source, mu, _FOLDING_POLICY),
        DetectorPair(eta, eta),
    )
    folded = outcome_probabilities(
        output_joint_distribution(source, mu * eta, _FOLDING_POLICY),
        DetectorPair(1.0, 1.0),
    )
    deviations = [
        abs(lossy.p_gen - folded.p_gen),
        abs(lossy.p_disc - folded.p_disc),
        abs(lossy.p_none - folded.p_none),
    ]
    if lossy.p_bit0_given_valid is not None and folded.p_bit0_given_valid is not None:
        deviations.append(abs(lossy.p_bit0_given_valid - folded.p_bit0_given_valid))
    return max(deviations)

