"""Threshold-detector model and analytic per-gate outcome probabilities.

A threshold detector of efficiency eta clicks on an i-photon state with
probability 1 - (1 - eta)^i. Each output mode of the splitter feeds one
detector; a gate yields a valid bit when exactly one detector clicks, a
discarded collision when both click, and nothing when neither does.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def click_probability(eta: float, photons: int) -> float:
    """Probability that a threshold detector of efficiency ``eta`` clicks on ``photons``."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"efficiency must lie in [0, 1], got {eta}")
    if photons < 0:
        raise ValueError(f"photon count must be non-negative, got {photons}")
    if photons == 0:
        return 0.0
    return 1.0 - (1.0 - eta) ** photons


def outcome_probabilities(
    dist: JointPhotonDistribution, det: DetectorPair = DetectorPair()
) -> OutcomeProbabilities:
    """Fold a joint output photon distribution through a threshold-detector pair."""
    bit0_lone = bit0_missed = bit1_lone = bit1_missed = disc = 0.0
    for (m, n), p in dist.probs.items():
        if m == 0 and n == 0:
            continue
        click0 = click_probability(det.eta0, m)
        click1 = click_probability(det.eta1, n)
        if n == 0:
            bit0_lone += p * click0
        elif m == 0:
            bit1_lone += p * click1
        else:
            bit0_missed += p * click0 * (1.0 - click1)
            bit1_missed += p * (1.0 - click0) * click1
            disc += p * click0 * click1
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


def throughput(p_gen: float, gate_rate: float) -> float:
    """Raw bit rate: probability of a valid bit times the gate frequency."""
    if not 0.0 <= p_gen <= 1.0:
        raise ValueError(f"p_gen must lie in [0, 1], got {p_gen}")
    if gate_rate <= 0.0:
        raise ValueError(f"gate rate must be positive, got {gate_rate}")
    return p_gen * gate_rate
