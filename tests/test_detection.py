"""Threshold-detection model and the analytic outcome probabilities."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsqrng.detection import (
    DetectorPair,
    folding_equivalence_check,
    outcome_probabilities,
)
from bsqrng.fock import SourceModel, TruncationPolicy, output_joint_distribution

TIGHT = TruncationPolicy(tail_mass=1e-9)

ALL_SOURCES = [
    SourceModel.single(),
    SourceModel.indistinguishable_pair(),
    SourceModel.distinguishable_pair(),
    SourceModel.partial_mixture(0.7),
]


def single_closed_form(mu_eta):
    """Independent oracle: two Poisson(mu_eta/2) modes, p = 1 - exp(-mu_eta/2)."""
    p = 1.0 - math.exp(-mu_eta / 2.0)
    return 2.0 * p * (1.0 - p), p * p


def click_probability(eta, photons):
    """Click probability of the bit-0 channel of efficiency ``eta`` on ``photons``."""
    return DetectorPair(eta, 1.0).click_probabilities(photons + 1)[0][photons]


class TestClickProbability:
    def test_vacuum_never_clicks(self):
        for eta in (0.0, 0.3, 1.0):
            assert click_probability(eta, 0) == 0.0

    def test_perfect_detector(self):
        assert click_probability(1.0, 1) == 1.0
        assert click_probability(1.0, 7) == 1.0

    def test_fifteen_percent_two_photons(self):
        assert click_probability(0.15, 2) == pytest.approx(0.2775, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(0, 40))
    def test_monotone_in_photons(self, eta, photons):
        assert click_probability(eta, photons + 1) >= click_probability(eta, photons)

    def test_validation(self):
        with pytest.raises(ValueError):
            click_probability(1.2, 1)
        with pytest.raises(ValueError):
            DetectorPair(1.0, -0.5).click_probabilities(3)


class TestOutcomeProbabilities:
    @pytest.mark.parametrize("mu_eta", [0.05, 0.1, 0.5, 1.386, 2.0, 5.0, 12.0, 20.0])
    def test_single_source_closed_form(self, mu_eta):
        probs = outcome_probabilities(
            output_joint_distribution(SourceModel.single(), mu_eta, TIGHT)
        )
        p_gen, p_disc = single_closed_form(mu_eta)
        assert probs.p_gen == pytest.approx(p_gen, abs=1e-8)
        assert probs.p_disc == pytest.approx(p_disc, abs=1e-8)

    def test_single_source_peak_value(self):
        probs = outcome_probabilities(
            output_joint_distribution(SourceModel.single(), 2.0 * math.log(2.0), TIGHT)
        )
        assert probs.p_gen == pytest.approx(0.5, abs=1e-8)

    def test_interfering_pair_near_its_peak(self):
        probs = outcome_probabilities(
            output_joint_distribution(SourceModel.indistinguishable_pair(), 2.1, TIGHT)
        )
        # frozen from the same enumeration run with an independent script
        assert probs.p_gen == pytest.approx(0.6615722257877258, abs=1e-9)
        assert probs.p_gen == pytest.approx(0.66, abs=0.01)

    @pytest.mark.parametrize("eta0, eta1", [(0.6, 0.85), (0.9, 0.3), (1.0, 1.0)])
    @pytest.mark.parametrize("source", ALL_SOURCES, ids=lambda s: s.label)
    def test_four_terms_against_caseless_oracle(self, source, eta0, eta1):
        # oracle: no case split, click probabilities applied to every entry
        dist = output_joint_distribution(source, 1.7)
        det = DetectorPair(eta0, eta1)
        probs = outcome_probabilities(dist, det)

        def c0(m):
            return 1.0 - (1.0 - det.eta0) ** m

        def c1(n):
            return 1.0 - (1.0 - det.eta1) ** n

        items = [((m, n), float(p)) for (m, n), p in np.ndenumerate(dist.probs)]
        p_bit0 = sum(p * c0(m) * (1.0 - c1(n)) for (m, n), p in items)
        p_bit1 = sum(p * (1.0 - c0(m)) * c1(n) for (m, n), p in items)
        p_disc = sum(p * c0(m) * c1(n) for (m, n), p in items)
        p_lone0 = sum(p * c0(m) for (m, n), p in items if n == 0)
        p_lone1 = sum(p * c1(n) for (m, n), p in items if m == 0)

        assert probs.p_bit0_lone == pytest.approx(p_lone0, abs=1e-14)
        assert probs.p_bit1_lone == pytest.approx(p_lone1, abs=1e-14)
        assert probs.p_bit0_lone + probs.p_bit0_partner_missed == pytest.approx(
            p_bit0, abs=1e-13
        )
        assert probs.p_bit1_lone + probs.p_bit1_partner_missed == pytest.approx(
            p_bit1, abs=1e-13
        )
        assert probs.p_disc == pytest.approx(p_disc, abs=1e-13)
        assert probs.p_gen == pytest.approx(p_bit0 + p_bit1, abs=1e-13)

    @pytest.mark.parametrize("mu_eta", [0.01, 0.1, 1.0, 2.0, 5.0, 20.0])
    @pytest.mark.parametrize("source", ALL_SOURCES, ids=lambda s: s.label)
    def test_completeness(self, mu_eta, source):
        dist = output_joint_distribution(source, mu_eta)
        probs = outcome_probabilities(dist, DetectorPair(0.8, 0.55))
        assert probs.p_gen + probs.p_disc + probs.p_none == pytest.approx(1.0, abs=1e-10)
        # independent accounting of the no-click share plus the dropped tail
        p_none_oracle = sum(
            p * (1.0 - 0.8) ** m * (1.0 - 0.55) ** n
            for (m, n), p in np.ndenumerate(dist.probs)
        ) + (1.0 - math.fsum(dist.probs.ravel()))
        assert probs.p_none == pytest.approx(p_none_oracle, abs=1e-10)
        for value in (probs.p_gen, probs.p_disc, probs.p_none):
            assert 0.0 <= value <= 1.0

    def test_balanced_source_is_unbiased(self):
        for source in ALL_SOURCES:
            probs = outcome_probabilities(output_joint_distribution(source, 1.8))
            assert probs.p_bit0_given_valid == pytest.approx(0.5, abs=1e-12)

    def test_dominance_of_interference(self):
        for mu_eta in np.geomspace(0.05, 20.0, 20):
            single = outcome_probabilities(
                output_joint_distribution(SourceModel.single(), float(mu_eta))
            )
            pair = outcome_probabilities(
                output_joint_distribution(
                    SourceModel.indistinguishable_pair(), float(mu_eta)
                )
            )
            assert pair.p_gen >= single.p_gen - 1e-12
            assert pair.p_disc <= single.p_disc + 1e-12

    def test_discard_saturation(self):
        grid = np.geomspace(0.05, 40.0, 24)
        for source in (SourceModel.single(), SourceModel.indistinguishable_pair()):
            values = [
                outcome_probabilities(
                    output_joint_distribution(source, float(m))
                ).p_disc
                for m in grid
            ]
            assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))
        single_20 = outcome_probabilities(
            output_joint_distribution(SourceModel.single(), 20.0)
        )
        assert single_20.p_disc >= 0.95
        # multi-photon bunching keeps the interfering pair's collisions rising
        # toward 1 only slowly; pin the analytic level at the grid edge
        pair_20 = outcome_probabilities(
            output_joint_distribution(SourceModel.indistinguishable_pair(), 20.0, TIGHT)
        )
        assert pair_20.p_disc == pytest.approx(0.7443333271541, abs=1e-6)

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.01, max_value=0.3),
    )
    def test_channel_imbalance_direction(self, eta_base, delta):
        eta0 = min(eta_base + delta, 1.0)
        dist = output_joint_distribution(SourceModel.indistinguishable_pair(), 2.0)
        probs = outcome_probabilities(dist, DetectorPair(eta0, eta_base))
        assert probs.p_bit0_given_valid > 0.5

    def test_bias_point_for_debiasing_runs(self):
        # imbalance chosen to reproduce a 0.49/0.51 raw bias near the
        # interfering optimum; frozen from an independent enumeration
        dist = output_joint_distribution(
            SourceModel.indistinguishable_pair(), 4.2, TIGHT
        )
        probs = outcome_probabilities(dist, DetectorPair(0.4875, 0.5125))
        assert probs.p_bit0_given_valid == pytest.approx(0.490356, abs=5e-4)

    def test_no_valid_bits_gives_no_bias(self):
        dist = output_joint_distribution(SourceModel.single(), 1.0)
        probs = outcome_probabilities(dist, DetectorPair(0.0, 0.0))
        assert probs.p_gen == 0.0
        assert probs.p_bit0_given_valid is None

    def test_detector_validation(self):
        with pytest.raises(ValueError):
            DetectorPair(-0.1, 0.5)
        with pytest.raises(ValueError):
            DetectorPair(0.5, 1.1)


class TestFoldingEquivalence:
    def test_identity_at_unit_efficiency(self):
        assert folding_equivalence_check(2.0, 1.0, SourceModel.single()) == 0.0

    def test_single_source_closed_form_invariance(self):
        # oracle: 2p(1-p) with p = 1 - exp(-mu*eta/2) depends on the product only
        deviation = folding_equivalence_check(2.0, 0.5, SourceModel.single())
        assert deviation <= 1e-6

    def test_interfering_pair(self):
        deviation = folding_equivalence_check(
            4.0, 0.5, SourceModel.indistinguishable_pair()
        )
        assert deviation <= 1e-6

    @pytest.mark.parametrize("source", ALL_SOURCES, ids=lambda s: s.label)
    @pytest.mark.parametrize("mu", [0.5, 2.0, 8.0])
    @pytest.mark.parametrize("eta", [0.25, 0.5, 0.85])
    def test_full_grid(self, source, mu, eta):
        assert folding_equivalence_check(mu, eta, source) <= 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            folding_equivalence_check(1.0, 0.0, SourceModel.single())
        with pytest.raises(ValueError):
            folding_equivalence_check(-1.0, 0.5, SourceModel.single())
