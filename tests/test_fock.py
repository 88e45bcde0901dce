"""Photon statistics of the splitter: transform, distributions, contrast."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import i0e

from bsqrng import fock
from bsqrng.cli import SweepSpec, sweep
from bsqrng.detection import coincidence_contrast
from bsqrng.fock import (
    MAX_TABLE_TOTAL,
    SourceModel,
    TruncationPolicy,
    _binomial_row,
    _interfering_rows,
    _krawtchouk_rows,
    _transformed,
    bs_output_amplitudes,
    output_joint_distribution,
    truncation_bound,
)
from bsqrng.special import poisson_cdf

TIGHT = TruncationPolicy(tail_mass=1e-9)
FINEST = TruncationPolicy(tail_mass=1e-15)

counts = st.integers(min_value=0, max_value=8)
means = st.floats(min_value=0.05, max_value=8.0)


def poisson_pmf(mean, k):
    return math.exp(-mean) * mean**k / math.factorial(k)


SCAN_TAILS = (1e-3, 1e-9, 1e-12, 1e-15)


@functools.lru_cache(maxsize=1)
def python_int_walk(top):
    """Krawtchouk rows of every total up to ``top``, walked in lists of Python
    ints: row 0 times (1 + x), every row times (1 - x)."""
    rows = [[1]]
    walk = [rows]
    for _ in range(top):
        shifted = [(row + [0], [0] + row) for row in rows]
        rows = [[a + b for a, b in zip(*shifted[0])]]
        rows += [[a - b for a, b in zip(*pair)] for pair in shifted]
        walk.append(rows)
    return walk


def scan_from_zero(mu, tail):
    """truncation_bound's answer by the plain scan: first k from 0 that passes."""
    k = 0
    while poisson_cdf(k, mu) < 1.0 - tail:
        k += 1
    return k


def poisson_pair_table(mu, policy=fock.DEFAULT_TRUNCATION):
    """The single source's output table: the Poisson pair pmf of the input arms."""
    return output_joint_distribution(SourceModel.single(), mu, policy).probs


class TestPoissonPairPmf:
    def test_vacuum_term(self):
        for mu in (0.2, 1.0, 3.7):
            assert poisson_pair_table(mu)[0, 0] == pytest.approx(math.exp(-mu), rel=1e-14)

    def test_one_one_at_mu_two(self):
        # product of two Poisson(1.0) pmfs at 1 and 1
        assert poisson_pair_table(2.0)[1, 1] == pytest.approx(
            0.1353352832366127, rel=1e-12
        )

    @given(means, counts, counts)
    def test_matches_product_of_independent_arms(self, mu, m, n):
        # The finest tail keeps (m, n), or the pair weighs less than that tail.
        oracle = poisson_pmf(mu / 2, m) * poisson_pmf(mu / 2, n)
        table = poisson_pair_table(mu, FINEST)
        if m + n < len(table):
            assert table[m, n] == pytest.approx(oracle, rel=1e-10)
        else:
            assert oracle <= FINEST.tail_mass

    def test_truncated_mass_meets_rule(self):
        for mu in (0.1, 1.0, 2.1, 5.0, 20.0):
            table = poisson_pair_table(mu)
            assert len(table) == truncation_bound(mu) + 1
            mass = sum(
                table[m, t - m] for t in range(len(table)) for m in range(t + 1)
            )
            assert mass >= 0.999

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            poisson_pair_table(0.0)
        with pytest.raises(ValueError):
            poisson_pair_table(-1.0)


class TestTruncationBound:
    @pytest.mark.parametrize("mu", [0.05, 0.3, 1.0, 2.1, 7.5, 20.0])
    def test_matches_direct_cdf_summation(self, mu):
        # oracle: first k whose directly summed CDF reaches the target
        target = 0.999
        term = math.exp(-mu)
        cumulative = term
        k = 0
        while cumulative < target:
            k += 1
            term *= mu / k
            cumulative += term
        assert truncation_bound(mu) == k

    def test_vacuum_dominated_limit(self):
        assert truncation_bound(1e-4) in (0, 1)

    def test_monotone_in_mean(self):
        grid = np.geomspace(0.01, 30.0, 40)
        bounds = [truncation_bound(float(m)) for m in grid]
        assert all(b1 <= b2 for b1, b2 in zip(bounds, bounds[1:]))

    def test_respects_policy(self):
        assert truncation_bound(1.0) <= truncation_bound(1.0, TruncationPolicy(1e-9))
        # A tail above 1e-3 could cut a table below 99.9% of its law.
        for tail in (0.5, 0.01, 2e-3, 0.0):
            with pytest.raises(ValueError):
                TruncationPolicy(tail)

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_rejects_non_finite_mean(self, mu):
        with pytest.raises(ValueError, match="finite"):
            truncation_bound(mu)
        with pytest.raises(ValueError, match="finite"):
            output_joint_distribution(SourceModel.single(), mu)

    @pytest.mark.parametrize("tail", SCAN_TAILS)
    def test_scan_matches_scan_from_zero_on_a_dense_grid(self, tail):
        policy = TruncationPolicy(tail)
        for mu in map(float, np.geomspace(1e-6, 300.0, 1000)):
            assert truncation_bound(mu, policy) == scan_from_zero(mu, tail), mu

    @given(st.floats(min_value=1e-6, max_value=300.0), st.sampled_from(SCAN_TAILS))
    def test_scan_matches_scan_from_zero(self, mu, tail):
        assert truncation_bound(mu, TruncationPolicy(tail)) == scan_from_zero(mu, tail)

    @pytest.mark.parametrize("tail", SCAN_TAILS)
    def test_scan_makes_few_cdf_calls(self, tail, monkeypatch):
        # The scan starts where the pmf falls to 16 tail, so it walks only
        # the few steps from there to the answer: at most 42 up to mu 300
        # (tail 1e-3, near mu 300), bounded here by 48. A scan from k = 0
        # takes about mu + 3 sqrt(mu) steps, some 350 at mu 300.
        calls = []

        def counting(k, mu):
            calls.append(k)
            return poisson_cdf(k, mu)

        monkeypatch.setattr(fock, "poisson_cdf", counting)
        policy = TruncationPolicy(tail)
        for mu in np.geomspace(1e-6, 300.0, 200):
            calls.clear()
            truncation_bound(float(mu), policy)
            assert len(calls) <= 48, (mu, len(calls))

    @pytest.mark.parametrize("tail", [1e-3, 1e-15])
    def test_walk_matches_scan_from_below_the_mode_beyond_the_dense_grid(self, tail):
        # Above the dense grid a scan from 0 is slow, but a scan from
        # floor(mu) - 1 still finds the answer: the CDF there is at most 1/2.
        policy = TruncationPolicy(tail)
        for mu in map(float, np.geomspace(300.0, 5000.0, 20)):
            k = max(0, math.floor(mu) - 1)
            while poisson_cdf(k, mu) < 1.0 - tail:
                k += 1
            assert truncation_bound(mu, policy) == k, mu


def splitter_oracle(m, n):
    """Exact |amplitude|^2 and unit phase of each output ket (M, m + n - M).

    Expands a^m b^n with a -> (c + j d)/sqrt(2) and b -> (j c + d)/sqrt(2):
    taking j d from u of the m factors and j c from v of the n factors gives
    the ket (m - u + v, n - v + u) with weight j^(u+v) C(m, u) C(n, v). The
    Gaussian-integer sum S over one ket makes the Krawtchouk coefficient, and
    |amplitude|^2 = |S|^2 M! N! / (m! n! 2^(m+n)) as a Fraction.
    """
    total = m + n
    powers = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    probs, phases = [], []
    for out_m in range(total + 1):
        re = im = 0
        for u in range(m + 1):
            v = out_m - m + u
            if 0 <= v <= n:
                w = math.comb(m, u) * math.comb(n, v)
                re += powers[(u + v) % 4][0] * w
                im += powers[(u + v) % 4][1] * w
        size = re * re + im * im
        probs.append(Fraction(
            size * math.factorial(out_m) * math.factorial(total - out_m),
            math.factorial(m) * math.factorial(n) * 2**total,
        ))
        phases.append(complex(re, im) / math.sqrt(size) if size else 0.0)
    return probs, np.array(phases)


class TestSplitterTransform:
    # Entry M of an amplitude array is the output ket (M, total - M).

    def test_vacuum_invariant(self):
        amp = bs_output_amplitudes((0, 0))
        assert amp.tolist() == [1.0 + 0.0j]

    def test_single_photon_superposition(self):
        amp = bs_output_amplitudes((1, 0))
        assert amp[1] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert amp[0] == pytest.approx(1j / math.sqrt(2), abs=1e-15)

    def test_two_photon_bunching_null(self):
        amp = bs_output_amplitudes((1, 1))
        assert amp[1] == 0.0  # exact cancellation
        assert abs(amp[2]) ** 2 == pytest.approx(0.5, abs=1e-14)
        assert abs(amp[0]) ** 2 == pytest.approx(0.5, abs=1e-14)

    def test_two_photons_one_arm(self):
        # oracle: expanding ((c + j d)/sqrt(2))^2 on vacuum gives
        # |2,0>/2 + j|1,1>/sqrt(2) - |0,2>/2
        amp = bs_output_amplitudes((2, 0))
        assert amp[1] == pytest.approx(1j / math.sqrt(2), abs=1e-14)
        assert abs(amp[1]) ** 2 == pytest.approx(0.5, abs=1e-14)
        assert amp[2] == pytest.approx(0.5, abs=1e-14)
        assert amp[0] == pytest.approx(-0.5, abs=1e-14)

    @given(counts, counts)
    def test_unitarity_and_conservation(self, m, n):
        amp = bs_output_amplitudes((m, n))
        assert np.sum(np.abs(amp) ** 2) == pytest.approx(1.0, abs=1e-12)
        assert len(amp) == m + n + 1

    def test_rows_sum_to_one_at_every_total(self):
        for total in range(MAX_TABLE_TOTAL + 1):
            for m in range(total + 1):
                amp = bs_output_amplitudes((m, total - m))
                assert abs(np.sum(np.abs(amp) ** 2) - 1.0) <= 1e-13, (m, total - m)
            assert np.abs(_interfering_rows(total).sum(axis=1) - 1.0).max() <= 1e-13, total
            assert abs(_binomial_row(total).sum() - 1.0) <= 1e-13, total

    @pytest.mark.parametrize("m, n", [(1, 1), (2, 0), (3, 5), (10, 10), (59, 59), (100, 100)])
    def test_rows_match_exact_oracle(self, m, n):
        probs, phases = splitter_oracle(m, n)
        row = _interfering_rows(m + n)[m]
        assert row.tolist() == [float(p) for p in probs]
        amp = bs_output_amplitudes((m, n))
        assert np.abs(amp - phases * np.sqrt(row)).max() <= 1e-15

    def test_int64_rows_equal_the_big_integer_quotient(self):
        # Totals up to 62 multiply in int64, above in Python ints; the
        # quotient here divides Python ints at every total.
        for total in range(71):
            k = _krawtchouk_rows(total).astype(object)
            exact = ((k * k.T) / (1 << total)).astype(float)
            assert np.array_equal(_interfering_rows(total), exact), total
        assert max(abs(v) for v in _krawtchouk_rows(62).ravel()) < 2**62

    def test_binomial_row_is_the_interfering_row_of_one_occupied_input(self):
        # The input (0, t) sends each photon either way on its own, so the
        # routed (no-interference) law is its interfering row; int64 rows up
        # to 62, Python ints above.
        for total in range(101):
            assert np.array_equal(_binomial_row(total), _interfering_rows(total)[0]), total

    def test_krawtchouk_walk_turns_to_python_ints_after_62(self):
        _krawtchouk_rows.cache_clear()
        for total in range(71):
            rows = _krawtchouk_rows(total)
            if total <= 62:
                assert rows.dtype == np.int64, total
            else:
                assert rows.dtype == object, total
                assert {type(v) for v in rows.ravel()} == {int}, total
            assert rows.tolist() == python_int_walk(70)[total], total

    @pytest.mark.parametrize(
        "totals", [(50, 70), (70,), (70, 10, 64)], ids=["across", "cold", "restart"]
    )
    def test_krawtchouk_walk_across_the_switch(self, totals):
        _krawtchouk_rows.cache_clear()
        for total in totals:
            assert _krawtchouk_rows(total).tolist() == python_int_walk(70)[total], total

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            bs_output_amplitudes((MAX_TABLE_TOTAL, 1))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            bs_output_amplitudes((-1, 0))


def routing_oracle(mu, bound):
    """Independent fair-coin routing of every photon of every Fock input."""
    probs = {}
    for m in range(bound + 1):
        for n in range(bound + 1 - m):
            weight = poisson_pmf(mu / 2, m) * poisson_pmf(mu / 2, n)
            for k in range(m + 1):
                for l in range(n + 1):
                    key = (k + l, (m - k) + (n - l))
                    probs[key] = probs.get(key, 0.0) + (
                        weight * math.comb(m, k) * math.comb(n, l) / 2 ** (m + n)
                    )
    return probs


class TestJointDistribution:
    def test_interfering_pair_coincidence_entry(self):
        # oracle: hand expansion over the three two-photon inputs; the (1,1)
        # input contributes nothing, (2,0) and (0,2) contribute half each
        for mu in (0.3, 1.3, 2.1):
            dist = output_joint_distribution(SourceModel.indistinguishable_pair(), mu)
            assert dist.probs[1, 1] == pytest.approx(
                math.exp(-mu) * mu**2 / 8, rel=1e-12
            )

    def test_single_source_coincidence_is_twice_interfering(self):
        for mu in (0.3, 1.3, 2.1):
            dist = output_joint_distribution(SourceModel.single(), mu)
            assert dist.probs[1, 1] == pytest.approx(
                math.exp(-mu) * mu**2 / 4, rel=1e-12
            )

    def test_distinguishable_matches_routing_oracle(self):
        mu = 1.3
        dist = output_joint_distribution(SourceModel.distinguishable_pair(), mu)
        bound = truncation_bound(mu)
        oracle = routing_oracle(mu, bound)
        assert _binomial_row(2).tolist() == [0.25, 0.5, 0.25]
        support = {(int(m), int(n)) for m, n in np.argwhere(dist.probs > 0.0)}
        assert support == set(oracle)
        for key, expected in oracle.items():
            assert dist.probs[key] == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("mu", [0.1, 1.0, 5.0])
    def test_distinguishable_equals_single_benchmark(self, mu):
        single = output_joint_distribution(SourceModel.single(), mu)
        routed = output_joint_distribution(SourceModel.distinguishable_pair(), mu)
        assert single.probs.shape == routed.probs.shape
        assert np.max(np.abs(single.probs - routed.probs)) <= 1e-12

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_mixture_interpolates(self, overlap):
        mu = 1.7
        mix = output_joint_distribution(SourceModel.partial_mixture(overlap), mu)
        interfering = output_joint_distribution(
            SourceModel.indistinguishable_pair(), mu
        )
        routed = output_joint_distribution(SourceModel.distinguishable_pair(), mu)
        expected = overlap * interfering.probs + (1 - overlap) * routed.probs
        assert mix.probs == pytest.approx(expected, abs=1e-14)

    def test_mixture_endpoints(self):
        mu = 2.1
        ind = output_joint_distribution(SourceModel.indistinguishable_pair(), mu)
        mix1 = output_joint_distribution(SourceModel.partial_mixture(1.0), mu)
        assert np.max(np.abs(ind.probs - mix1.probs)) <= 1e-12
        routed = output_joint_distribution(SourceModel.distinguishable_pair(), mu)
        mix0 = output_joint_distribution(SourceModel.partial_mixture(0.0), mu)
        assert np.max(np.abs(routed.probs - mix0.probs)) <= 1e-12

    @pytest.mark.parametrize(
        "source",
        [
            SourceModel.single(),
            SourceModel.indistinguishable_pair(),
            SourceModel.distinguishable_pair(),
            SourceModel.partial_mixture(0.6),
        ],
    )
    def test_symmetry_and_mass(self, source):
        dist = output_joint_distribution(source, 1.9)
        mass = math.fsum(dist.probs.ravel())
        assert 0.999 <= mass <= 1.0 + 1e-12
        assert np.all((dist.probs >= 0.0) & (dist.probs <= 1.0))
        assert np.max(np.abs(dist.probs - dist.probs.T)) <= 1e-12

    @pytest.mark.parametrize("label", ["single", "indist", "dist", "mix:0.6"])
    def test_table_is_a_read_only_triangle(self, label):
        dist = output_joint_distribution(SourceModel.from_label(label), 2.1)
        bound = truncation_bound(2.1)
        assert dist.probs.shape == (bound + 1, bound + 1)
        m, n = np.indices(dist.probs.shape)
        assert np.all(dist.probs[m + n > bound] == 0.0)
        with pytest.raises(ValueError):
            dist.probs[0, 0] = 0.5

    def test_single_marginal_is_half_mean_poisson(self):
        mu = 1.9
        dist = output_joint_distribution(SourceModel.single(), mu, TIGHT)
        marginal = dist.probs.sum(axis=1)
        for m in range(6):
            assert marginal[m] == pytest.approx(poisson_pmf(mu / 2, m), abs=1e-8)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            output_joint_distribution(SourceModel.single(), 0.0)

    @pytest.mark.parametrize("label", ["single", "indist", "mix:0.5"])
    def test_table_total_cap(self, label):
        # The bound at mu 211 is 257, one above the cap.
        with pytest.raises(OverflowError, match=str(MAX_TABLE_TOTAL)) as info:
            output_joint_distribution(SourceModel.from_label(label), 211.0)
        assert "211" in str(info.value)

    @pytest.mark.parametrize("mu", [257.0, 1e9, 1e300])
    def test_mean_past_the_cap_is_refused_without_a_walk(self, monkeypatch, mu):
        def no_walk(*args, **kwargs):
            raise AssertionError("truncation_bound walked for a mean past the cap")

        monkeypatch.setattr(fock, "truncation_bound", no_walk)
        with pytest.raises(OverflowError, match=str(MAX_TABLE_TOTAL)):
            output_joint_distribution(SourceModel.single(), mu)

    @pytest.mark.parametrize("label", ["single", "indist", "mix:0.5"])
    def test_table_total_refusal_is_monotone_in_mu(self, monkeypatch, label):
        class Accepted(Exception):
            pass

        def accepted(*args, **kwargs):
            raise Accepted

        monkeypatch.setattr(fock, "_arm_weights", accepted)
        refused = []
        for mu in np.arange(200.0, 230.25, 0.25):
            try:
                output_joint_distribution(SourceModel.from_label(label), float(mu))
            except OverflowError:
                refused.append(True)
            except Accepted:
                refused.append(False)
        # Once a mu is refused, every brighter one is refused too.
        assert refused == sorted(refused)
        assert not refused[0] and refused[-1]

    @pytest.mark.parametrize("label", ["single", "indist", "dist", "mix:0.5"])
    def test_default_policy_meets_mass_floor(self, label):
        # A table keeps at least 1 - tail_mass of its law, so the default 1e-3
        # tail leaves the 99.9% floor and the CLI's sweep needs no error
        # branch for its rows. The tight tails run on a shorter grid.
        source = SourceModel.from_label(label)
        for tail, mu_max, points in ((1e-3, 150.0, 300), (1e-9, 20.0, 40), (1e-12, 20.0, 40)):
            policy = TruncationPolicy(tail)
            for mu in np.geomspace(1e-6, mu_max, points):
                dist = output_joint_distribution(source, float(mu), policy)
                assert math.fsum(dist.probs.ravel()) >= 1.0 - tail, (tail, mu)

    def test_overlap_validation(self):
        with pytest.raises(ValueError):
            SourceModel.partial_mixture(1.5)


def arm_weights_by_list(mu, bound):
    """Reference arm weights: one ``math.exp`` per entry, gathered in a list."""
    lf = np.array([math.lgamma(i + 1) for i in range(bound + 1)])
    k = np.arange(bound + 1)
    total = k[:, None] + k[None, :]
    log_w = -mu + total * (math.log(mu) - math.log(2.0)) - lf[:, None] - lf[None, :]
    inside = total <= bound
    weights = np.zeros((bound + 1, bound + 1))
    weights[inside] = [math.exp(x) for x in log_w[inside]]
    return weights


def transformed_by_fancy_index(weights):
    """Reference ``_transformed``: each anti-diagonal picked by index arrays."""
    out = np.zeros_like(weights)
    for t in range(len(weights)):
        m = np.arange(t + 1)
        out[m, t - m] = (weights[m, t - m][:, None] * _interfering_rows(t)).sum(axis=0)
    return out


def reference_table(source, mu, policy):
    """``output_joint_distribution``'s table built from the two forms above."""
    bound = scan_from_zero(mu, policy.tail_mass)
    weights = arm_weights_by_list(mu, bound)
    if source.label in ("single", "dist"):
        return weights
    if source.label == "indist":
        return transformed_by_fancy_index(weights)
    w = source.overlap
    return w * transformed_by_fancy_index(weights) + (1.0 - w) * weights


def clear_table_caches():
    fock._arm_weights.cache_clear()
    fock._interfering_table.cache_clear()


ALL_SOURCES = ("single", "indist", "dist", "mix:0.5")
# The finest tail, which still cuts at total 2 at mu 1e-6, and the sweep's.
POLICIES = (FINEST, fock.DEFAULT_TRUNCATION)


class TestTableBuilds:
    """Each table is built once per (mu, bound) and equals the reference forms bit for bit."""

    def test_transformed_matches_fancy_index_form(self):
        rng = np.random.default_rng(2016)
        for bound in range(61):
            weights = rng.random((bound + 1, bound + 1))
            expected = transformed_by_fancy_index(weights)
            assert np.array_equal(_transformed(weights), expected), bound

    @pytest.mark.parametrize("label", ALL_SOURCES)
    @pytest.mark.parametrize("mu", [1e-6, 0.05, 0.7, 2.1, 9.3, 40.0])
    def test_cold_and_warm_tables_are_equal_and_read_only(self, label, mu):
        source = SourceModel.from_label(label)
        for policy in POLICIES:
            expected = reference_table(source, mu, policy)
            clear_table_caches()
            cold = output_joint_distribution(source, mu, policy).probs
            clear_table_caches()
            for other in ALL_SOURCES:
                for other_policy in POLICIES:
                    output_joint_distribution(SourceModel.from_label(other), mu, other_policy)
            warm = output_joint_distribution(source, mu, policy).probs
            for probs in (cold, warm):
                assert np.array_equal(probs, expected)
                assert not probs.flags.writeable

    def test_sweep_builds_each_table_once_per_point(self, monkeypatch, tmp_path):
        # Each arm-weight build reads the log factorials once; each
        # interfering table runs the splitter transform once.
        builds = {"weights": 0, "transform": 0}

        def counted(key, fn):
            def wrapper(*args):
                builds[key] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(fock, "_log_factorials", counted("weights", fock._log_factorials))
        monkeypatch.setattr(fock, "_transformed", counted("transform", fock._transformed))
        clear_table_caches()
        points = 12
        sources = tuple(map(SourceModel.from_label, ALL_SOURCES))
        spec = SweepSpec(0.05, 20.0, points, sources=sources)
        out_path = tmp_path / "sweep.csv"
        assert sweep(spec, out_path) == ""
        assert len(out_path.read_text().splitlines()) == 1 + 4 * points
        assert builds == {"weights": points, "transform": points}

    @pytest.mark.parametrize("label", ["mix:0", "dist", "single"])
    def test_no_interference_never_transforms(self, label, monkeypatch):
        def refuse(*args):
            raise AssertionError("built an interfering table at w = 0")

        clear_table_caches()
        monkeypatch.setattr(fock, "_transformed", refuse)
        monkeypatch.setattr(fock, "_interfering_rows", refuse)
        source = SourceModel.from_label(label)
        for mu in (2.1, 40.0):
            output_joint_distribution(source, mu)


class TestSourceLabels:
    def test_round_trip(self):
        for label in ("single", "indist", "dist", "mix:0.35"):
            assert SourceModel.from_label(label).label == label

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            SourceModel.from_label("laser")

    @pytest.mark.parametrize("label", ["mix:", "mix:abc", "laser"])
    def test_bad_label_names_the_accepted_forms(self, label):
        expected = f"unknown source {label!r}; expected single, indist, dist or mix:<overlap>"
        with pytest.raises(ValueError) as info:
            SourceModel.from_label(label)
        assert str(info.value) == expected

    def test_out_of_range_mixture_names_the_overlap(self):
        with pytest.raises(ValueError, match=r"overlap must lie in \[0, 1\]"):
            SourceModel.from_label("mix:1.5")

    def test_overlap_is_the_interference_weight(self):
        assert SourceModel.single().overlap == 0.0
        assert SourceModel.distinguishable_pair().overlap == 0.0
        assert SourceModel.indistinguishable_pair().overlap == 1.0

    def test_short_labels_print_as_before(self):
        for w, label in ((0.5, "mix:0.5"), (0.3, "mix:0.3"), (1.0, "mix:1"), (0.0, "mix:0")):
            assert SourceModel.partial_mixture(w).label == label

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_mixture_label_keeps_every_digit(self, w):
        source = SourceModel.partial_mixture(w)
        assert float(source.label[4:]) == w
        assert SourceModel.from_label(source.label) == source


class TestCoincidenceContrast:
    def test_low_mean_approaches_half(self):
        # oracle: leading order in mu^2 gives exactly 1/2
        assert 0.49 <= coincidence_contrast(0.01) <= 0.50

    def test_monotone_decay(self):
        grid = np.geomspace(0.01, 20.0, 20)
        values = [coincidence_contrast(float(m)) for m in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_underflow_guard(self):
        with pytest.raises(ValueError, match="baseline coincidence probability underflows"):
            coincidence_contrast(1e-200)

    @pytest.mark.parametrize(
        "mu, message",
        [(0.0, "positive"), (-1.0, "positive"), (math.nan, "finite"), (math.inf, "finite")],
    )
    def test_rejects_mean_outside_the_domain(self, mu, message):
        with pytest.raises(ValueError, match=f"mean photon number must be {message}"):
            coincidence_contrast(mu)

    def test_matches_bessel_and_series_oracles(self):
        # The contrast is 2 e^-a (I0(a) - 1) / expm1(-a)^2 with a = mu / 2:
        # from scipy's scaled Bessel function i0e down to mu 0.02, where its
        # difference still keeps 1e-11; below, from the series of the even
        # ratio (I0(a) - 1) / (cosh(a) - 1) to order a^4.
        for mu in [*np.geomspace(1e-12, 1e9, 200).tolist(), 1e-3, 0.0612597792895506]:
            a = mu / 2
            if mu >= 0.02:
                expected = 2.0 * (i0e(a) - math.exp(-a)) / math.expm1(-a) ** 2
            else:
                expected = 0.5 - a**2 / 96 + a**4 / 2880
            assert coincidence_contrast(mu) == pytest.approx(expected, rel=1e-10, abs=0.0), mu

    def test_stays_within_its_bound(self):
        # At small means the exact value rounds to 1/2, and the mean of the
        # midpoint terms can round one ulp above it.
        for mu in np.geomspace(1e-12, 1e9, 400).tolist():
            assert 0.0 < coincidence_contrast(mu) <= 0.5, mu
