"""Statistical tests: worked examples, properties, battery plumbing."""

import math
import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsqrng import randtests
from bsqrng.postproc import BitStream
from bsqrng.randtests import (
    COMPONENTS,
    NOT_RUN,
    InsufficientDataError,
    _as_bits,
    _Blocks,
    _cdf_reach,
    _changes,
    _cusum_cdf,
    _cusum_p,
    _longest_runs,
    _packed_rows,
    _pattern_counts,
    approximate_entropy,
    block_frequency,
    cumulative_sums,
    frequency_monobit,
    longest_run_of_ones,
    parse_report_csv,
    run_battery,
    runs,
    serial,
)
from bsqrng.special import gammainc_upper, normal_cdf

# First hundred bits of the binary expansion of pi, as used in the reference
# suite's frequency example.
PI_100 = (
    "11001001000011111101101010100010001000010110100011"
    "00001000110100110001001100011001100010100010111000"
)

# 128-bit vector of the reference suite's longest-run example.
E_128 = (
    "11001100000101010110110001001100111000000000001001"
    "00110101010001000100111101011010000000110101111100"
    "1100111001101101100010110010"
)

# Expected p-values computed with independent high-precision arithmetic
# (scipy reference implementations of erfc/igamc on the documented inputs;
# 40-digit arithmetic for the cumulative sums of pi); they agree with the
# suite's published worked-example values to 1e-4.
FROZEN = {
    "monobit_short": 0.5270892568655381,
    "monobit_pi": 0.109598583399116,
    "block_frequency": 0.8012519569012009,
    "runs": 0.14723225536366571,
    "longest_run": 0.18059797678555792,
    "cusum_forward": 0.4116586191538023,
    "cusum_pi_forward": 0.21919399348562656,
    "cusum_pi_backward": 0.11486621530252159,
    "approximate_entropy": 0.2619611048816654,
    "serial_1": 0.8087921354109989,
    "serial_2": 0.6703200460356398,
}

PUBLISHED = {
    "monobit_short": 0.527089,
    "monobit_pi": 0.109599,
    "block_frequency": 0.801252,
    "runs": 0.147232,
    "longest_run": 0.180609,
    "cusum_forward": 0.4116588,
    "cusum_pi_forward": 0.219194,
    "cusum_pi_backward": 0.114866,
    "approximate_entropy": 0.261961,
    "serial_1": 0.808792,
    "serial_2": 0.670320,
}


def ideal_bits(n, seed=0):
    return np.random.default_rng(seed).integers(0, 2, n, dtype=np.uint8)


class TestWorkedExamples:
    def test_monobit(self):
        p = frequency_monobit("1011010101", min_length=10)
        assert p == pytest.approx(FROZEN["monobit_short"], abs=1e-9)
        assert p == pytest.approx(PUBLISHED["monobit_short"], abs=1e-4)
        # same statistic for the spec's ten-bit vector: six ones, S = 2
        assert frequency_monobit("1001101011", min_length=10) == pytest.approx(
            FROZEN["monobit_short"], abs=1e-9
        )

    def test_monobit_hundred_bits(self):
        p = frequency_monobit(PI_100)
        assert p == pytest.approx(FROZEN["monobit_pi"], abs=1e-9)
        assert p == pytest.approx(PUBLISHED["monobit_pi"], abs=1e-4)

    def test_block_frequency(self):
        p = block_frequency("0110011010", 3)
        assert p == pytest.approx(FROZEN["block_frequency"], abs=1e-9)
        assert p == pytest.approx(PUBLISHED["block_frequency"], abs=1e-4)

    def test_runs(self):
        p = runs("1001101011")
        assert p == pytest.approx(FROZEN["runs"], abs=1e-9)
        assert p == pytest.approx(PUBLISHED["runs"], abs=1e-4)

    def test_longest_run(self):
        assert len(E_128) == 128
        p = longest_run_of_ones(E_128)
        assert p == pytest.approx(FROZEN["longest_run"], abs=1e-9)
        assert p == pytest.approx(PUBLISHED["longest_run"], abs=1e-4)

    def test_cumulative_sums(self):
        p = cumulative_sums("1011010111", "forward")
        assert p == pytest.approx(FROZEN["cusum_forward"], abs=1e-9)
        assert p == pytest.approx(PUBLISHED["cusum_forward"], abs=1e-4)

    def test_cumulative_sums_nist_summation_limits(self):
        # SP 800-22 section 2.13.4: n = 10, z = 4. The reference code's integer
        # division keeps k = 0 in the first sum and k = -1, 0 in the second;
        # floor on floats would add k = -1 and k = -2 as well.
        p = cumulative_sums("1011010111", "forward")
        assert p == pytest.approx(PUBLISHED["cusum_forward"], abs=5e-7)

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_cumulative_sums_hundred_bits(self, direction):
        # SP 800-22 section 2.13.8: the first hundred bits of pi
        p = cumulative_sums(PI_100, direction)
        assert p == pytest.approx(FROZEN[f"cusum_pi_{direction}"], abs=1e-9)
        assert p == pytest.approx(PUBLISHED[f"cusum_pi_{direction}"], abs=1e-4)

    def test_approximate_entropy(self):
        p = approximate_entropy("0100110101", m=3)
        assert p == pytest.approx(FROZEN["approximate_entropy"], abs=1e-9)
        assert p == pytest.approx(PUBLISHED["approximate_entropy"], abs=1e-4)

    def test_serial(self):
        p1, p2 = serial("0011011101", m=3)
        assert p1 == pytest.approx(FROZEN["serial_1"], abs=1e-9)
        assert p2 == pytest.approx(FROZEN["serial_2"], abs=1e-9)
        assert p1 == pytest.approx(PUBLISHED["serial_1"], abs=1e-4)
        assert p2 == pytest.approx(PUBLISHED["serial_2"], abs=1e-4)


class TestProperties:
    @settings(max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.integers(256, 2048))
    def test_p_values_in_unit_interval(self, seed, n):
        bits = ideal_bits(n, seed)
        values = [
            frequency_monobit(bits),
            block_frequency(bits, 32),
            runs(bits),
            longest_run_of_ones(bits),
            cumulative_sums(bits, "forward"),
            cumulative_sums(bits, "backward"),
            approximate_entropy(bits, 3),
            *serial(bits, 4),
        ]
        assert all(0.0 <= p <= 1.0 for p in values)

    @given(st.integers(0, 2**32 - 1))
    def test_monobit_complement_symmetry(self, seed):
        bits = ideal_bits(512, seed)
        assert frequency_monobit(bits) == frequency_monobit(1 - bits)

    def test_degenerate_sequences_fail_everything(self):
        for constant in (np.zeros(2048, dtype=np.uint8), np.ones(2048, dtype=np.uint8)):
            values = [
                frequency_monobit(constant),
                block_frequency(constant, 128),
                runs(constant),
                longest_run_of_ones(constant),
                cumulative_sums(constant, "forward"),
                approximate_entropy(constant, 4),
                *serial(constant, 5),
            ]
            assert all(p < 0.01 for p in values)

    def test_alternating_sequence_has_no_excess(self):
        bits = np.tile([0, 1], 200)
        assert frequency_monobit(bits) == 1.0

    def test_runs_frequency_pretest(self):
        biased = np.ones(400, dtype=np.uint8)
        biased[:40] = 0
        assert runs(biased) == 0.0

    def test_block_frequency_on_a_long_block_matches_scipy(self):
        # 78 125 sub-blocks: the incomplete gamma at shape 39 062.5.
        bits = ideal_bits(10**7, 7)
        ones = bits.reshape(-1, 128).sum(axis=1, dtype=np.int64)
        chi_sq = 4.0 * 128 * float((((ones / 128) - 0.5) ** 2).sum())
        expected = float(scipy.special.gammaincc(len(ones) / 2, chi_sq / 2))
        assert block_frequency(bits) == pytest.approx(expected, rel=1e-10)

    def test_accepts_bitstream_input(self):
        stream = BitStream.from_bits(ideal_bits(512, 3))
        assert 0.0 <= frequency_monobit(stream) <= 1.0


def loop_longest_runs(bits, block_len):
    """Longest 1-run of each whole sub-block, one bit at a time."""
    maxima = []
    for start in range(0, len(bits) - block_len + 1, block_len):
        best = current = 0
        for bit in bits[start : start + block_len]:
            current = current + 1 if bit else 0
            best = max(best, current)
        maxima.append(best)
    return maxima


# Runs of random lengths, so that long runs cross sub-block edges.
run_lengths = st.lists(st.integers(1, 40), min_size=1, max_size=30)


def loop_pattern_counts(bits, m):
    """Occurrences of each overlapping m-bit pattern, wrapping around the end, one window at a time."""
    n = len(bits)
    counts = [0] * 2**m
    for start in range(n):
        value = 0
        for i in range(m):
            value = 2 * value + int(bits[(start + i) % n])
        counts[value] += 1
    return counts


def loop_changes(bits):
    """Neighbours that differ, one pair at a time."""
    return sum(int(a != b) for a, b in zip(bits[:-1], bits[1:]))


def alternating_runs(lengths, first_bit):
    return np.concatenate([
        np.full(length, (i % 2 == 0) == first_bit, dtype=np.uint8)
        for i, length in enumerate(lengths)
    ])


def packed_group(rows, max_m=1):
    """A group of the given unpacked rows, packed MSB first as the battery holds them."""
    return _Blocks(np.packbits(rows, axis=1), rows.shape[1], max_m)


def longest_runs(rows, block_len, cap):
    return _longest_runs(packed_group(rows).sub_blocks(block_len), cap)


class TestVectorizedKernels:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.integers(1, 90), st.integers(1, 5),
           st.integers(0, 9), st.booleans())
    def test_packed_rows_match_unpacked(self, seed, start, n, k, extra, ones_padding):
        # rows from every bit of a byte, of every n % 8, to the payload's end
        # or short of it, in a stream whose padding bits may be ones
        bits = ideal_bits(start + k * n + extra, seed)
        data = bytearray(np.packbits(bits))
        if ones_padding and len(bits) % 8:
            data[-1] |= 0xFF >> len(bits) % 8
        rows = _packed_rows(BitStream(bytes(data), len(bits)), start, n, k)
        expected = np.packbits(bits[start : start + k * n].reshape(k, n), axis=1)
        assert rows.dtype == np.uint8 and rows.tolist() == expected.tolist()

    def test_byte_aligned_groups_are_views_of_the_payload(self):
        stream = BitStream.from_bits(ideal_bits(5 * 1024 + 3, seed=1))
        payload = np.frombuffer(stream.data, dtype=np.uint8)
        with mock.patch.object(randtests, "_GROUP_BITS", 2 * 1024):
            aligned = list(randtests._groups(stream, 1024, 5))
            shifted = list(randtests._groups(stream, 1023, 5))
        assert [len(rows) for rows in aligned] == [2, 2, 1]
        assert all(np.shares_memory(rows, payload) for rows in aligned)
        assert not any(np.shares_memory(rows, payload) for rows in shifted)

    # sub-blocks of every length mod 8 and up to 11 bytes; runs of up to 40
    # bits, a chain of 0xFF bytes, after a first run that sets their offset
    @given(run_lengths, st.booleans(), st.integers(1, 88), st.sampled_from([4, 9, 16]))
    @example([8, 8], True, 8, 16)  # two all-one sub-blocks must not merge into 16
    @example([4, 12, 8], True, 8, 16)  # an all-zero sub-block between two others
    @example([13, 6, 1], True, 8, 16)  # a run crossing an edge, then a partial tail
    @example([20], True, 24, 16)  # a run across all-one bytes of one sub-block
    @example([7, 10], False, 24, 16)  # 1 + 8 + 1 bits: across a whole byte
    @example([1, 15], False, 24, 16)  # 7 + 8 bits, ending at a byte edge
    @example([1, 16], False, 24, 16)  # 7 + 8 + 1 bits
    @example([3, 17], False, 32, 16)  # 5 + 8 + 4 bits
    @example([5, 40, 1, 30], False, 88, 16)  # 3 + 8 * 4 + 5 bits, then a 30-bit run
    @example([64], True, 64, 9)  # eight 0xFF bytes, a sub-block of ones
    @example([7, 9], False, 16, 9)  # 1 + 8 bits, ending at the sub-block's end
    def test_longest_runs_match_loop(self, lengths, first_bit, block_len, cap):
        bits = alternating_runs(lengths, first_bit)
        longest = longest_runs(bits[None, :], block_len, cap)
        assert longest.tolist() == [[min(x, cap) for x in loop_longest_runs(bits, block_len)]]

    @given(st.lists(run_lengths, min_size=1, max_size=4), st.integers(1, 24),
           st.sampled_from([4, 9, 16]))
    def test_longest_runs_row_by_row(self, rows_of_runs, block_len, cap):
        # rows of one length, each padded with zeros: every row as if alone
        rows = [np.concatenate([np.full(n, i % 2, dtype=np.uint8) for i, n in enumerate(r)])
                for r in rows_of_runs]
        width = max(map(len, rows))
        group = np.zeros((len(rows), width), dtype=np.uint8)
        for row, bits in zip(group, rows):
            row[: len(bits)] = bits
        expected = [[min(x, cap) for x in loop_longest_runs(row, block_len)] for row in group]
        assert longest_runs(group, block_len, cap).tolist() == expected

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(2, 90),
           st.sampled_from([0.5, 0.1, 0.9, 0.0, 1.0]))
    def test_changes_match_loop(self, seed, k, n, p_one):
        # every n % 8, several rows, and constant rows
        rows = (np.random.default_rng(seed).random((k, n)) < p_one).astype(np.uint8)
        changes = _changes(np.packbits(rows, axis=1), n)
        assert changes.tolist() == [loop_changes(row.tolist()) for row in rows]

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 90),
           st.integers(1, 40), st.sampled_from([0.5, 0.1, 0.9, 0.0, 1.0]))
    def test_sub_block_ones_match_loop(self, seed, k, n, block_len, p_one):
        # every n % 8 and block_len % 8; the ones that block frequency reads
        rows = (np.random.default_rng(seed).random((k, n)) < p_one).astype(np.uint8)
        ones = np.bitwise_count(packed_group(rows).sub_blocks(block_len)).sum(axis=0)
        expected = [
            [sum(row[j : j + block_len].tolist()) for j in range(0, n - block_len + 1, block_len)]
            for row in rows
        ]
        assert ones.tolist() == expected

    @given(st.integers(0, 2**32 - 1), st.integers(5, 400))
    def test_derived_pattern_counts_match_direct(self, seed, n):
        bits = ideal_bits(n, seed)
        shared = packed_group(bits[None, :], 5)
        for m in (5, 4, 3, 2, 1):
            assert shared.counts[m][0].tolist() == loop_pattern_counts(bits, m), m

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(9, 80),
           st.integers(1, 8), st.sampled_from([0.5, 0.1, 0.0, 1.0]))
    def test_pattern_counts_match_loop(self, seed, k, n, m, p_one):
        # every n % 4 and n % 8, several rows, and constant rows
        rows = (np.random.default_rng(seed).random((k, n)) < p_one).astype(np.uint8)
        expected = [loop_pattern_counts(row, m) for row in rows]
        assert _pattern_counts(np.packbits(rows, axis=1), n, m).tolist() == expected


def shaped_walk(steps, shape):
    """Bits whose +-1 walk follows ``shape``: free, never below or above zero, or monotone."""
    if shape == "monotone":
        return np.full(len(steps), steps[0], dtype=np.uint8)
    level, bits = 0, []
    for up in steps:
        if shape != "free" and level == 0:
            up = shape == "non_negative"
        level += 1 if up else -1
        bits.append(up)
    return np.array(bits, dtype=np.uint8)


def direct_excursion(bits, direction):
    steps = 2 * bits.astype(np.int64) - 1
    return int(np.abs(np.cumsum(steps if direction == "forward" else steps[::-1])).max())


class TestCumulativeSumsKernels:
    @given(
        st.lists(st.booleans(), min_size=2, max_size=300),
        st.sampled_from(["free", "non_negative", "non_positive", "monotone"]),
    )
    @example([True, False], "free")
    @example([False, True], "free")
    @example([True, True], "monotone")
    @example([False, False], "monotone")
    def test_shared_walk_matches_plain_array(self, steps, shape):
        bits = shaped_walk(steps, shape)
        block = packed_group(bits[None, :])
        for direction in ("forward", "backward"):
            assert block.excursions[direction].tolist() == [direct_excursion(bits, direction)]
            statistic = cumulative_sums(block, direction)
            [shared] = statistic.to_p(statistic.values).tolist()
            assert shared.hex() == cumulative_sums(bits, direction).hex(), direction

    @given(st.lists(st.lists(st.booleans(), min_size=2, max_size=40), min_size=1, max_size=5))
    def test_group_walk_matches_each_row(self, rows):
        # rows of one length: each row's excursions as if alone
        width = min(map(len, rows))
        group = np.array([row[:width] for row in rows], dtype=np.uint8)
        excursions = packed_group(group).excursions
        for direction in ("forward", "backward"):
            expected = [direct_excursion(row, direction) for row in group]
            assert excursions[direction].tolist() == expected, direction

    @given(st.integers(2, 10**7))
    def test_cusum_cdf_at_edges(self, n):
        reach = _cdf_reach(n)
        # min(reach, n) reads the reach itself once n gets there; n reads
        # p = n and 3 n, past the reach at large n; 1 reads every odd p
        excursions = [min(reach, n), n] + ([1] if n <= 10**4 else [])
        table = _cusum_cdf(n, np.array(excursions), reach)
        read = cusum_reads(n, excursions)
        assert min(reach, n) in read
        assert_cdf_table_holds(n, table, read)
        # every |p| beyond reach reads the end entries: exactly 0.0 and 1.0
        sqrt_n = math.sqrt(n)
        assert (table[0], table[-1]) == (0.0, 1.0)
        assert normal_cdf(-(reach + 1) / sqrt_n) == 0.0
        assert normal_cdf((reach + 1) / sqrt_n) == 1.0

    @given(
        st.integers(2, 10**6).flatmap(
            lambda n: st.tuples(
                st.just(n), st.lists(st.integers(max(1, n // 2000), n), min_size=1, max_size=12)
            )
        )
    )
    @example((2, [1, 2]))
    @example((20_000, [10, 141, 142, 500, 20_000]))
    def test_cusum_cdf_matches_the_scalar_at_both_signs(self, n_and_excursions):
        n, excursions = n_and_excursions
        z = np.array(excursions)
        assert_cdf_table_holds(n, _cusum_cdf(n, z, _cdf_reach(n)), cusum_reads(n, excursions))
        # and the p-values are the sums of scalar normal_cdf terms, in order
        assert [p.hex() for p in _cusum_p(n, z).tolist()] == [
            cusum_by_scalar_terms(n, e).hex() for e in excursions
        ]

    def test_battery_builds_one_cdf_table_per_block_length(self, monkeypatch):
        # one normal_cdf call a battery, at each |p| some block reads, once
        bits = ideal_bits(40 * 20_000, seed=7)
        stream = BitStream.from_bits(bits)
        assert len(list(randtests._groups(stream, 20_000, 40))) == 4
        for n in (20_000, 10_000):
            calls = []
            monkeypatch.setattr(randtests, "normal_cdf", lambda x: calls.append(x) or normal_cdf(x))
            run_battery(stream, n)
            excursions = [
                direct_excursion(block, direction)
                for block in bits.reshape(-1, n)
                for direction in ("forward", "backward")
            ]
            [x] = calls
            read = sorted(cusum_reads(n, excursions))
            assert sorted(x.tolist(), reverse=True) == [-p / math.sqrt(n) for p in read]


def cusum_reads(n, excursions):
    """Every |p| <= reach at which cumulative sums reads the normal CDF on
    blocks of n bits with these excursions: p = j z for the odd j up to
    4 top + 3."""
    reach = _cdf_reach(n)
    read = set()
    for z in set(excursions):
        top = (n // z - 1) // 4
        read.update(range(z, min((4 * top + 3) * z, reach) + 1, 2 * z))
    return read


def assert_cdf_table_holds(n, table, read):
    """The table has the scalar normal_cdf at both signs of every |p| read,
    and leaves every other |p| <= reach unevaluated."""
    reach = _cdf_reach(n)
    sqrt_n = math.sqrt(n)
    assert len(table) == 2 * reach + 3
    for p in read:
        for signed in (-p, p):
            assert table[signed + reach + 1].hex() == normal_cdf(signed / sqrt_n).hex(), signed
    assert np.isnan(table).sum() == 1 + 2 * (reach - len(read))


def cusum_by_scalar_terms(n, z):
    """The cumulative-sums p-value, each term from scalar normal_cdf, added
    in the kernel's order: 1, the first sum's terms, the second sum's."""
    top = (n // z - 1) // 4

    def phi(j):
        return normal_cdf(j * z / math.sqrt(n))

    total = 1.0
    for k in range(-top, top + 1):
        total += -(phi(4 * k + 1) - phi(4 * k - 1))
    for k in range(-top - 1, top + 1):
        total += phi(4 * k + 3) - phi(4 * k + 1)
    return min(max(total, 0.0), 1.0)


class TestPreconditions:
    def test_monobit_minimum_length(self):
        with pytest.raises(InsufficientDataError):
            frequency_monobit(ideal_bits(64))
        assert 0.0 <= frequency_monobit(ideal_bits(64), min_length=64) <= 1.0

    def test_longest_run_minimum(self):
        with pytest.raises(InsufficientDataError):
            longest_run_of_ones(ideal_bits(100))

    def test_block_frequency_needs_one_block(self):
        with pytest.raises(InsufficientDataError):
            block_frequency(ideal_bits(16), 32)

    def test_pattern_tests_validate_m(self):
        with pytest.raises(ValueError):
            approximate_entropy(ideal_bits(256), 0)
        with pytest.raises(ValueError):
            serial(ideal_bits(256), 1)
        with pytest.raises(InsufficientDataError):
            approximate_entropy(ideal_bits(4), 3)
        # the counts are read from (m + 3)-bit contexts in 32-bit words
        with pytest.raises(ValueError, match="at most 25"):
            serial(ideal_bits(64), 26)
        with pytest.raises(ValueError, match="at most 25"):
            approximate_entropy(ideal_bits(64), 25)

    @pytest.mark.parametrize(
        "values", [[0.5, 1.9, 0.2], [256, 0, 1], [-1, 0, 1], [0, 1, 2], [1.0, math.nan, 0.0]]
    )
    def test_non_binary_values_are_refused_before_the_cast(self, values):
        # a cast to uint8 would read 0.5 1.9 0.2 as 0 1 0 and 256 as 0
        bits = np.resize(np.array(values), 4096)
        for check in (_as_bits, frequency_monobit, lambda b: run_battery(b, 2048)):
            with pytest.raises(ValueError, match="0 or 1"):
                check(bits)

    def test_bools_and_whole_floats_are_bits(self):
        bits = ideal_bits(4096, seed=3)
        expected = run_battery(bits, 2048).p_values
        for same in (bits.astype(bool), bits.astype(float)):
            assert frequency_monobit(same) == frequency_monobit(bits)
            assert np.array_equal(run_battery(same, 2048).p_values, expected)

    def test_bit_strings_hold_only_zeros_and_ones(self):
        assert _as_bits("0110").tolist() == [0, 1, 1, 0]
        for text in ("0121", "01 10", "01a1", "0¹1"):
            with pytest.raises(ValueError):
                _as_bits(text)
        with pytest.raises(ValueError):
            frequency_monobit("2" * 100)

    def test_cumulative_sums_direction(self):
        with pytest.raises(ValueError):
            cumulative_sums(ideal_bits(256), "sideways")


class TestBattery:
    def test_report_structure(self):
        report = run_battery(ideal_bits(3 * 4096, seed=12), 4096)
        assert report.n_blocks == 3
        # row i is COMPONENTS[i], column b is block b
        assert report.p_values.shape == report.passed.shape == (len(COMPONENTS), 3)
        assert report.p_values.dtype == np.float64 and report.passed.dtype == bool
        assert not report.p_values.flags.writeable and not report.passed.flags.writeable
        fractions = report.pass_fraction()
        assert set(fractions) == {
            "monobit", "block_frequency", "runs", "longest_run",
            "cumulative_sums", "approximate_entropy", "serial",
        }
        assert all(0.0 <= f <= 1.0 for f in fractions.values())

    def test_ideal_generator_mostly_passes(self):
        report = run_battery(ideal_bits(10 * 20_000, seed=5), 20_000)
        for name, fraction in report.pass_fraction().items():
            assert fraction >= 0.8, name

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            run_battery(ideal_bits(1000), 4096)

    def test_block_size_floor(self):
        with pytest.raises(ValueError):
            run_battery(ideal_bits(1000), 64)

    def test_significance_validation(self):
        with pytest.raises(ValueError):
            run_battery(ideal_bits(4096), 2048, significance=0.0)

    def test_pass_flag_uses_at_least_semantics(self):
        report = run_battery(ideal_bits(4096, seed=2), 2048)
        assert np.array_equal(report.passed, report.p_values >= report.significance)

    def test_csv_round_trip(self):
        report = run_battery(ideal_bits(2 * 2048, seed=8), 2048)
        parsed = parse_report_csv(report.to_csv())
        assert np.array_equal(parsed.p_values, report.p_values)
        assert np.array_equal(parsed.passed, report.passed)
        assert parsed.n_blocks == report.n_blocks

    def test_text_report_lists_not_run(self):
        report = run_battery(ideal_bits(2048, seed=9), 2048)
        text = report.to_text()
        for name in NOT_RUN:
            assert f"{name} not_run" in text
        assert "pass_fraction monobit" in text

    def test_csv_rejects_other_content(self):
        with pytest.raises(ValueError):
            parse_report_csv("mu_eta,source\n1,2\n")

    def test_csv_rejects_duplicate_and_unknown_rows(self):
        csv = run_battery(ideal_bits(2048, seed=8), 2048).to_csv()
        first_row = csv.splitlines()[1]
        with pytest.raises(ValueError, match="duplicate row for monobit block 0"):
            parse_report_csv(csv + first_row + "\n")
        with pytest.raises(ValueError, match="unexpected row"):
            parse_report_csv(csv + "rank,0,0.5,1\n")
        with pytest.raises(ValueError, match="no row for monobit block 1"):
            parse_report_csv(csv + "serial_2,1,0.5,1\n")

    def test_csv_names_the_first_row_at_fault(self):
        lines = run_battery(ideal_bits(3 * 2048, seed=8), 2048).to_csv().splitlines()
        header, rows = lines[0], lines[1:]
        for first, later, message in [
            ("runs,0,1.5,1", "runs,x", "unexpected row 'runs,0,1.5,1'"),
            ("runs,1,0.5", "rank,0,0.5,1", "malformed row 'runs,1,0.5'"),
            (rows[0], "runs,-1,0.5,1", "duplicate row for monobit block 0"),
            ("monobit,99999999999999999999,0.5,1", rows[9], "no row for monobit block 3"),
            ("monobit,9223372036854775807,0.5,1", rows[9], "no row for monobit block 3"),
        ]:
            bad = [header, *rows[:5], first, *rows[5:9], later, *rows[10:]]
            with pytest.raises(ValueError, match=re.escape(message)):
                parse_report_csv("\n".join(bad))
        # a negative block in place of a row, so that the count is whole
        with pytest.raises(ValueError, match=re.escape("unexpected row 'monobit,-1,0.5,1'")):
            parse_report_csv("\n".join([header, "monobit,-1,0.5,1", *rows[1:]]))

    def test_csv_rows_in_any_order_give_the_report(self):
        # 360 rows: more than one chunk of rows is checked
        report = run_battery(ideal_bits(40 * 2048, seed=8), 2048)
        assert len(COMPONENTS) * report.n_blocks > randtests._CSV_CHUNK_ROWS
        header, *rows = report.to_csv().splitlines()
        random.Random(5).shuffle(rows)
        parsed = parse_report_csv("\n".join([header, *rows]))
        assert np.array_equal(parsed.p_values, report.p_values)
        assert np.array_equal(parsed.passed, report.passed)


def block_by_block(bits, block_size, n_blocks):
    """Every component p-value of every block, from the public tests on that block alone."""
    p_values = {}
    for blk in range(n_blocks):
        block = bits[blk * block_size : (blk + 1) * block_size]
        serial_1, serial_2 = serial(block, 5)
        values = {
            "monobit": frequency_monobit(block),
            "block_frequency": block_frequency(block, 128),
            "runs": runs(block),
            "longest_run": longest_run_of_ones(block),
            "cumulative_sums_forward": cumulative_sums(block, "forward"),
            "cumulative_sums_backward": cumulative_sums(block, "backward"),
            "approximate_entropy": approximate_entropy(block, 4),
            "serial_1": serial_1,
            "serial_2": serial_2,
        }
        p_values.update({(name, blk): p for name, p in values.items()})
    return p_values


def battery_input(seed, block_size, n_blocks, extra, kind):
    rng = np.random.default_rng(seed)
    n = n_blocks * block_size + extra
    if kind == "uniform":
        return rng.integers(0, 2, n, dtype=np.uint8)
    if kind == "biased":
        return (rng.random(n) < 0.45).astype(np.uint8)
    # each block all zeros, all ones, alternating or uniform
    makers = (
        lambda: np.zeros(block_size, dtype=np.uint8),
        lambda: np.ones(block_size, dtype=np.uint8),
        lambda: np.arange(block_size, dtype=np.uint8) % 2,
        lambda: rng.integers(0, 2, block_size, dtype=np.uint8),
    )
    blocks = [makers[i]() for i in rng.integers(0, len(makers), n_blocks + 1)]
    return np.concatenate(blocks)[:n]


class TestGroupedBattery:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        block_size=st.one_of(st.integers(128, 3000), st.sampled_from([6272, 6279])),
        n_blocks=st.integers(1, 7),
        extra_fraction=st.floats(0.0, 0.999),
        kind=st.sampled_from(["uniform", "biased", "mixed"]),
        as_stream=st.booleans(),
        group_bits=st.sampled_from([1, 5000, 1 << 17]),
    )
    @example(1, 128, 3, 0.5, "mixed", True, 300)
    @example(2, 1001, 5, 0.0, "mixed", True, 2500)
    def test_battery_equals_tests_block_by_block(
        self, seed, block_size, n_blocks, extra_fraction, kind, as_stream, group_bits
    ):
        bits = battery_input(seed, block_size, n_blocks, int(extra_fraction * block_size), kind)
        # groups of one block, of a few blocks with a short last group, or all blocks at once
        with mock.patch.object(randtests, "_GROUP_BITS", group_bits):
            report = run_battery(BitStream.from_bits(bits) if as_stream else bits, block_size)
        expected = block_by_block(bits, block_size, n_blocks)
        assert report.n_blocks == n_blocks
        assert {
            (name, blk): p.hex()
            for name, row in zip(COMPONENTS, report.p_values.tolist())
            for blk, p in enumerate(row)
        } == {key: p.hex() for key, p in expected.items()}

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        bytes_and_bits=st.tuples(st.integers(16, 400), st.integers(1, 7)),
        n_blocks=st.integers(2, 7),
        per_group=st.integers(1, 4),
        kind=st.sampled_from(["uniform", "biased", "mixed"]),
    )
    @example(3, (512, 3), 5, 2, "mixed")  # the 4 099-bit blocks of the golden digests
    def test_blocks_that_start_mid_byte_equal_tests_block_by_block(
        self, seed, bytes_and_bits, n_blocks, per_group, kind
    ):
        # block sizes of 1 to 7 bits past a byte, in groups of 1 to 4 blocks
        # (a short last group when they do not divide n_blocks)
        block_size = 8 * bytes_and_bits[0] + bytes_and_bits[1]
        bits = battery_input(seed, block_size, n_blocks, 5, kind)
        with mock.patch.object(randtests, "_GROUP_BITS", per_group * block_size):
            report = run_battery(BitStream.from_bits(bits), block_size)
        expected = block_by_block(bits, block_size, n_blocks)
        assert [[p.hex() for p in row] for row in report.p_values.tolist()] == [
            [expected[(name, blk)].hex() for blk in range(n_blocks)] for name in COMPONENTS
        ]

    def test_constant_blocks_match_block_by_block(self):
        bits = np.concatenate([np.zeros(1000, np.uint8), np.ones(1000, np.uint8)] * 3)
        with mock.patch.object(randtests, "_GROUP_BITS", 2000):
            report = run_battery(BitStream.from_bits(bits), 1000)
        expected = block_by_block(bits, 1000, 6)
        assert [[p.hex() for p in row] for row in report.p_values.tolist()] == [
            [expected[(name, blk)].hex() for blk in range(6)] for name in COMPONENTS
        ]

    def test_bit_file_is_tested_one_group_at_a_time(self):
        # 2**22 bits are 4 MB at one byte per bit, 512 kB packed; a group is
        # 2**18 bits, and a byte-aligned one is a view of the payload.
        stream = BitStream.from_bits(ideal_bits(1 << 22, seed=4))
        tracemalloc.start()
        try:
            run_battery(stream, 20_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 << 20, peak

    def test_report_keeps_a_few_bytes_per_result(self):
        # 2**18 bits in 128-bit blocks: 2 048 blocks of nine p-values each,
        # held as one float64 and one bool per p-value
        bits = ideal_bits(1 << 18, seed=6)
        tracemalloc.start()
        try:
            report = run_battery(bits, 128)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept <= 16 * len(COMPONENTS) * report.n_blocks, kept


class TestPValuesOncePerBattery:
    # Each public test on 20 000 bits of default_rng(11), as the tests gave
    # them when each computed its p-values itself.
    PLAIN_BITS_P_VALUES = {
        "monobit": "0x1.728558ee694fcp-1",
        "block_frequency": "0x1.a5499cc5ed8ccp-2",
        "runs": "0x1.f49dfae3188bfp-2",
        "longest_run": "0x1.2937fb11ab970p-1",
        "cumulative_sums_forward": "0x1.83c52052fdd98p-1",
        "cumulative_sums_backward": "0x1.ca01bd9845c10p-2",
        "approximate_entropy": "0x1.7d5bfdf5a1586p-2",
        "serial_1": "0x1.8250334386516p-2",
        "serial_2": "0x1.bfc159938251dp-4",
    }

    def test_plain_bits_give_the_same_floats(self):
        bits = np.random.default_rng(11).integers(0, 2, 20_000, dtype=np.uint8)
        serial_1, serial_2 = serial(bits)
        values = {
            "monobit": frequency_monobit(bits),
            "block_frequency": block_frequency(bits),
            "runs": runs(bits),
            "longest_run": longest_run_of_ones(bits),
            "cumulative_sums_forward": cumulative_sums(bits, "forward"),
            "cumulative_sums_backward": cumulative_sums(bits, "backward"),
            "approximate_entropy": approximate_entropy(bits),
            "serial_1": serial_1,
            "serial_2": serial_2,
        }
        assert all(type(p) is float for p in values.values()), values
        assert {name: p.hex() for name, p in values.items()} == self.PLAIN_BITS_P_VALUES

    def test_battery_makes_five_incomplete_gamma_calls(self, monkeypatch):
        # block frequency, longest run, approximate entropy and both serial
        # p-values: one call each for every block of the battery
        calls = []

        def counting_gammainc_upper(a, x):
            calls.append((a, np.size(x)))
            return gammainc_upper(a, x)

        monkeypatch.setattr(randtests, "gammainc_upper", counting_gammainc_upper)
        stream = BitStream.from_bits(ideal_bits(40 * 20_000, seed=3))
        assert len(list(randtests._groups(stream, 20_000, 40))) == 4
        run_battery(stream, 20_000)
        assert sorted(calls) == [(2.5, 40), (4.0, 40), (8.0, 40), (8.0, 40), (78.0, 40)]


class TestCalibration:
    def test_p_value_uniformity_on_ideal_generator(self):
        # coarse ten-bin chi-square at significance 0.001 per component
        n_blocks, block = 60, 20_000
        bits = ideal_bits(n_blocks * block, seed=77)
        report = run_battery(bits, block)
        for name, pvals in zip(COMPONENTS, report.p_values):
            counts, _ = np.histogram(pvals, bins=10, range=(0.0, 1.0))
            expected = len(pvals) / 10
            chi_sq = float(((counts - expected) ** 2 / expected).sum())
            p_uniform = gammainc_upper(4.5, chi_sq / 2.0)
            assert p_uniform >= 0.001, (name, p_uniform)
