"""Bit extraction, von Neumann debiasing, packing and the bit-file format."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsqrng import postproc
from bsqrng.mcsim import Outcome
from bsqrng.postproc import BitStream, events_to_bits, ones_fraction, von_neumann
from bsqrng.randtests import frequency_monobit

bit_lists = st.lists(st.integers(0, 1), max_size=2000)


def vn_oracle(bits):
    """Pair-by-pair reference implementation of the debiaser."""
    out = []
    for i in range(0, len(bits) - 1, 2):
        a, b = bits[i], bits[i + 1]
        if a != b:
            out.append(a)
    return out


class TestEventsToBits:
    def test_mapping_and_order(self):
        events = np.array(
            [Outcome.NONE, Outcome.BIT0, Outcome.COLLISION, Outcome.BIT1],
            dtype=np.uint8,
        )
        assert events_to_bits(events).bits().tolist() == [0, 1]

    def test_all_collisions_give_empty_stream(self):
        events = np.full(50, Outcome.COLLISION, dtype=np.uint8)
        stream = events_to_bits(events)
        assert stream.length == 0
        assert stream.data == b""

    def test_provenance_is_kept(self):
        stream = events_to_bits(np.array([1, 2], dtype=np.uint8), {"seed": "5"})
        assert stream.provenance["seed"] == "5"


class TestVonNeumann:
    def test_documented_pairs(self):
        assert von_neumann(BitStream.from_ascii("0110")).bits().tolist() == [0, 1]
        assert von_neumann(BitStream.from_ascii("0000")).bits().tolist() == []
        assert von_neumann(BitStream.from_ascii("1111")).bits().tolist() == []
        assert von_neumann(BitStream.from_ascii("10")).bits().tolist() == [1]

    def test_trailing_odd_bit_dropped(self):
        assert von_neumann(BitStream.from_ascii("01101")).bits().tolist() == [0, 1]

    @given(bit_lists)
    def test_matches_pairwise_oracle(self, bits):
        stream = BitStream.from_bits(bits)
        assert list(von_neumann(stream).bits()) == vn_oracle(bits)

    def test_provenance_records_debiasing(self):
        out = von_neumann(BitStream.from_ascii("0110", {"seed": "3"}))
        assert out.provenance["debiased"] == "von-neumann"
        assert out.provenance["raw_length"] == "4"
        assert out.provenance["seed"] == "3"

    def test_output_length_distribution(self):
        # Binomial(n/2, 2p(1-p)) oracle for independent input bits
        rng = np.random.default_rng(11)
        p = 0.51
        n = 1_000_000
        bits = (rng.random(n) < p).astype(np.uint8)
        out = von_neumann(BitStream.from_bits(bits))
        mean = (n / 2) * 2 * p * (1 - p)
        sigma = math.sqrt((n / 2) * 2 * p * (1 - p) * (1 - 2 * p * (1 - p)))
        assert abs(out.length - mean) < 3 * sigma

    def test_bias_removal_over_seeded_trials(self):
        # balanced in distribution: the monobit p-value should clear 0.01 in
        # at least 98 of 100 seeded trials on 0.51-biased input
        p = 0.51
        n = 1_000_000
        passes = 0
        efficiencies = []
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            bits = (rng.random(n) < p).astype(np.uint8)
            out = von_neumann(BitStream.from_bits(bits))
            efficiencies.append(out.length / n)
            if frequency_monobit(out.bits()) >= 0.01:
                passes += 1
        assert passes >= 98
        assert np.mean(efficiencies) == pytest.approx(p * (1 - p), abs=0.005)


class TestPackingAndFiles:
    def test_msb_first_packing(self):
        stream = BitStream.from_bits([1, 0, 1, 1])
        assert stream.data == b"\xb0"
        assert stream.length == 4

    def test_zero_padding_metadata(self):
        stream = BitStream.from_bits([1] * 9)
        assert stream.data == b"\xff\x80"
        assert stream.length == 9

    @given(bit_lists)
    def test_bits_round_trip(self, bits):
        stream = BitStream.from_bits(bits)
        assert list(stream.bits()) == bits

    @given(bit_lists)
    def test_ascii_round_trip(self, bits):
        text = "".join(str(b) for b in bits)
        assert BitStream.from_ascii(text).bits().tolist() == bits

    def test_file_round_trip(self, tmp_path):
        stream = BitStream.from_bits(
            [1, 0, 1, 1, 0, 0, 1], {"source": "indist", "mu": "2.1", "seed": "17"}
        )
        path = tmp_path / "stream.bits"
        stream.write(path)
        loaded = BitStream.read(path)
        assert loaded == stream

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bits"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            BitStream.read(path)

    def test_non_utf8_provenance_names_the_file(self, tmp_path):
        path = tmp_path / "latin.bits"
        BitStream.from_bits([1, 0, 1], {"note": "ab"}).write(path)
        path.write_bytes(path.read_bytes().replace(b"note=ab", b"note=\xffb"))
        with pytest.raises(ValueError, match="provenance is not UTF-8") as info:
            BitStream.read(path)
        assert str(info.value).startswith(f"{path}: ")
        assert not isinstance(info.value, UnicodeDecodeError)

    def test_truncated_payload_rejected(self, tmp_path):
        stream = BitStream.from_bits([1] * 64)
        path = tmp_path / "short.bits"
        stream.write(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-2])
        with pytest.raises(ValueError, match="payload"):
            BitStream.read(path)

    def test_ascii_rejects_other_characters(self):
        with pytest.raises(ValueError):
            BitStream.from_ascii("0102")

    @pytest.mark.parametrize(
        "values", [[0.5, 1.9, 0.2], [256, 0, 1], [-1, 0, 1], [1.0, math.nan], [2]]
    )
    def test_non_binary_values_rejected(self, values):
        # each value is checked before the cast to uint8, which would wrap or truncate it
        with pytest.raises(ValueError, match="0 or 1"):
            BitStream.from_bits(np.array(values))

    def test_bools_and_whole_floats_are_bits(self):
        for bits in (np.array([True, False, True]), np.array([1.0, 0.0, 1.0]), [1, 0, 1]):
            assert BitStream.from_bits(bits) == BitStream(b"\xa0", 3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BitStream(b"\x00\x00", 3)


class TestStreamStats:
    def test_all_ones(self):
        assert ones_fraction(BitStream.from_ascii("1111")) == 1.0

    def test_empty_stream(self):
        assert ones_fraction(BitStream.from_ascii("")) is None

    def test_extraction_efficiency(self):
        rng = np.random.default_rng(5)
        bits = (rng.random(400_000) < 0.51).astype(np.uint8)
        out = von_neumann(BitStream.from_bits(bits))
        assert out.length / 400_000 == pytest.approx(0.2499, abs=0.005)


# Whole-array references for the chunked stages.


def events_to_bits_reference(codes):
    codes = np.asarray(codes, dtype=np.uint8)
    valid = codes[(codes == Outcome.BIT0) | (codes == Outcome.BIT1)]
    return BitStream.from_bits(valid - Outcome.BIT0)


def von_neumann_reference(stream):
    bits = stream.bits()
    pairs = bits[: 2 * (len(bits) // 2)].reshape(-1, 2)
    return BitStream.from_bits(pairs[pairs[:, 0] != pairs[:, 1], 0])


def ones_reference(stream):
    return int(stream.bits().sum())


def runs_of(values):
    """Concatenated runs of one value each: long runs give chunks with no
    valid gate (codes 0 and 3) and runs of all-equal pairs (bits)."""
    return st.lists(st.tuples(values, st.integers(1, 40)), max_size=12).map(
        lambda runs: [v for v, n in runs for _ in range(n)]
    )


code_lists = st.one_of(st.lists(st.integers(0, 3), max_size=300), runs_of(st.integers(0, 3)))
chunk_sizes = st.sampled_from([8, 16, 24, 64])


def with_padding(bits, pad):
    """The stream of ``bits`` with ``pad`` in its zero-padding bits, as a file
    written elsewhere may hold; only the first ``length`` bits count."""
    stream = BitStream.from_bits(bits)
    if not stream.length % 8:
        return stream
    data = bytearray(stream.data)
    data[-1] |= pad & (0xFF >> (stream.length % 8))
    return BitStream(bytes(data), stream.length)


class TestChunkBoundaries:
    @given(code_lists, chunk_sizes)
    def test_events_to_bits_matches_whole_array(self, codes, chunk):
        with mock.patch.object(postproc, "_CHUNK", chunk):
            stream = events_to_bits(np.array(codes, dtype=np.uint8))
        assert stream == events_to_bits_reference(codes)

    @given(st.one_of(bit_lists, runs_of(st.integers(0, 1))), st.integers(0, 255), chunk_sizes)
    def test_von_neumann_and_stats_match_whole_array(self, bits, pad, chunk):
        stream = with_padding(bits, pad)
        with mock.patch.object(postproc, "_CHUNK", chunk):
            out = von_neumann(stream)
            ones = ones_fraction(stream)
        expected = von_neumann_reference(stream)
        assert (out.data, out.length) == (expected.data, expected.length)
        if stream.length:
            assert ones == ones_reference(stream) / stream.length

    @pytest.mark.parametrize("length", range(3 * 16 + 9))
    def test_every_length_across_three_chunks(self, length, monkeypatch):
        # Every length mod 8, odd and even, up to past three 16-bit chunks.
        monkeypatch.setattr(postproc, "_CHUNK", 16)
        rng = np.random.default_rng(length)
        codes = rng.integers(0, 4, 2 * length, dtype=np.uint8)
        raw = events_to_bits(codes)
        assert raw == events_to_bits_reference(codes)
        stream = with_padding(rng.integers(0, 2, length), 0xFF)
        out = von_neumann(stream)
        expected = von_neumann_reference(stream)
        assert (out.data, out.length) == (expected.data, expected.length)
        ones = ones_reference(stream)
        assert ones_fraction(stream) == (ones / length if length else None)


class TestDefaultChunk:
    # Slices of the real ``_CHUNK``, unpatched: just over three of them.
    n = 3 * postproc._CHUNK + 5

    def test_events_to_bits_with_a_slice_of_no_valid_gate(self):
        rng = np.random.default_rng(29)
        codes = rng.integers(0, 4, self.n, dtype=np.uint8)
        # NONE and COLLISION only, over all of the second slice and past it.
        lo, hi = postproc._CHUNK - 50, 2 * postproc._CHUNK + 50
        codes[lo:hi] = rng.choice([Outcome.NONE, Outcome.COLLISION], hi - lo)
        assert events_to_bits(codes) == events_to_bits_reference(codes)

    def test_von_neumann_with_a_slice_of_equal_pairs(self):
        rng = np.random.default_rng(30)
        bits = rng.integers(0, 2, self.n, dtype=np.uint8)
        # Equal pairs only, over all of the second slice and past it.
        lo, hi = postproc._CHUNK - 50, 2 * postproc._CHUNK + 50
        bits[lo:hi] = np.repeat(rng.integers(0, 2, (hi - lo) // 2, dtype=np.uint8), 2)
        stream = with_padding(bits, 0xFF)
        out = von_neumann(stream)
        expected = von_neumann_reference(stream)
        assert (out.data, out.length) == (expected.data, expected.length)
        assert ones_fraction(stream) == ones_reference(stream) / self.n


def test_extraction_and_debiasing_stay_in_bounded_memory():
    # 2**21 codes take 2 MB; a stage holding a full-length unpacked or
    # widened array would take at least that again (int64 bits: 8 MB).
    codes = np.random.default_rng(21).integers(0, 4, 1 << 21, dtype=np.uint8)
    tracemalloc.start()
    try:
        von_neumann(events_to_bits(codes))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
