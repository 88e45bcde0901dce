"""Statistical randomness tests applied block-wise, with pass/fail at the
given significance (default 0.01).

Seven tests of the standard battery are implemented: frequency (monobit),
block frequency, runs, longest run of ones, cumulative sums (both
directions), approximate entropy and serial. Given bits, each returns a
p-value in [0, 1]; a block passes a test when every p-value of that test is
at or above the significance level. The remaining tests of the full battery
are reported as not run. A ``TestReport`` holds a battery's results as two
read-only arrays of shape ``(len(COMPONENTS), n_blocks)``, ``p_values``
(float64) and ``passed`` (bool): row i is ``COMPONENTS[i]`` and column b is
block b.

The battery evaluates a group of equal blocks at a time (``_Blocks``), held
as ``(k, ceil(n / 8))`` rows of bytes, each block packed MSB first: the one
bit representation of the battery. When n is a multiple of 8 the rows are a
view of the ``BitStream`` payload, with no copy; otherwise each group's rows
are shifted into place once (``_shifted``). A test given plain bits packs
them once and runs the same kernels on a group of one block. Each integer
statistic is one row-wise array operation over the group: ones and runs'
transitions are popcounts (a row xor itself shifted by one bit marks each
change), block frequency and longest run share the sub-blocks, a reshape of
the rows when their length is whole bytes, the longest run of each sub-block
is read from a table of the longest run in every 16-bit pair of neighbouring
bytes (``_longest_runs``), and the pattern counts from 32-bit words of the
rows. A group holds about ``_GROUP_BITS`` = 2^18 bits, 32 kB, so memory is
bounded by a group, not by the input.

Given a group, a test returns its statistic for each block (``_Statistic``),
not p-values. ``run_battery`` keeps every group's statistics, a few numbers a
block, and turns each test's into p-values once, after the last group, by
the same function the test applies to plain bits: one incomplete gamma call
for each chi-square component, whatever the number of blocks. Cumulative
sums evaluates the normal CDF in one call a battery, once at each |p| some
block reads, out to where the CDF is exactly 0 or 1: at -|p|, with +|p| its
reflection. Every p-value is the same, bit for bit, as a block-by-block
evaluation gives: float sums run over each row in the order a one-block sum
would.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .postproc import BitStream, _ascii_bits, _bit_array
from .special import erfc, gammainc_upper, normal_cdf

# Bits per group of blocks; a block longer than this is a group alone. Sized
# by timing run_battery on 200 blocks of 20 000 bits: 2^18 ran fastest of
# 2^17 .. 2^20.
_GROUP_BITS = 1 << 18
# Terms per chunk of cumulative-sums rows: 2^15 raised run_battery's peak
# traced memory on 200 blocks of 20 000 bits by 0.6 MB, 2^13 not at all.
_CUSUM_TERMS = 1 << 13


class InsufficientDataError(ValueError):
    """Raised when the input is too short for the requested evaluation."""


def _as_bits(bits) -> np.ndarray:
    """A one-dimensional array or a string of '0' and '1', checked, as uint8 bits."""
    if isinstance(bits, str):
        return _ascii_bits(bits)
    arr = _bit_array(bits)
    if arr.ndim != 1:
        raise ValueError("bit input must be one-dimensional")
    return arr


def _as_stream(bits) -> BitStream:
    """``bits`` itself if it is a ``BitStream``, else its checked bits packed once."""
    return bits if isinstance(bits, BitStream) else BitStream.from_bits(_as_bits(bits))


def _packed_rows(stream: BitStream, start: int, n: int, k: int) -> np.ndarray:
    """The k consecutive rows of n bits from bit ``start`` of the stream, each
    packed MSB first with its last byte padded with zeros: shape ``(k,
    ceil(n / 8))``. Rows that start and end on byte edges are a view of the
    payload."""
    payload = np.frombuffer(stream.data, dtype=np.uint8)
    if start % 8 == 0 and n % 8 == 0:
        return payload[start // 8 : (start + k * n) // 8].reshape(k, n // 8)
    return _shifted(payload, start + n * np.arange(k), n)


def _shifted(payload: np.ndarray, starts: np.ndarray, n: int) -> np.ndarray:
    """The n bits of ``payload`` from each bit offset in ``starts``, shifted to
    start a byte and packed MSB first with zero padding: shape ``(len(starts),
    ceil(n / 8))``.

    Output byte j of a row is the 16 bits of input bytes j and j + 1 from the
    row's first byte, shifted left by the start's offset in its byte. A byte
    past the payload's end can only feed padding bits, so its index is clipped.
    """
    width = -(-n // 8)
    index = (starts // 8)[:, None] + np.arange(width + 1)
    data = payload.take(index, mode="clip").astype(np.uint16)
    pairs = data[:, :-1] << 8
    pairs |= data[:, 1:]
    pairs <<= (starts % 8).astype(np.uint16)[:, None]
    rows = (pairs >> 8).astype(np.uint8)
    rows[:, -1] &= (0xFF00 >> (n - 8 * (width - 1))) & 0xFF
    return rows


# Byte tables, indexed by the byte value; its bits are read MSB first.
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
# The +-1 walk over the byte's first v bits: its end, maximum and minimum at
# [v - 1, byte], for v = 1 .. 8.
_BYTE_WALK = np.cumsum(2 * _BYTE_BITS.T.astype(np.int32) - 1, axis=0, dtype=np.int32)
_BYTE_WALK_MAX = np.maximum.accumulate(_BYTE_WALK, axis=0)
_BYTE_WALK_MIN = np.minimum.accumulate(_BYTE_WALK, axis=0)
# Ones before the byte's first zero and after its last zero.
_BYTE_LEAD = np.cumprod(_BYTE_BITS, axis=1).sum(axis=1, dtype=np.uint8)
_BYTE_TRAIL = np.cumprod(_BYTE_BITS[:, ::-1], axis=1).sum(axis=1, dtype=np.uint8)


def _pair_longest_table() -> np.ndarray:
    """The longest 1-run of every 16-bit value ``high << 8 | low``, as uint8.

    ``value &= value << 1`` shortens every run of a byte by one bit, so a
    byte's longest run is the number of steps that leave it nonzero. A run
    of the pair lies in one byte, or is the high byte's trailing ones and
    the low byte's leading ones.
    """
    value = np.arange(256)
    longest = np.zeros(256, dtype=np.uint8)
    for _ in range(8):
        longest += value > 0
        value &= value << 1
    pair = np.add.outer(_BYTE_TRAIL, _BYTE_LEAD)
    np.maximum(pair, longest[:, None], out=pair)
    np.maximum(pair, longest[None, :], out=pair)
    return pair.ravel()


_PAIR_LONGEST = _pair_longest_table()


class _Blocks:
    """A group of k battery blocks of n bits each, and the statistics their tests share.

    ``packed`` holds the blocks as ``(k, ceil(n / 8))`` rows packed MSB
    first, each row's last byte padded with zeros; ``_packed_rows`` makes
    them, as a view of the stream's payload when the blocks fall on byte
    edges. ``run_battery`` hands a group to each public test function, which
    then returns its statistic for every block; given plain bits, a test
    packs them into a group of one block, and returns its p-value. Statistics are
    computed on first use, for every block of the group at once; the
    sub-blocks of one length are laid out once for every test that reads
    them.

    Counts of every length up to ``max_m`` come from the ``max_m``-bit
    counts: the circular (m-1)-bit pattern q occurs exactly as often as the
    m-bit patterns 2q and 2q + 1 together.

    Both cumulative-sums excursions come from one +-1 walk S_0 = 0, ...,
    S_n = end with extremes ``hi`` and ``lo``: the backward walk's partial
    sums are ``end - S_i``, so its excursion is ``max(end - lo, hi - end)``.
    """

    def __init__(self, packed: np.ndarray, n: int, max_m: int):
        self.packed = packed
        self.k, self.n = len(packed), n
        self.max_m = max_m
        self._sub_blocks: dict[int, np.ndarray] = {}

    @functools.cached_property
    def ones(self) -> np.ndarray:
        return np.bitwise_count(self.packed).sum(axis=1, dtype=np.int64)

    def sub_blocks(self, length: int) -> np.ndarray:
        """Each row's whole sub-blocks of ``length`` bits, each packed MSB first
        and padded with zeros, byte j of every sub-block at ``[j]``: shape
        ``(ceil(length / 8), k, n // length)``.

        Byte-major, so that reducing over each sub-block's bytes combines a
        few long rows elementwise instead of reducing many short ones.
        Sub-blocks of whole bytes are the rows' bytes rearranged; others are
        shifted out of the rows.
        """
        if length not in self._sub_blocks:
            n_sub = self.n // length
            if length % 8 == 0:
                rows = self.packed[:, : n_sub * length // 8]
            else:
                starts = 8 * self.packed.shape[1] * np.arange(self.k)[:, None]
                starts = (starts + length * np.arange(n_sub)).ravel()
                rows = _shifted(self.packed.ravel(), starts, length)
            rows = rows.reshape(self.k, n_sub, -(-length // 8))
            self._sub_blocks[length] = np.ascontiguousarray(rows.transpose(2, 0, 1))
        return self._sub_blocks[length]

    @functools.cached_property
    def excursions(self) -> dict[str, np.ndarray]:
        # The walk at byte edges, and its extremes within each byte from the
        # byte tables; a row's last byte holds its last 1 to 8 bits.
        packed = self.packed
        bits_in_last = self.n - 8 * (packed.shape[1] - 1)
        index = packed.astype(np.intp)
        steps, top, bottom = (
            np.take(table[7], index) for table in (_BYTE_WALK, _BYTE_WALK_MAX, _BYTE_WALK_MIN)
        )
        del index
        last = packed[:, -1]
        steps[:, -1] = _BYTE_WALK[bits_in_last - 1][last]
        top[:, -1] = _BYTE_WALK_MAX[bits_in_last - 1][last]
        bottom[:, -1] = _BYTE_WALK_MIN[bits_in_last - 1][last]
        # S at each byte's end, then before it; |S_i| <= n
        level = np.cumsum(steps, axis=1, dtype=np.int32 if self.n < 2**31 else np.int64)
        end = level[:, -1].astype(np.int64)
        level -= steps
        top += level
        bottom += level
        hi = np.maximum(top.max(axis=1), 0).astype(np.int64)
        lo = np.minimum(bottom.min(axis=1), 0).astype(np.int64)
        return {
            "forward": np.maximum(hi, -lo),
            "backward": np.maximum(end - lo, hi - end),
        }

    @functools.cached_property
    def counts(self) -> dict[int, np.ndarray]:
        counts = _pattern_counts(self.packed, self.n, self.max_m)
        by_length = {self.max_m: counts}
        for m in range(self.max_m - 1, 0, -1):
            counts = counts.reshape(self.k, -1, 2).sum(axis=2)
            by_length[m] = counts
        return by_length


def _blocks_of(bits, max_m: int = 1) -> _Blocks:
    """``bits`` itself if it is a group, else a group of one block of its checked bits."""
    if isinstance(bits, _Blocks):
        return bits
    stream = _as_stream(bits)
    return _Blocks(_packed_rows(stream, 0, stream.length, 1), stream.length, max_m)


class _Statistic(NamedTuple):
    """A test's statistic for each block of a group, blocks on the first
    axis, and ``to_p``, which turns statistics of blocks of the group's
    length into p-values, blocks on the first axis too. The battery joins
    every group's statistics and calls ``to_p`` once."""

    values: np.ndarray
    to_p: Callable[[np.ndarray], np.ndarray]


def _finish(bits, values: np.ndarray, to_p: Callable[[np.ndarray], np.ndarray]):
    """For a group, its statistic; for plain bits, the p-value of its one
    block (a list of them for a test of several components)."""
    if isinstance(bits, _Blocks):
        return _Statistic(values, to_p)
    return to_p(values)[0].tolist()


def _chi_square_p(dof: int, chi_sq: np.ndarray) -> np.ndarray:
    """The upper tail of the chi-square law with ``dof`` degrees of freedom."""
    return gammainc_upper(dof / 2.0, chi_sq / 2.0)


def _pattern_counts(packed: np.ndarray, n: int, m: int) -> np.ndarray:
    """Occurrences of each overlapping m-bit pattern in each row of n bits,
    packed MSB first with zero padding, wrapping around the row's end: shape
    ``(k, 2**m)``.

    The m + 3 bits from the start of a nibble hold the four windows that
    start in it, so one histogram of those contexts per row, at every whole
    nibble of the row, gives the counts; the last n % 4 windows are read one
    by one. Both read 32-bit words of the row with its first m - 1 bits
    appended.
    """
    if m > 25:
        raise ValueError(f"pattern length must be at most 25, got {m}")
    k, width = packed.shape
    nibbles = n // 4
    # The row, its first m - 1 bits from bit n on, and zero bytes, so that a
    # word starts at each of the first nibbles // 2 + 1 bytes; bits past the
    # wrap are never read.
    wrap = packed[:, : -(-(m - 1) // 8)]
    extended = np.zeros((k, width + wrap.shape[1] + 4), dtype=np.uint8)
    extended[:, :width] = packed
    shift = n % 8
    if shift:
        extended[:, width - 1 : width - 1 + wrap.shape[1]] |= wrap >> shift
        extended[:, width : width + wrap.shape[1]] |= wrap << (8 - shift)
    else:
        extended[:, width : width + wrap.shape[1]] = wrap
    # word i is bytes i .. i + 3 big-endian, read through a view that
    # steps one byte; nibble 2i is its top, nibble 2i + 1 four bits further
    words = np.ndarray(
        (k, nibbles // 2 + 1), dtype=">u4", buffer=extended, strides=(extended.strides[0], 1)
    ).astype(np.uint32)
    del extended
    # the windows from bit 4 * nibbles on lie in the last word
    offset = 4 * (nibbles % 2) + np.arange(n % 4)
    tail = (words[:, -1:] >> (32 - m - offset)) & ((1 << m) - 1)
    tail += (np.arange(k) << m)[:, None]
    counts = np.bincount(tail.ravel(), minlength=k << m).reshape(k, 1 << m)
    # row r's contexts count in bins r * 2**size onwards
    size = m + 3
    offsets = (np.arange(k, dtype=np.intp) << size)[:, None]
    by_context = sum(
        np.bincount((contexts + offsets).ravel(), minlength=k << size)
        for contexts in (
            words[:, : (nibbles + 1) // 2] >> (32 - size),
            (words[:, : nibbles // 2] >> (28 - size)) & ((1 << size) - 1),
        )
    ).reshape(k, 1 << size)
    # the window at offset s of a context is its bits s .. s + m - 1
    for s in range(4):
        counts += by_context.reshape(k, 1 << s, 1 << m, 1 << (3 - s)).sum(axis=(1, 3))
    return counts


def frequency_monobit(bits, *, min_length: int = 100):
    """Excess of ones over zeros against the half-normal law."""
    group = _blocks_of(bits)
    n = group.n
    if n < min_length:
        raise InsufficientDataError(f"monobit needs at least {min_length} bits, got {n}")
    return _finish(bits, group.ones, functools.partial(_monobit_p, n))


def _monobit_p(n: int, ones: np.ndarray) -> np.ndarray:
    scale = math.sqrt(2.0 * n)
    return np.array([erfc(abs(2.0 * k - n) / scale) for k in ones.tolist()])


def block_frequency(bits, block_len: int = 128):
    """Chi-square of per-block ones proportions around one half."""
    group = _blocks_of(bits)
    if block_len < 2:
        raise ValueError(f"block length must be at least 2, got {block_len}")
    n_blocks = group.n // block_len
    if n_blocks < 1:
        raise InsufficientDataError(
            f"block frequency needs at least {block_len} bits, got {group.n}"
        )
    ones = np.bitwise_count(group.sub_blocks(block_len)).sum(axis=0, dtype=np.int64)
    proportions = ones / block_len
    chi_sq = 4.0 * block_len * ((proportions - 0.5) ** 2).sum(axis=1)
    return _finish(bits, chi_sq, functools.partial(_chi_square_p, n_blocks))


def runs(bits):
    """Total number of runs against the expectation for the observed bias."""
    group = _blocks_of(bits)
    n = group.n
    if n < 2:
        raise InsufficientDataError(f"runs needs at least 2 bits, got {n}")
    counts = np.stack((group.ones, _changes(group.packed, n) + 1), axis=1)
    return _finish(bits, counts, functools.partial(_runs_p, n))


def _runs_p(n: int, counts: np.ndarray) -> np.ndarray:
    """The runs p-value of each block from its ones and its runs, ``counts[:, 0]`` and ``[:, 1]``."""
    p_values = []
    for ones, v in counts.tolist():
        pi = ones / n
        if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
            p_values.append(0.0)  # frequency pre-test failed; runs statistic is meaningless
            continue
        p_values.append(erfc(
            abs(v - 2.0 * n * pi * (1.0 - pi))
            / (2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi))
        ))
    return np.array(p_values)


def _changes(packed: np.ndarray, n: int) -> np.ndarray:
    """The number of i < n - 1 with bit i != bit i + 1 in each row of n bits,
    packed MSB first."""
    # bit i of t is bit i xor bit i + 1; the positions from n - 1 on are masked
    t = packed << 1
    t[:, :-1] |= packed[:, 1:] >> 7
    t ^= packed
    t[:, -1] &= (0xFF00 >> (n - 1 - 8 * (packed.shape[1] - 1))) & 0xFF
    return np.bitwise_count(t).sum(axis=1, dtype=np.int64)


# (block length M, category probabilities for longest run <=lo .. >=hi)
_LONGEST_RUN_TABLES = (
    (128, 8, 1, (0.2148, 0.3672, 0.2305, 0.1875)),
    (6272, 128, 4, (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    (750_000, 10_000, 10, (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
)


def longest_run_of_ones(bits):
    """Distribution of the longest 1-run per block against tabulated categories."""
    group = _blocks_of(bits)
    n = group.n
    if n < 128:
        raise InsufficientDataError(f"longest run needs at least 128 bits, got {n}")
    for threshold, block_len, low, pi_table in reversed(_LONGEST_RUN_TABLES):
        if n >= threshold:
            break
    n_cats = len(pi_table)
    longest = _longest_runs(group.sub_blocks(block_len), low + n_cats - 1)
    category = np.maximum(longest, low) - low + n_cats * np.arange(group.k)[:, None]
    counts = np.bincount(category.ravel(), minlength=group.k * n_cats).reshape(group.k, n_cats)
    expected = longest.shape[1] * np.asarray(pi_table)
    chi_sq = ((counts - expected) ** 2 / expected).sum(axis=1)
    return _finish(bits, chi_sq, functools.partial(_chi_square_p, n_cats - 1))


def _longest_runs(sub_blocks: np.ndarray, cap: int) -> np.ndarray:
    """The longest 1-run of each packed sub-block, capped at ``cap`` (at most
    16); ``sub_blocks`` holds byte j of every sub-block at ``[j]``, as
    ``_Blocks.sub_blocks`` gives them: shape ``sub_blocks.shape[1:]``.

    ``_PAIR_LONGEST`` gives the longest run of each pair of neighbouring
    bytes. The pair that starts at a run's first byte holds the whole run if
    it ends there, and at least 9 bits of it otherwise: enough for a cap up
    to 9. A run that leaves that pair fills the byte after its first; the
    trailing ones before that all-one byte, its 8 and the leading ones after
    it give the run, or at least 16 bits of it.
    """
    pairs = sub_blocks.astype(np.uint16) << 8
    pairs[:-1] |= sub_blocks[1:]
    longest = np.take(_PAIR_LONGEST, pairs).max(axis=0)
    if cap > 9:
        # each sub-block a column, with a zero byte after its last
        width = len(sub_blocks)
        flat = np.zeros((width + 1, longest.size), dtype=np.uint8)
        flat[:-1] = sub_blocks.reshape(width, -1)
        j, column = np.nonzero(flat[1:-1] == 0xFF)
        across = _BYTE_TRAIL[flat[j, column]] + 8 + _BYTE_LEAD[flat[j + 2, column]]
        np.maximum.at(longest.reshape(-1), column, across)
    return np.minimum(longest, cap)


def cumulative_sums(bits, direction: str = "forward"):
    """Maximum partial-sum excursion of the +-1 walk."""
    group = _blocks_of(bits)
    n = group.n
    if n < 2:
        raise InsufficientDataError(f"cumulative sums needs at least 2 bits, got {n}")
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    return _finish(bits, group.excursions[direction], functools.partial(_cusum_p, n))


def _cusum_p(n: int, z: np.ndarray) -> np.ndarray:
    """The cumulative-sums p-value of each block of n bits with excursion z, any shape."""
    reach = _cdf_reach(n)
    flat = z.ravel()
    cdf = _cusum_cdf(n, flat, reach)
    totals = np.empty(flat.size)
    # Each row's terms are padded to the widest row's in its chunk: rows in
    # order of z, widest first, a few at a time. (Python's sort and set
    # here: the first np.argsort or np.unique of a process maps some 0.1 to
    # 1 MB of numpy's code, which showed in the battery's peak RSS.)
    order = np.array(sorted(range(flat.size), key=flat.tolist().__getitem__), dtype=np.intp)
    first = 0
    while first < flat.size:
        width = 4 * int(_cusum_top(n, flat[order[first]], reach)) + 4
        rows = order[first : first + max(1, _CUSUM_TERMS // width)]
        totals[rows] = _cusum_totals(n, flat[rows], cdf)
        first += rows.size
    return np.clip(totals, 0.0, 1.0).reshape(z.shape)


# Summation limits in integer arithmetic truncated toward zero, as in the
# NIST SP 800-22 reference code: with q = n // z and top = (q - 1) // 4,
#   p = 1 - sum_{k=-top}^{top} [phi(4k+1) - phi(4k-1)]
#         + sum_{k=-top-1}^{top} [phi(4k+3) - phi(4k+1)],
# phi(j) = normal_cdf(j z / sqrt(n)). The sums read phi at the odd j with
# |j| <= 4 top + 3, at p = j z.


def _cusum_top(n: int, z, reach: int):
    """The sums' top for excursion z, cut to the first k whose terms read
    phi only beyond the reach: phi is 0.0 or 1.0 there at both ends of a
    term, so the terms past the cut are exact zeros, and leaving them out
    of the running sum changes no rounding."""
    return np.minimum((n // z - 1) // 4, (reach // z) // 4 + 1)


def _cusum_totals(n: int, z: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """The unclipped cumulative-sums p-value of each block of n bits with excursion z."""
    reach = (len(cdf) - 3) // 2
    top = _cusum_top(n, z, reach)
    last = 4 * top[:, None] + 3
    # Row by row, phi at j = -4 top - 3, -4 top - 1, ..., 4 top + 3, then
    # repeated at 4 top + 3 out to the longest row: a term past the row's
    # own sums is a difference of equal values, a zero that leaves the
    # running sum as it is. cumsum adds each row's terms one after another.
    j = np.minimum(2 * np.arange(4 * int(top.max()) + 4) - last, last)
    phi = cdf.take(j * z[:, None] + (reach + 1), mode="clip")
    first = -(phi[:, 2::2] - phi[:, 1:-1:2])
    second = phi[:, 1::2] - phi[:, 0::2]
    terms = np.concatenate((np.ones((len(z), 1)), first, second), axis=1)
    return np.cumsum(terms, axis=1)[:, -1]


def _cdf_reach(n: int) -> int:
    """Beyond this |p|, erfc's argument p / sqrt(n) / sqrt(2) passes 27.3 in
    magnitude. ``math.erfc`` is exactly 0.0 from about 27.2264 on, so erfc
    gives exactly 0.0 or 2.0 there."""
    reach = math.ceil(27.3 * math.sqrt(2.0) * math.sqrt(n))
    assert math.erfc((reach + 1) / math.sqrt(n) / math.sqrt(2.0)) == 0.0
    return reach


def _cusum_cdf(n: int, z: np.ndarray, reach: int) -> np.ndarray:
    """Table of ``normal_cdf(p / sqrt(n))`` at ``p + reach + 1`` for |p| <=
    reach + 1, at every p that cumulative sums reads on blocks of n bits
    with excursions z, and NaN at every other |p| <= reach. Its ends are
    exactly 0.0 and 1.0, the value at every |p| > reach.

    One array call evaluates each |p| read once, at -|p|; +|p| gets 1.0
    minus that, the same double: for x > 0, normal_cdf(x) = 0.5 (2 - e) and
    normal_cdf(-x) = 0.5 e with e = erfc(x / sqrt(2)) <= 1, and halving is
    exact and keeps the rounding grid, so 0.5 (2 - e) and 1 - 0.5 e round
    alike.
    """
    z = np.fromiter(set(z.tolist()), dtype=np.int64)  # each excursion once
    # each z reads its odd multiples j z, j <= 4 top + 3, out to the reach
    count = (np.minimum(4 * _cusum_top(n, z, reach) + 3, reach // z) + 1) // 2
    j = 2 * (np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)) + 1
    read = np.zeros(reach + 1, dtype=bool)
    read[np.repeat(z, count) * j] = True
    p = np.flatnonzero(read)
    low = normal_cdf(-p / math.sqrt(n))
    table = np.full(2 * reach + 3, np.nan)
    table[0], table[-1] = 0.0, 1.0
    table[reach + 1 - p] = low
    table[reach + 1 + p] = 1.0 - low
    return table


def _sum_p_log_p(counts: np.ndarray, n: int) -> np.ndarray:
    """Sum of f log f over the nonzero pattern frequencies f of each row."""
    freq = counts / n
    full = (counts > 0).all(axis=1)
    total = np.empty(len(counts))
    total[full] = (freq[full] * np.log(freq[full])).sum(axis=1)
    # a row with an empty cell sums only its nonzero cells, in their order
    for row in np.flatnonzero(~full).tolist():
        f = freq[row][freq[row] > 0]
        total[row] = (f * np.log(f)).sum()
    return total


def approximate_entropy(bits, m: int = 4):
    """Entropy gap between overlapping m-bit and (m+1)-bit pattern statistics."""
    group = _blocks_of(bits, m + 1)
    n = group.n
    if m < 1:
        raise ValueError(f"pattern length must be at least 1, got {m}")
    if n < m + 2:
        raise InsufficientDataError(
            f"approximate entropy with m={m} needs at least {m + 2} bits, got {n}"
        )
    counts = group.counts
    ap_en = _sum_p_log_p(counts[m], n) - _sum_p_log_p(counts[m + 1], n)
    chi_sq = 2.0 * n * (math.log(2.0) - ap_en)
    return _finish(bits, chi_sq, functools.partial(_chi_square_p, 2**m))


def serial(bits, m: int = 5):
    """Uniformity of overlapping m-bit patterns; first and second difference p-values."""
    group = _blocks_of(bits, m)
    n = group.n
    if m < 2:
        raise ValueError(f"pattern length must be at least 2, got {m}")
    if n < m + 1:
        raise InsufficientDataError(
            f"serial with m={m} needs at least {m + 1} bits, got {n}"
        )
    counts = group.counts

    def psi_sq(length: int) -> np.ndarray | float:
        if length < 1:
            return 0.0
        squares = counts[length].astype(float) ** 2
        return (2.0**length / n) * squares.sum(axis=1) - n

    delta1 = psi_sq(m) - psi_sq(m - 1)
    delta2 = psi_sq(m) - 2.0 * psi_sq(m - 1) + psi_sq(m - 2)
    p = _finish(bits, np.stack((delta1, delta2), axis=1), functools.partial(_serial_p, m))
    return p if isinstance(bits, _Blocks) else tuple(p)


def _serial_p(m: int, deltas: np.ndarray) -> np.ndarray:
    """Both serial p-values of each block from its two differences, ``deltas[:, 0]`` and ``[:, 1]``."""
    return np.stack(
        (_chi_square_p(2 ** (m - 1), deltas[:, 0]), _chi_square_p(2 ** (m - 2), deltas[:, 1])),
        axis=1,
    )


# Per-test parameters of the battery; valid for blocks of 1e4 bits and up.
_BLOCK_FREQUENCY_LEN = 128
_APPROXIMATE_ENTROPY_M = 4
_SERIAL_M = 5


#: Logical tests and the components each aggregates over, in report order.
LOGICAL_TESTS: dict[str, tuple[str, ...]] = {
    "monobit": ("monobit",),
    "block_frequency": ("block_frequency",),
    "runs": ("runs",),
    "longest_run": ("longest_run",),
    "cumulative_sums": ("cumulative_sums_forward", "cumulative_sums_backward"),
    "approximate_entropy": ("approximate_entropy",),
    "serial": ("serial_1", "serial_2"),
}

#: Component result names produced per block, in report order.
COMPONENTS = tuple(c for components in LOGICAL_TESTS.values() for c in components)

#: Battery members that are not implemented, listed explicitly in reports.
NOT_RUN = (
    "binary_matrix_rank",
    "discrete_fourier_transform",
    "non_overlapping_template",
    "overlapping_template",
    "maurer_universal",
    "linear_complexity",
    "random_excursions",
    "random_excursions_variant",
)

_CSV_HEADER = "test,block,p_value,pass"
# Report CSV rows that parse_report_csv splits and converts at a time: all
# 1 800 rows of a 200-block report at once raised the peak RSS of a
# test-then-report process by about 0.4 MB.
_CSV_CHUNK_ROWS = 256


@dataclass(frozen=True, eq=False)
class TestReport:
    """Every per-block p-value of a battery run and its pass flag.

    ``p_values`` and ``passed`` have shape ``(len(COMPONENTS), n_blocks)``;
    both are made read-only. The pass flags are authoritative: a report
    parsed from CSV keeps the stored flags, whatever its p-values.
    """

    block_size: int
    significance: float
    p_values: np.ndarray
    passed: np.ndarray

    def __post_init__(self):
        self.p_values.flags.writeable = self.passed.flags.writeable = False

    @property
    def n_blocks(self) -> int:
        return self.p_values.shape[1]

    def pass_fraction(self) -> dict[str, float]:
        """Fraction of blocks passing each logical test (all components at once)."""
        fractions = {}
        for name, components in LOGICAL_TESTS.items():
            rows = [COMPONENTS.index(c) for c in components]
            fractions[name] = float(self.passed[rows].all(axis=0).mean())
        return fractions

    def _rows(self, sep: str, p_text, flags: tuple[str, str]) -> str:
        """A line per block and component, in report order: the component,
        the block, ``p_text`` of the p-value and ``flags[passed]``, joined by
        ``sep``."""
        keys = [f"{test}{sep}{block}{sep}" for block in range(self.n_blocks) for test in COMPONENTS]
        p_values = map(p_text, self.p_values.T.ravel().tolist())
        ends = (f"{sep}{flags[0]}\n", f"{sep}{flags[1]}\n")
        passed = map(ends.__getitem__, self.passed.T.ravel().tolist())
        return "".join(itertools.chain.from_iterable(zip(keys, p_values, passed)))

    def to_csv(self) -> str:
        return f"{_CSV_HEADER}\n" + self._rows(",", repr, ("0", "1"))

    def to_text(self) -> str:
        header = (
            f"block_size={self.block_size} n_blocks={self.n_blocks} "
            f"significance={self.significance:g}\n"
        )
        lines = [f"pass_fraction {name} {frac:.3f}" for name, frac in self.pass_fraction().items()]
        lines += [f"{name} not_run" for name in NOT_RUN]
        return header + self._rows(" ", "{:.6f}".format, ("FAIL", "pass")) + "\n".join(lines) + "\n"


def _groups(stream: BitStream, block_size: int, n_blocks: int):
    """The first ``n_blocks`` blocks in consecutive groups of about
    ``_GROUP_BITS`` bits, each as k packed rows (``_packed_rows``)."""
    per_group = max(1, _GROUP_BITS // block_size)
    for first in range(0, n_blocks, per_group):
        k = min(per_group, n_blocks - first)
        yield _packed_rows(stream, first * block_size, block_size, k)


def run_battery(
    bits,
    block_size: int,
    significance: float = 0.01,
) -> TestReport:
    """Partition the input into consecutive blocks and run every test on each.

    Trailing bits short of a block are not tested. Other input than a
    ``BitStream`` is packed into one first. The tests run on a group of
    blocks at a time, held as packed rows: a view of the payload when the
    block size is a multiple of 8, else each group's rows shifted into
    place once.
    """
    bits = _as_stream(bits)
    n_bits = bits.length
    if not 0.0 < significance < 1.0:
        raise ValueError(f"significance must lie in (0, 1), got {significance}")
    if block_size < 128:
        raise ValueError(f"block size must be at least 128, got {block_size}")
    n_blocks = n_bits // block_size
    if n_blocks < 1:
        raise InsufficientDataError(
            f"need at least one block of {block_size} bits, got {n_bits}"
        )
    statistics: dict[str, list[_Statistic]] = {name: [] for name in LOGICAL_TESTS}
    for rows in _groups(bits, block_size, n_blocks):
        group = _Blocks(rows, block_size, max(_SERIAL_M, _APPROXIMATE_ENTROPY_M + 1))
        statistics["monobit"].append(frequency_monobit(group))
        statistics["block_frequency"].append(block_frequency(group, _BLOCK_FREQUENCY_LEN))
        statistics["runs"].append(runs(group))
        statistics["longest_run"].append(longest_run_of_ones(group))
        # both directions in one statistic, so that one table serves them
        forward = cumulative_sums(group, "forward")
        backward = cumulative_sums(group, "backward")
        statistics["cumulative_sums"].append(
            forward._replace(values=np.stack((forward.values, backward.values), axis=1))
        )
        statistics["approximate_entropy"].append(
            approximate_entropy(group, _APPROXIMATE_ENTROPY_M)
        )
        statistics["serial"].append(serial(group, _SERIAL_M))
    # each test's p-values from every block's statistic at once, as rows in
    # COMPONENTS order
    table = np.concatenate([
        parts[0].to_p(np.concatenate([part.values for part in parts])).reshape(n_blocks, -1).T
        for parts in statistics.values()
    ])
    return TestReport(block_size, significance, table, table >= significance)


def parse_report_csv(text: str) -> TestReport:
    """Rebuild a report from its CSV export.

    Block size and significance are not stored in the CSV; the recorded pass
    flags are taken as authoritative. The CSV must hold exactly one row per
    component and block, for at least one block; a row has four fields, a
    p-value in [0, 1] and a pass flag of 0 or 1.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _CSV_HEADER:
        raise ValueError("not a battery report CSV (unexpected header)")
    rows = lines[1:]
    report = _report_from_columns(rows)
    if report is None:
        raise _first_fault(rows)
    return report


def _report_from_columns(rows: list[str]) -> TestReport | None:
    """The report of well-formed rows, checked and converted a column at a
    time, ``_CSV_CHUNK_ROWS`` rows at a time; None if any check fails."""
    if not rows:
        return None
    index = {name: i for i, name in enumerate(COMPONENTS)}
    chunks = []
    for first in range(0, len(rows), _CSV_CHUNK_ROWS):
        fields = [ln.split(",") for ln in rows[first : first + _CSV_CHUNK_ROWS]]
        if set(map(len, fields)) != {4}:
            return None
        tests, block_fields, p_fields, flags = zip(*fields)
        if not index.keys() >= set(tests) or not {"0", "1"} >= set(flags):
            return None
        try:
            chunks.append([
                np.fromiter(map(index.__getitem__, tests), dtype=np.int64, count=len(fields)),
                np.fromiter(map(int, block_fields), dtype=np.int64, count=len(fields)),
                np.fromiter(map(float, p_fields), dtype=float, count=len(fields)),
                np.fromiter(map("1".__eq__, flags), dtype=bool, count=len(fields)),
            ])
        except (ValueError, OverflowError):
            return None
    component, blocks, p_values, passed = map(np.concatenate, zip(*chunks))
    if blocks.min() < 0 or not ((0.0 <= p_values) & (p_values <= 1.0)).all():
        return None
    # every (component, block) cell exactly once
    shape = (len(COMPONENTS), int(blocks.max()) + 1)
    if len(rows) != shape[0] * shape[1]:
        return None
    cells = component * shape[1] + blocks
    if np.bincount(cells).max() > 1:
        return None
    table = np.empty(shape)
    table.flat[cells] = p_values
    flags = np.empty(shape, dtype=bool)
    flags.flat[cells] = passed
    return TestReport(0, 0.01, table, flags)


def _first_fault(rows: list[str]) -> ValueError:
    """The error for rows that do not make a report, naming the first row at
    fault: the rows are checked one by one, then for a missing row."""
    seen = set()
    for ln in rows:
        try:
            test, block_field, p_field, passed = ln.split(",")
            block, p_value = int(block_field), float(p_field)
        except ValueError:
            return ValueError(f"battery report CSV: malformed row {ln!r}")
        if (
            test not in COMPONENTS
            or block < 0
            or not 0.0 <= p_value <= 1.0
            or passed not in ("0", "1")
        ):
            return ValueError(f"battery report CSV: unexpected row {ln!r}")
        if (test, block) in seen:
            return ValueError(f"battery report CSV: duplicate row for {test} block {block}")
        seen.add((test, block))
    if not seen:
        return ValueError("battery report CSV holds no result rows")
    # every row passed its checks, so some (component, block) has no row
    name, blk = next(
        (name, blk)
        for blk in range(max(b for _, b in seen) + 1)
        for name in COMPONENTS
        if (name, blk) not in seen
    )
    return ValueError(f"battery report CSV: no row for {name} block {blk}")
