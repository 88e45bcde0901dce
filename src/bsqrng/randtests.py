"""Statistical randomness tests applied block-wise, with pass/fail at the
given significance (default 0.01).

Seven tests of the standard battery are implemented: frequency (monobit),
block frequency, runs, longest run of ones, cumulative sums (both
directions), approximate entropy and serial. Each returns a p-value in
[0, 1]; a block passes a test when every p-value of that test is at or above
the significance level. The remaining tests of the full battery are reported
as not run. A ``TestReport`` holds a battery's results as two read-only
arrays of shape ``(len(COMPONENTS), n_blocks)``, ``p_values`` (float64) and
``passed`` (bool): row i is ``COMPONENTS[i]`` and column b is block b.

The battery evaluates a group of equal blocks at a time, held as one
``(k, n)`` bit array (``_Blocks``): each integer statistic is one row-wise
array operation over the group, and each test then returns one p-value per
block. A test given plain bits runs the same kernels on a group of one
block. Most statistics read the rows packed into bytes: ones and runs'
transitions are popcounts (a row xor itself shifted by one bit marks each
change), block frequency and longest run share the packed sub-blocks, and
the longest run of each sub-block is read from a table of the longest run
in every 16-bit pair of neighbouring bytes (``_longest_runs``). A group
holds about ``_GROUP_BITS`` bits, and a ``BitStream`` is unpacked one group
at a time, so memory is bounded by a group, not by the input. Cumulative
sums reads the normal CDF only at the points the blocks need, evaluated for
all blocks of a battery in one call, once per |p|: at -|p|, with +|p| its
reflection. Every p-value is the same, bit for bit, as a block-by-block
evaluation gives: float sums run over each row in the order a one-block sum
would.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .postproc import BitStream, _ascii_bits
from .special import erfc, gammainc_upper, normal_cdf

# Bits per group of blocks; a block longer than this is a group alone.
_GROUP_BITS = 1 << 17


class InsufficientDataError(ValueError):
    """Raised when the input is too short for the requested evaluation."""


def _as_bits(bits) -> np.ndarray:
    if isinstance(bits, BitStream):
        return bits.bits()
    if isinstance(bits, str):
        return _ascii_bits(bits)
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("bit input must be one-dimensional")
    if arr.size and arr.max() > 1:
        raise ValueError("bit values must be 0 or 1")
    return arr


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

    ``run_battery`` hands a group to each public test function, which then
    returns one p-value per block; given plain bits, a test checks them and
    builds a group of one block, and returns its p-value alone. Statistics
    are computed on first use, for every block of the group at once; the
    ones and the walk are read from the rows packed into bytes, and the
    sub-blocks of one length are packed once for every test that reads them.

    Counts of every length up to ``max_m`` come from the ``max_m``-bit
    counts: the circular (m-1)-bit pattern q occurs exactly as often as the
    m-bit patterns 2q and 2q + 1 together.

    Both cumulative-sums excursions come from one +-1 walk S_0 = 0, ...,
    S_n = end with extremes ``hi`` and ``lo``: the backward walk's partial
    sums are ``end - S_i``, so its excursion is ``max(end - lo, hi - end)``.
    ``cdf`` is the normal-CDF table those tests read (``_cusum_cdf``).
    """

    def __init__(self, rows: np.ndarray, max_m: int):
        self.rows = rows
        self.k, self.n = rows.shape
        self.max_m = max_m
        self.cdf: np.ndarray | None = None
        self._sub_blocks: dict[int, np.ndarray] = {}

    @functools.cached_property
    def packed(self) -> np.ndarray:
        """Each row packed MSB first, its last byte padded with zeros."""
        return np.packbits(self.rows, axis=1)

    @functools.cached_property
    def ones(self) -> np.ndarray:
        return np.bitwise_count(self.packed).sum(axis=1, dtype=np.int64)

    def sub_blocks(self, length: int) -> np.ndarray:
        """Each row's whole sub-blocks of ``length`` bits, each packed MSB first
        and padded with zeros, byte j of every sub-block at ``[j]``: shape
        ``(ceil(length / 8), k, n // length)``.

        Byte-major, so that reducing over each sub-block's bytes combines a
        few long rows elementwise instead of reducing many short ones.
        """
        if length not in self._sub_blocks:
            n_sub = self.n // length
            width = -(-length // 8)
            bits = np.empty((self.k, n_sub, 8 * width), dtype=np.uint8)
            bits[:, :, :length] = self.rows[:, : n_sub * length].reshape(self.k, n_sub, length)
            bits[:, :, length:] = 0
            packed = np.packbits(bits.reshape(-1)).reshape(self.k, n_sub, width)
            self._sub_blocks[length] = np.ascontiguousarray(packed.transpose(2, 0, 1))
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
        counts = _pattern_counts(self.rows, self.max_m)
        by_length = {self.max_m: counts}
        for m in range(self.max_m - 1, 0, -1):
            counts = counts.reshape(self.k, -1, 2).sum(axis=2)
            by_length[m] = counts
        return by_length

    def drop_bits(self) -> None:
        """Free the bits and every statistic but the walk's excursions, which
        cumulative sums reads once the normal CDF is known."""
        for name in ("rows", "packed", "ones", "counts"):
            vars(self).pop(name, None)
        self._sub_blocks.clear()


def _blocks_of(bits, max_m: int = 1) -> _Blocks:
    """``bits`` itself if it is a group, else a group of one block of its checked bits."""
    return bits if isinstance(bits, _Blocks) else _Blocks(_as_bits(bits)[None, :], max_m)


def _per_block(bits, values: list[float]):
    """All of ``values`` for a group, its one value for plain bits."""
    return values if isinstance(bits, _Blocks) else values[0]


def _pattern_counts(rows: np.ndarray, m: int) -> np.ndarray:
    """Occurrences of each overlapping m-bit pattern in each row, wrapping
    around the row's end: shape ``(k, 2**m)``.

    The m + 3 bits from the start of a nibble hold the four windows that
    start in it, so one histogram of those contexts per row, at every whole
    nibble of the row, gives the counts; the last n % 4 windows are read
    bit by bit.
    """
    if m > 25:
        raise ValueError(f"pattern length must be at most 25, got {m}")
    k, n = rows.shape
    extended = np.concatenate((rows, rows[:, : m - 1]), axis=1)
    nibbles = n // 4
    tail = extended[:, 4 * nibbles :]
    value = tail[:, : n % 4].astype(np.intp)
    for i in range(1, m):
        value <<= 1
        value |= tail[:, i : i + n % 4]
    value += (np.arange(k) << m)[:, None]
    counts = np.bincount(value.ravel(), minlength=k << m).reshape(k, 1 << m)
    # 32-bit words from every byte of the packed rows on; nibble 2i is the
    # top of word i, nibble 2i + 1 four bits further.
    packed = np.packbits(extended, axis=1)
    del extended, tail
    packed = np.concatenate((packed, np.zeros((k, 3), dtype=np.uint8)), axis=1)
    packed = packed[:, : (nibbles + 1) // 2 + 3].astype(np.uint32)
    words = packed[:, :-3] << 24
    words |= packed[:, 1:-2] << 16
    words |= packed[:, 2:-1] << 8
    words |= packed[:, 3:]
    del packed
    # row r's contexts count in bins r * 2**size onwards
    size = m + 3
    offsets = (np.arange(k, dtype=np.intp) << size)[:, None]
    by_context = sum(
        np.bincount((contexts + offsets).ravel(), minlength=k << size)
        for contexts in (
            words >> (32 - size),
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
    scale = math.sqrt(2.0 * n)
    return _per_block(bits, [erfc(abs(2.0 * ones - n) / scale) for ones in group.ones.tolist()])


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
    return _per_block(
        bits, [gammainc_upper(n_blocks / 2.0, x / 2.0) for x in chi_sq.tolist()]
    )


def runs(bits):
    """Total number of runs against the expectation for the observed bias."""
    group = _blocks_of(bits)
    n = group.n
    if n < 2:
        raise InsufficientDataError(f"runs needs at least 2 bits, got {n}")
    p_values = []
    for ones, v in zip(group.ones.tolist(), (_changes(group.packed, n) + 1).tolist()):
        pi = ones / n
        if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
            p_values.append(0.0)  # frequency pre-test failed; runs statistic is meaningless
            continue
        p_values.append(erfc(
            abs(v - 2.0 * n * pi * (1.0 - pi))
            / (2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi))
        ))
    return _per_block(bits, p_values)


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
    return _per_block(
        bits, [gammainc_upper((n_cats - 1) / 2.0, x / 2.0) for x in chi_sq.tolist()]
    )


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
    if group.cdf is None:
        excursions = np.concatenate(tuple(group.excursions.values()))
        group.cdf = _cusum_cdf(n, excursions)
    z = group.excursions[direction]
    # Each row's terms are padded to the longest row's, the one of least z:
    # a few rows at a time keep them near a group's size.
    step = max(1, _GROUP_BITS // (8 * (n // int(z.min()) + 4)))
    totals = np.concatenate([
        _cusum_totals(n, z[first : first + step], group.cdf) for first in range(0, len(z), step)
    ])
    return _per_block(bits, [min(max(total, 0.0), 1.0) for total in totals.tolist()])


# Summation limits in integer arithmetic truncated toward zero, as in the
# NIST SP 800-22 reference code: with q = n // z and top = (q - 1) // 4,
#   p = 1 - sum_{k=-top}^{top} [phi(4k+1) - phi(4k-1)]
#         + sum_{k=-top-1}^{top} [phi(4k+3) - phi(4k+1)],
# phi(j) = normal_cdf(j z / sqrt(n)). The sums read phi at the odd j with
# |j| <= 4 top + 3.


def _cusum_totals(n: int, z: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """The unclipped cumulative-sums p-value of each block of n bits with excursion z."""
    reach = (len(cdf) - 3) // 2
    top = (n // z - 1) // 4
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
    """Beyond this |p|, erfc's argument p / sqrt(n) / sqrt(2) exceeds 27 in
    magnitude, where erfc gives exactly 0.0 or 2.0."""
    reach = math.ceil(27.0 * math.sqrt(2.0) * math.sqrt(n))
    assert (reach + 1) / math.sqrt(n) / math.sqrt(2.0) > 27.0
    return reach


def _cusum_cdf(n: int, z: np.ndarray) -> np.ndarray:
    """Table of ``normal_cdf(p / sqrt(n))`` at ``p + reach + 1`` for every p = j z,
    j odd, |p| <= reach, that cumulative sums reads on n bits with excursions
    ``z``; NaN at every other p, and 0.0 and 1.0 at the ends for |p| > reach.

    One array call evaluates each |p| once, at -|p|; +|p| gets 1.0 minus that,
    the same double: for x > 0, normal_cdf(x) = 0.5 (2 - e) and normal_cdf(-x)
    = 0.5 e with e = erfc(x / sqrt(2)) <= 1, and halving is exact and keeps the
    rounding grid, so 0.5 (2 - e) and 1 - 0.5 e round alike.
    """
    reach = _cdf_reach(n)
    z = np.sort(z)
    z = z[np.diff(z, prepend=0) > 0]  # each excursion once; every z >= 1
    limit = np.minimum(4 * ((n // z - 1) // 4) + 3, reach // z)
    # the odd j in [1, limit] are 2 i + 1 for i < half
    half = (limit + 1) // 2
    i = np.arange(half.sum()) - np.repeat(np.cumsum(half) - half, half)
    asked = np.zeros(reach + 1, dtype=bool)
    asked[(2 * i + 1) * np.repeat(z, half)] = True
    p = np.flatnonzero(asked)
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
    return _per_block(bits, [
        gammainc_upper(2.0 ** (m - 1), 2.0 * n * (math.log(2.0) - x) / 2.0)
        for x in ap_en.tolist()
    ])


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
    p1 = [gammainc_upper(2.0 ** (m - 2), x / 2.0) for x in delta1.tolist()]
    p2 = [gammainc_upper(2.0 ** (m - 3), x / 2.0) for x in delta2.tolist()]
    return (p1, p2) if isinstance(bits, _Blocks) else (p1[0], p2[0])


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
    """The first ``n_blocks`` blocks in consecutive groups, each as a ``(k,
    block_size)`` bit array unpacked from the stream one group at a time."""
    per_group = max(1, _GROUP_BITS // block_size)
    payload = np.frombuffer(stream.data, dtype=np.uint8)
    for first in range(0, n_blocks, per_group):
        k = min(per_group, n_blocks - first)
        start, stop = first * block_size, (first + k) * block_size
        rows = np.unpackbits(payload[start // 8 : (stop + 7) // 8])
        yield rows[start % 8 : start % 8 + stop - start].reshape(k, block_size)


def run_battery(
    bits,
    block_size: int,
    significance: float = 0.01,
) -> TestReport:
    """Partition the input into consecutive blocks and run every test on each.

    Trailing bits short of a block are not tested. Other input than a
    ``BitStream`` is packed into one first; the tests run on a group of
    blocks at a time, unpacked from the stream one group at a time.
    """
    if not isinstance(bits, BitStream):
        bits = BitStream.from_bits(_as_bits(bits))
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
    p_values: dict[str, list[float]] = {name: [] for name in COMPONENTS}
    groups, excursions = [], []
    for rows in _groups(bits, block_size, n_blocks):
        group = _Blocks(rows, max(_SERIAL_M, _APPROXIMATE_ENTROPY_M + 1))
        p_values["monobit"] += frequency_monobit(group)
        p_values["block_frequency"] += block_frequency(group, _BLOCK_FREQUENCY_LEN)
        p_values["runs"] += runs(group)
        p_values["longest_run"] += longest_run_of_ones(group)
        p_values["approximate_entropy"] += approximate_entropy(group, _APPROXIMATE_ENTROPY_M)
        serial_1, serial_2 = serial(group, _SERIAL_M)
        p_values["serial_1"] += serial_1
        p_values["serial_2"] += serial_2
        # Walk the group, then let its bits go: cumulative sums waits for
        # the normal CDF at every block's points.
        excursions.extend(group.excursions.values())
        group.drop_bits()
        groups.append(group)
    cdf = _cusum_cdf(block_size, np.concatenate(excursions))
    for group in groups:
        group.cdf = cdf
        p_values["cumulative_sums_forward"] += cumulative_sums(group, "forward")
        p_values["cumulative_sums_backward"] += cumulative_sums(group, "backward")
    table = np.array([p_values[name] for name in COMPONENTS])
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
    results = {}
    for ln in lines[1:]:
        try:
            test, block_field, p_field, passed = ln.split(",")
            block, p_value = int(block_field), float(p_field)
        except ValueError:
            raise ValueError(f"battery report CSV: malformed row {ln!r}") from None
        if (
            test not in COMPONENTS
            or block < 0
            or not 0.0 <= p_value <= 1.0
            or passed not in ("0", "1")
        ):
            raise ValueError(f"battery report CSV: unexpected row {ln!r}")
        if (test, block) in results:
            raise ValueError(f"battery report CSV: duplicate row for {test} block {block}")
        results[(test, block)] = (p_value, passed == "1")
    if not results:
        raise ValueError("battery report CSV holds no result rows")
    n_blocks = max(blk for _, blk in results) + 1
    # the rows are distinct and in range, so a full count means no row is missing
    if len(results) < len(COMPONENTS) * n_blocks:
        for blk in range(n_blocks):
            for name in COMPONENTS:
                if (name, blk) not in results:
                    raise ValueError(f"battery report CSV: no row for {name} block {blk}")
    p_values, passed = zip(*[results[name, blk] for name in COMPONENTS for blk in range(n_blocks)])
    shape = (len(COMPONENTS), n_blocks)
    return TestReport(0, 0.01, np.reshape(p_values, shape), np.reshape(passed, shape))
