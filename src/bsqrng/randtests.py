"""Statistical randomness tests applied block-wise with pass/fail at 0.01.

Seven tests of the standard battery are implemented: frequency (monobit),
block frequency, runs, longest run of ones, cumulative sums (both
directions), approximate entropy and serial. Each returns a p-value in
[0, 1]; a block passes a test when every p-value of that test is at or above
the significance level. The remaining tests of the full battery are reported
as not run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .postproc import BitStream
from .special import erfc, gammainc_upper, normal_cdf


class InsufficientDataError(ValueError):
    """Raised when the input is too short for the requested evaluation."""


def _as_bits(bits) -> np.ndarray:
    if isinstance(bits, _Block):
        return bits.bits
    if isinstance(bits, BitStream):
        return bits.bits()
    if isinstance(bits, str):
        digits = np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0")
        if digits.size and digits.max() > 1:
            raise ValueError("bit string may contain only '0' and '1'")
        return digits
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("bit input must be one-dimensional")
    if arr.size and arr.max() > 1:
        raise ValueError("bit values must be 0 or 1")
    return arr


def frequency_monobit(bits, *, min_length: int = 100) -> float:
    """Excess of ones over zeros against the half-normal law."""
    b = _as_bits(bits)
    n = len(b)
    if n < min_length:
        raise InsufficientDataError(f"monobit needs at least {min_length} bits, got {n}")
    s = 2.0 * int(b.sum()) - n
    return erfc(abs(s) / math.sqrt(2.0 * n))


def block_frequency(bits, block_len: int = 128) -> float:
    """Chi-square of per-block ones proportions around one half."""
    b = _as_bits(bits)
    if block_len < 2:
        raise ValueError(f"block length must be at least 2, got {block_len}")
    n_blocks = len(b) // block_len
    if n_blocks < 1:
        raise InsufficientDataError(
            f"block frequency needs at least {block_len} bits, got {len(b)}"
        )
    proportions = b[: n_blocks * block_len].reshape(n_blocks, block_len).mean(axis=1)
    chi_sq = 4.0 * block_len * float(((proportions - 0.5) ** 2).sum())
    return gammainc_upper(n_blocks / 2.0, chi_sq / 2.0)


def runs(bits) -> float:
    """Total number of runs against the expectation for the observed bias."""
    b = _as_bits(bits)
    n = len(b)
    if n < 2:
        raise InsufficientDataError(f"runs needs at least 2 bits, got {n}")
    pi = float(b.mean())
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return 0.0  # frequency pre-test failed; runs statistic is meaningless
    v = 1 + int((b[1:] != b[:-1]).sum())
    return erfc(
        abs(v - 2.0 * n * pi * (1.0 - pi))
        / (2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi))
    )


# (block length M, category probabilities for longest run <=lo .. >=hi)
_LONGEST_RUN_TABLES = (
    (128, 8, 1, (0.2148, 0.3672, 0.2305, 0.1875)),
    (6272, 128, 4, (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    (750_000, 10_000, 10, (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
)


def longest_run_of_ones(bits) -> float:
    """Distribution of the longest 1-run per block against tabulated categories."""
    b = _as_bits(bits)
    n = len(b)
    if n < 128:
        raise InsufficientDataError(f"longest run needs at least 128 bits, got {n}")
    for threshold, block_len, low, pi_table in reversed(_LONGEST_RUN_TABLES):
        if n >= threshold:
            break
    longest = _longest_runs(b, block_len)
    n_cats = len(pi_table)
    counts = np.bincount(np.clip(longest, low, low + n_cats - 1) - low, minlength=n_cats)
    expected = len(longest) * np.asarray(pi_table)
    chi_sq = float(((counts - expected) ** 2 / expected).sum())
    return gammainc_upper((n_cats - 1) / 2.0, chi_sq / 2.0)


def _longest_runs(b: np.ndarray, block_len: int) -> np.ndarray:
    """Longest 1-run of each whole sub-block of ``block_len`` bits."""
    n_blocks = len(b) // block_len
    # A zero column after each sub-block ends every run at its sub-block's
    # edge, so one run-length pass over the flattened rows serves all of them.
    rows = np.zeros((n_blocks, block_len + 1), dtype=np.int8)
    rows[:, :block_len] = b[: n_blocks * block_len].reshape(n_blocks, block_len)
    edges = np.diff(rows.ravel(), prepend=np.int8(0))
    starts = np.flatnonzero(edges == 1)
    longest = np.zeros(n_blocks, dtype=np.int64)
    np.maximum.at(longest, starts // (block_len + 1), np.flatnonzero(edges == -1) - starts)
    return longest


def cumulative_sums(bits, direction: str = "forward") -> float:
    """Maximum partial-sum excursion of the +-1 walk."""
    b = _as_bits(bits)
    n = len(b)
    if n < 2:
        raise InsufficientDataError(f"cumulative sums needs at least 2 bits, got {n}")
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    z = _block_of(bits, b, 1).excursions[direction]
    # Summation limits in integer arithmetic truncated toward zero, as in
    # the NIST SP 800-22 reference code: (-n/z + 1)/4, (n/z - 1)/4, (-n/z - 3)/4.
    q = n // z
    top = (q - 1) // 4
    # total = 1 - sum_k [phi(4k+1) - phi(4k-1)] + sum_k [phi(4k+3) - phi(4k+1)]
    # with phi(j) = normal_cdf(j * z / sqrt(n)), read from the table at j * z.
    cdf, reach = _normal_cdf_table(n)
    first = 4 * np.arange(-top, top + 1)
    second = 4 * np.arange(-((q + 3) // 4), top + 1)
    j = np.concatenate((first + 1, second + 3, first - 1, second + 1))
    phi = cdf[np.clip(j * z, -reach - 1, reach + 1) + reach + 1]
    n_terms = len(first) + len(second)
    terms = np.empty(n_terms + 1)
    terms[0] = 1.0
    np.subtract(phi[:n_terms], phi[n_terms:], out=terms[1:])
    terms[1 : len(first) + 1] *= -1.0
    # cumsum adds the terms one after another, in the order of the k-sums
    total = float(np.cumsum(terms)[-1])
    return min(max(total, 0.0), 1.0)


@functools.lru_cache(maxsize=8)
def _normal_cdf_table(n: int) -> tuple[np.ndarray, int]:
    """``normal_cdf(p / sqrt(n))`` at ``p + reach + 1`` for ``|p| <= reach + 1``.

    Beyond ``reach`` erfc's argument ``p / sqrt(n) / sqrt(2)`` exceeds 27 in
    magnitude, where erfc gives exactly 0.0 or 2.0, so the two end entries
    0.0 and 1.0 stand for every larger ``|p|``.
    """
    sqrt_n = math.sqrt(n)
    reach = math.ceil(27.0 * math.sqrt(2.0) * sqrt_n)
    assert (reach + 1) / sqrt_n / math.sqrt(2.0) > 27.0
    table = np.empty(2 * reach + 3)
    table[0], table[-1] = 0.0, 1.0
    table[1:-1] = normal_cdf(np.arange(-reach, reach + 1) / sqrt_n)
    table.flags.writeable = False
    return table, reach


def _pattern_counts(b: np.ndarray, m: int) -> np.ndarray:
    """Occurrences of each overlapping m-bit pattern, wrapping around the end."""
    n = len(b)
    extended = np.concatenate([b, b[: m - 1]]) if m > 1 else b
    value = extended[:n].astype(np.min_scalar_type(2**m - 1))
    for i in range(1, m):
        value <<= 1
        value |= extended[i : i + n]
    return np.bincount(value, minlength=2**m)


class _Block:
    """One validated battery block and the pattern counts and walk its tests share.

    ``evaluate_block`` hands this to each public test function, so the bits
    are checked once per battery run and counted once per block; a test
    given plain bits builds its own. Counts of every length up to ``max_m``
    come from the ``max_m``-bit counts: the circular (m-1)-bit pattern q
    occurs exactly as often as the m-bit patterns 2q and 2q + 1 together.

    Both cumulative-sums excursions come from one +-1 walk S_0 = 0, ...,
    S_n = end with extremes ``hi`` and ``lo``: the backward walk's partial
    sums are ``end - S_i``, so its excursion is ``max(end - lo, hi - end)``.
    """

    def __init__(self, bits: np.ndarray, max_m: int):
        self.bits = bits
        walk = bits.astype(np.int64)
        walk *= 2
        walk -= 1
        np.cumsum(walk, out=walk)
        hi, lo, end = max(int(walk.max()), 0), min(int(walk.min()), 0), int(walk[-1])
        self.excursions = {"forward": max(hi, -lo), "backward": max(end - lo, hi - end)}
        counts = _pattern_counts(bits, max_m)
        self.counts = {max_m: counts}
        for m in range(max_m - 1, 0, -1):
            counts = counts.reshape(-1, 2).sum(axis=1)
            self.counts[m] = counts


def _block_of(bits, b: np.ndarray, max_m: int) -> _Block:
    """``bits`` itself if it is a ``_Block``, else a new one over its checked bits ``b``."""
    return bits if isinstance(bits, _Block) else _Block(b, max_m)


def approximate_entropy(bits, m: int = 4) -> float:
    """Entropy gap between overlapping m-bit and (m+1)-bit pattern statistics."""
    b = _as_bits(bits)
    n = len(b)
    if m < 1:
        raise ValueError(f"pattern length must be at least 1, got {m}")
    if n < m + 2:
        raise InsufficientDataError(
            f"approximate entropy with m={m} needs at least {m + 2} bits, got {n}"
        )

    counts = _block_of(bits, b, m + 1).counts

    def phi(length: int) -> float:
        freq = counts[length] / n
        freq = freq[freq > 0]
        return float((freq * np.log(freq)).sum())

    ap_en = phi(m) - phi(m + 1)
    chi_sq = 2.0 * n * (math.log(2.0) - ap_en)
    return gammainc_upper(2.0 ** (m - 1), chi_sq / 2.0)


def serial(bits, m: int = 5) -> tuple[float, float]:
    """Uniformity of overlapping m-bit patterns; first and second difference p-values."""
    b = _as_bits(bits)
    n = len(b)
    if m < 2:
        raise ValueError(f"pattern length must be at least 2, got {m}")
    if n < m + 1:
        raise InsufficientDataError(
            f"serial with m={m} needs at least {m + 1} bits, got {n}"
        )

    counts = _block_of(bits, b, m).counts

    def psi_sq(length: int) -> float:
        if length < 1:
            return 0.0
        squares = counts[length].astype(float) ** 2
        return (2.0**length / n) * float(squares.sum()) - n

    delta1 = psi_sq(m) - psi_sq(m - 1)
    delta2 = psi_sq(m) - 2.0 * psi_sq(m - 1) + psi_sq(m - 2)
    return (
        gammainc_upper(2.0 ** (m - 2), delta1 / 2.0),
        gammainc_upper(2.0 ** (m - 3), delta2 / 2.0),
    )


# Per-test parameters of the battery; valid for blocks of 1e4 bits and up.
_BLOCK_FREQUENCY_LEN = 128
_APPROXIMATE_ENTROPY_M = 4
_SERIAL_M = 5


@dataclass(frozen=True)
class TestResult:
    test: str
    block: int
    p_value: float
    passed: bool


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


@dataclass(frozen=True)
class TestReport:
    """All per-block p-values of a battery run plus pass bookkeeping."""

    block_size: int
    n_blocks: int
    significance: float
    results: tuple[TestResult, ...]

    def pass_fraction(self) -> dict[str, float]:
        """Fraction of blocks passing each logical test (all components at once)."""
        by_key = {(r.test, r.block): r.passed for r in self.results}
        fractions = {}
        for name, components in LOGICAL_TESTS.items():
            passed_blocks = sum(
                all(by_key[(c, blk)] for c in components) for blk in range(self.n_blocks)
            )
            fractions[name] = passed_blocks / self.n_blocks
        return fractions

    def to_csv(self) -> str:
        lines = [_CSV_HEADER]
        for r in self.results:
            lines.append(f"{r.test},{r.block},{r.p_value!r},{int(r.passed)}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [
            f"block_size={self.block_size} n_blocks={self.n_blocks} "
            f"significance={self.significance:g}",
        ]
        for r in self.results:
            verdict = "pass" if r.passed else "FAIL"
            lines.append(f"{r.test} {r.block} {r.p_value:.6f} {verdict}")
        for name, frac in self.pass_fraction().items():
            lines.append(f"pass_fraction {name} {frac:.3f}")
        for name in NOT_RUN:
            lines.append(f"{name} not_run")
        return "\n".join(lines) + "\n"


def evaluate_block(block: np.ndarray) -> dict[str, float]:
    """All component p-values for one block of bits already checked by ``_as_bits``."""
    block = _Block(block, max(_SERIAL_M, _APPROXIMATE_ENTROPY_M + 1))
    p_serial_1, p_serial_2 = serial(block, _SERIAL_M)
    return {
        "monobit": frequency_monobit(block),
        "block_frequency": block_frequency(block, _BLOCK_FREQUENCY_LEN),
        "runs": runs(block),
        "longest_run": longest_run_of_ones(block),
        "cumulative_sums_forward": cumulative_sums(block, "forward"),
        "cumulative_sums_backward": cumulative_sums(block, "backward"),
        "approximate_entropy": approximate_entropy(block, _APPROXIMATE_ENTROPY_M),
        "serial_1": p_serial_1,
        "serial_2": p_serial_2,
    }


def run_battery(
    bits,
    block_size: int,
    significance: float = 0.01,
) -> TestReport:
    """Partition the input into consecutive blocks and run every test on each."""
    b = _as_bits(bits)
    if not 0.0 < significance < 1.0:
        raise ValueError(f"significance must lie in (0, 1), got {significance}")
    if block_size < 128:
        raise ValueError(f"block size must be at least 128, got {block_size}")
    n_blocks = len(b) // block_size
    if n_blocks < 1:
        raise InsufficientDataError(
            f"need at least one block of {block_size} bits, got {len(b)}"
        )
    results = []
    for blk in range(n_blocks):
        block = b[blk * block_size : (blk + 1) * block_size]
        for name, p in evaluate_block(block).items():
            results.append(TestResult(name, blk, p, p >= significance))
    return TestReport(block_size, n_blocks, significance, tuple(results))


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
        results[(test, block)] = TestResult(test, block, p_value, passed == "1")
    if not results:
        raise ValueError("battery report CSV holds no result rows")
    n_blocks = max(blk for _, blk in results) + 1
    for blk in range(n_blocks):
        for name in COMPONENTS:
            if (name, blk) not in results:
                raise ValueError(f"battery report CSV: no row for {name} block {blk}")
    return TestReport(0, n_blocks, 0.01, tuple(results.values()))
