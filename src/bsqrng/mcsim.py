"""Seeded Monte Carlo emulation of the gated generator.

Each detection gate draws input photon numbers, routes them through the
splitter, applies threshold detection and classifies the gate as bit 0,
bit 1, a discarded collision, or no click.

Randomness comes from the raw words of a counter-based Philox4x64-10 stream
keyed by the seed. Gate g owns the eight 64-bit words of the output blocks at
counter values 2g + 1 and 2g + 2, so its draws are a pure function of (seed,
g): a run can be simulated in chunks of gates and still reproduce the serial
outcome sequence bit for bit. Words 0 to 5 are read as the first arm's photon
number, the second arm's, the mixture branch (only for an interference weight
w strictly between 0 and 1), the splitter outcome and the bit-0 and bit-1
clicks; words 6 and 7 are unused. A word is read as the 53-bit draw
x = word >> 11, which stands for u = x * 2**-53, and every test on it is an
exact integer comparison: u < p exactly when x < ceil(p * 2**53) (a click, or
the interfering branch at p = w), and an inverse-CDF lookup returns the number
of entries c of its row with ceil(c * 2**53) <= x.
A splitter row of input total t holds 1.0 from entry t on, so its lookup
stops at the row's own total wherever the row's cumsum ends.
``run`` shares the chunks between the calling thread and one worker thread,
each drawing and classifying whole chunks; no output byte depends on which
thread takes which chunk.
This internal generator is simulation plumbing only; the randomness being
modeled is the physics.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .detection import DetectorPair
from .fock import (
    MAX_TABLE_TOTAL,
    SourceModel,
    TruncationPolicy,
    _binomial_row,
    _capped_bound,
    _interfering_rows,
)

_WORDS_PER_GATE = 8  # two Philox blocks of four 64-bit outputs each
_BLOCKS_PER_GATE = 2
# A draw is the top 53 bits of a word, x = w >> 11, standing for x * 2**-53.
_DRAW_BITS = 53
_INT64_MAX = np.iinfo(np.int64).max

# Word slot assignment within a gate.
_SLOT_ARM_A = 0
_SLOT_ARM_B = 1
_SLOT_BRANCH = 2
_SLOT_SPLITTER = 3
_SLOT_CLICK0 = 4
_SLOT_CLICK1 = 5

# Each arm table keeps all but this much of its Poisson law.
_ARM_TAIL = 1e-15
# Budget of guide entries, rows times buckets: a one-row arm table gets 2**12
# buckets (32 KB), and a splitter table of hundreds of rows keeps the bucket
# count of its width rule.
_GUIDE_ENTRIES = 1 << 12


class Outcome(IntEnum):
    """Per-gate classification; values are the codes of a run's outcome array."""

    NONE = 0x00
    BIT0 = 0x01
    BIT1 = 0x02
    COLLISION = 0x03


@dataclass(frozen=True)
class SimConfig:
    seed: int
    n_gates: int
    mu: float
    source: SourceModel
    detectors: DetectorPair = DetectorPair()
    gate_rate: float = 100_000.0  # gates per second, metadata only

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit value, got {self.seed}")
        if self.n_gates < 1:
            raise ValueError(f"n_gates must be at least 1, got {self.n_gates}")
        if not 0.0 < self.mu < math.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if not 0.0 < self.gate_rate < math.inf:
            raise ValueError(f"gate_rate must be positive and finite, got {self.gate_rate}")


@dataclass(frozen=True)
class EventTally:
    """Outcome counts of a run plus empirical rates with binomial errors."""

    n_gates: int
    bit0: int
    bit1: int
    collision: int
    none: int

    def __post_init__(self):
        if self.bit0 + self.bit1 + self.collision + self.none != self.n_gates:
            raise ValueError("outcome counts must sum to n_gates")

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> "EventTally":
        """The tally of per-code counts, indexed by ``Outcome``."""
        return cls(
            n_gates=int(counts.sum()),
            bit0=int(counts[Outcome.BIT0]),
            bit1=int(counts[Outcome.BIT1]),
            collision=int(counts[Outcome.COLLISION]),
            none=int(counts[Outcome.NONE]),
        )

    @property
    def p_gen(self) -> float:
        return (self.bit0 + self.bit1) / self.n_gates

    @property
    def p_disc(self) -> float:
        return self.collision / self.n_gates

    def p_gen_stderr(self) -> float:
        return math.sqrt(self.p_gen * (1.0 - self.p_gen) / self.n_gates)

    def p_disc_stderr(self) -> float:
        return math.sqrt(self.p_disc * (1.0 - self.p_disc) / self.n_gates)

    def summary(self) -> dict[str, str]:
        """The counts and rates as formatted key=value fields, in report order."""
        return {
            "n_gates": str(self.n_gates),
            "bit0": str(self.bit0),
            "bit1": str(self.bit1),
            "collision": str(self.collision),
            "none": str(self.none),
            "p_gen": f"{self.p_gen:.9g}",
            "p_gen_stderr": f"{self.p_gen_stderr():.9g}",
            "p_disc": f"{self.p_disc:.9g}",
            "p_disc_stderr": f"{self.p_disc_stderr():.9g}",
        }


def gate_uniforms(seed: int, start: int, stop: int) -> np.ndarray:
    """Raw uint64 words of gates [start, stop), shape (stop-start, 8).

    Row i holds the words of gate g = start+i: the eight 64-bit words of the
    Philox4x64-10 output blocks at counter values 2g + 1 and 2g + 2 (the
    generator advances its counter before each block). The mapping depends
    only on (seed, index); ``tests/test_philox.py`` pins it against an
    independent Philox.
    """
    n = stop - start
    bitgen = np.random.Philox(key=seed, counter=start * _BLOCKS_PER_GATE)
    return bitgen.random_raw(n * _WORDS_PER_GATE).reshape(n, _WORDS_PER_GATE)


# The worker thread of ``run`` draws through this binding, which tools that
# replace the module's ``gate_uniforms`` (a tracer's span wrapper, say) leave
# alone: only the calling thread goes through that name.
_worker_gate_uniforms = gate_uniforms


def _thresholds(p: np.ndarray | float) -> np.ndarray:
    """ceil(p * 2**53) as int64: a draw x stands for u < p exactly when x < it."""
    scaled = np.array(p, dtype=np.float64)
    scaled *= 2.0**_DRAW_BITS
    return np.ceil(scaled, out=scaled).astype(np.int64)


class _GuideTable:
    """Exact inverse-CDF lookup over the rows of a CDF table, on 53-bit draws.

    Indexed search (Chen & Asau 1974; Devroye 1986, section III.2.4) in the
    integer domain. Each entry c is kept as its threshold ceil(c * 2**53),
    which is <= a draw x exactly when c <= u = x * 2**-53. ``guide[r, b]``
    counts the entries of row r that are <= b/G, for G the largest power of
    two with n_rows * G <= 2**12, raised to the least power of two >= 2 * width
    if that is more. A lookup starts there, at bucket b = x >> (53 - log2 G),
    which is floor(u * G), and steps over the few entries still <= u. So
    ``lookup`` equals ``min(searchsorted(row, u, "right"), width - 1)`` for
    every x in [0, 2**53). That needs only that the entries <= u form a
    prefix of the row, which holds for a cumsum padded with 1.0 whether it
    ends just above or below 1.
    """

    def __init__(self, cdf_rows: np.ndarray):
        n_rows, width = cdf_rows.shape
        self.width = width
        self.n_buckets = 1 << (2 * width - 1).bit_length()
        while 2 * n_rows * self.n_buckets <= _GUIDE_ENTRIES:
            self.n_buckets *= 2
        self._shift = _DRAW_BITS - (self.n_buckets.bit_length() - 1)
        # The largest threshold in the last column stops every scan at
        # width - 1, the clamp.
        table = _thresholds(cdf_rows)
        table[:, -1] = _INT64_MAX
        self._flat = table.ravel()
        # Entry j of a row is <= b/G exactly when ceil(threshold / 2**shift) <= b;
        # the ceiling is a floor shift of the negated table, taken in place.
        n_bins = self.n_buckets + 1
        buckets = np.negative(table)
        buckets >>= self._shift
        np.negative(buckets, out=buckets)
        np.minimum(buckets, self.n_buckets, out=buckets)
        buckets += n_bins * np.arange(n_rows)[:, None]
        hist = np.bincount(buckets.ravel(), minlength=n_rows * n_bins)
        counts = np.cumsum(hist.reshape(n_rows, n_bins)[:, :-1], axis=1)
        # Flat position of the first entry of row r that is > b/G.
        self._guide = (counts + width * np.arange(n_rows)[:, None]).ravel()

    def lookup(self, x: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Column index per draw: entries of its row (default row 0) <= x * 2**-53, capped."""
        bucket = x >> self._shift
        if rows is not None:
            bucket += rows * self.n_buckets
        pos = self._guide.take(bucket)
        active = np.flatnonzero(self._flat.take(pos) <= x)
        while active.size:
            pos[active] += 1
            active = active[self._flat.take(pos[active]) <= x[active]]
        if rows is not None:
            pos -= rows * self.width
        return pos


class _SamplerTables:
    """Precomputed inverse-CDF tables for one configuration.

    Splitter CDF rows are laid out per law, for the laws the interference
    weight w uses: interfering when w > 0, routed when w < 1. The interfering
    law has one row per input pair (m, n), at row m * stride + n with stride
    B + 1 for arm totals up to A and B. The routed law depends on the total
    t = m + n alone, so it has one row per total, at row routed_offset + t,
    below any interfering rows. A row of total t holds its cumsum in entries
    0..t-1 and 1.0 from t on, so a lookup stops at t. The tables are built
    once per run and amortize over millions of gates.
    """

    def __init__(self, cfg: SimConfig):
        # The one place the label changes seeded bytes: one arm of mean mu for
        # ``single``, two of mu / 2 otherwise. ROADMAP direction 8 removes it.
        single = cfg.source.label == "single"
        mean = cfg.mu if single else cfg.mu / 2.0
        # An arm's table stops at its truncation bound, which must fit in the
        # arm's share of the cap, by the rule of output_joint_distribution.
        cap_arm = MAX_TABLE_TOTAL if single else MAX_TABLE_TOTAL // 2
        max_arm_a = _capped_bound(mean, TruncationPolicy(_ARM_TAIL), cap_arm)
        if max_arm_a is None:
            raise OverflowError(
                f"mu {cfg.mu:g} needs splitter tables above photon total "
                f"{MAX_TABLE_TOTAL}, the cap (fock.MAX_TABLE_TOTAL)"
            )
        max_arm_b = 0 if single else max_arm_a
        terms = [math.exp(-mean)]
        for k in range(1, max_arm_a + 1):
            terms.append(terms[-1] * mean / k)
        self.arm_a = _GuideTable(np.cumsum(terms)[None, :])
        self.arm_b = None if single else self.arm_a

        width = max_arm_a + max_arm_b + 1
        interfering = cfg.source.overlap > 0.0
        routing = cfg.source.overlap < 1.0
        # Row of input (m, n) in the first law laid out: m * stride + n.
        self.stride = max_arm_b + 1 if interfering else 1
        self.routed_offset = (max_arm_a + 1) * self.stride if interfering else 0
        cdf = np.ones((self.routed_offset + (width if routing else 0), width))
        for t in range(width):
            if interfering:
                m = np.arange(max(0, t - max_arm_b), min(t, max_arm_a) + 1)
                rows = _interfering_rows(t)[m, :t]
                cdf[m * self.stride + t - m, :t] = np.cumsum(rows, axis=1)
            if routing:
                cdf[self.routed_offset + t, :t] = np.cumsum(_binomial_row(t)[:t])
        self.splitter = _GuideTable(cdf)

        # Per photon number in a mode, draws below its threshold click.
        self.click0, self.click1 = map(_thresholds, cfg.detectors.click_probabilities(width))
        # Draws at or above this threshold take the routed branch of a mixture.
        self.routed = int(_thresholds(cfg.source.overlap))


def _classify(cfg: SimConfig, words: np.ndarray, tables: _SamplerTables) -> np.ndarray:
    """Outcome codes of the gates whose raw words are the rows of ``words``."""
    # Row s of x holds every gate's draw from word slot s, contiguous.
    slots = words[:, : _SLOT_CLICK1 + 1].T
    x = np.right_shift(slots, 64 - _DRAW_BITS, order="C").view(np.int64)
    if tables.arm_b is None:
        m = tables.arm_a.lookup(x[_SLOT_ARM_A])
        rows = m * tables.stride
        total = m
    else:
        # Both arms read one table: look the two slots up in one pass.
        arms = tables.arm_a.lookup(x[_SLOT_ARM_A : _SLOT_ARM_B + 1].reshape(-1))
        m, n = arms.reshape(2, -1)
        rows = m * tables.stride
        rows += n
        total = m + n
    if 0.0 < cfg.source.overlap < 1.0:
        # A routed gate reads the row of its total below the interfering rows.
        routed = x[_SLOT_BRANCH] >= tables.routed
        np.copyto(rows, total + tables.routed_offset, where=routed)
    out_m = tables.splitter.lookup(x[_SLOT_SPLITTER], rows)
    out_n = np.subtract(total, out_m, out=total)

    click0 = x[_SLOT_CLICK0] < tables.click0[out_m]
    click1 = x[_SLOT_CLICK1] < tables.click1[out_n]
    # Outcome codes are exactly click0 + 2 * click1.
    codes = click1.view(np.uint8) << 1
    codes |= click0.view(np.uint8)
    return codes


# A chunk's words take 0.5 MB at 2**13 gates. Each of run's two threads holds
# one chunk's words and temporaries at a time. On a 2-CPU x86 box, four
# alternating untraced 6 s perfbench runs per size of the generate workloads
# (2**21 gates) gave median wall_s of 0.177, 0.129 and 0.122 s at 2**12, 2**13
# and 2**14 gates per chunk for optimum-pipeline, and 0.198, 0.158 and 0.138 s
# for bright-mixture; 2**14 raised their median peak RSS by 3.3 and 2.4 MB
# over 2**13 (42.6 and 45.1 MB), so 2**13 stays.
DEFAULT_CHUNK_GATES = 1 << 13
# The outcome array takes one byte per gate: 256 MB at the limit.
MAX_GATES = 1 << 28


def run(
    cfg: SimConfig, *, chunk_gates: int = DEFAULT_CHUNK_GATES
) -> tuple[EventTally, np.ndarray]:
    """Simulate all gates of ``cfg``.

    Returns the tally and the per-gate outcome array (one code per gate,
    indexed by gate). Runs longer than ``MAX_GATES`` are refused with an
    ``OverflowError``, and a ``chunk_gates`` below 1 with a ``ValueError``,
    before anything is allocated.

    The gates are taken in chunks of ``chunk_gates``, shared by two threads:
    the calling thread and one worker. Each takes the next chunk from one
    shared sequence, draws its words, classifies them, writes its codes and
    adds them to its own counts; the two counts are added at the end. Philox
    and many of the sampler's numpy loops release the GIL, so the two threads
    overlap. A chunk's codes depend only on its words, so no output byte
    depends on which thread takes which chunk. The caller draws through the
    module's ``gate_uniforms`` and the worker through a binding made at
    import, so a wrapper installed on that name runs on the caller alone.
    An error in either thread, ``BaseException`` included, stops the other
    at its next chunk and is raised from ``run``; the worker is joined
    before ``run`` returns or raises.
    """
    if chunk_gates < 1:
        raise ValueError(f"chunk_gates must be at least 1, got {chunk_gates}")
    if cfg.n_gates > MAX_GATES:
        raise OverflowError(
            f"{cfg.n_gates} gates exceed the limit of {MAX_GATES} gates per run"
        )
    tables = _SamplerTables(cfg)
    outcomes = np.empty(cfg.n_gates, dtype=np.uint8)
    counts = np.zeros((2, len(Outcome)), dtype=np.int64)
    # Taking the next start is one C call under the GIL, so no chunk is taken
    # twice.
    starts = iter(range(0, cfg.n_gates, chunk_gates))
    halt = threading.Event()
    worker_errors: list[BaseException] = []

    def simulate(draw, tally: np.ndarray) -> None:
        for lo in starts:
            hi = min(lo + chunk_gates, cfg.n_gates)
            words = draw(cfg.seed, lo, hi)
            # Checked after the draw, which releases the GIL, so that an error
            # raised meanwhile by the other thread stops this one here.
            if halt.is_set():
                return
            codes = _classify(cfg, words, tables)
            outcomes[lo:hi] = codes
            tally += np.bincount(codes, minlength=len(Outcome))

    def work() -> None:
        try:
            simulate(_worker_gate_uniforms, counts[1])
        except BaseException as exc:
            halt.set()
            worker_errors.append(exc)

    worker = threading.Thread(target=work, name="mcsim-worker")
    worker.start()
    try:
        simulate(gate_uniforms, counts[0])
    except BaseException:
        halt.set()
        raise
    finally:
        worker.join()
    if worker_errors:
        raise worker_errors[0]
    return EventTally.from_counts(counts.sum(axis=0)), outcomes
