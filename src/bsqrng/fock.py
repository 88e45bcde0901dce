"""Exact photon-number statistics at the outputs of a symmetric beam splitter.

Weak coherent inputs with uniformly random phases are diagonal in photon
number, so everything reduces to Poisson-weighted Fock-state transforms.
The interfering splitter's transform is built once per input photon total t:
row m of a (t+1) x (t+1) array is the output law of the input (m, t - m),
taken from exact integer Krawtchouk coefficients, so it stays unitary at any
total. Without interference every input of total t has one binomial law.
A source is its interference weight w in [0, 1], the interfering law's share
of its output law: two indistinguishable weak coherent states have w = 1, two
mutually distinguishable ones or a single one plus vacuum (one law) w = 0,
and a partial mixture any w between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .special import poisson_cdf

_LN2 = math.log(2.0)

#: Largest photon total of any Fock object here: the input total of
#: ``bs_output_amplitudes``, the truncation bound of
#: ``output_joint_distribution`` and the simulator's splitter tables alike.
#: It bounds cost, not precision: the exact Krawtchouk rows are built total by
#: total from big integers, and the splitter tables take about total^3 / 4
#: floats per branch. A mean is refused up front when its truncation bound
#: passes its share of the cap (``_capped_bound``): the whole cap for an
#: analytic table or a single arm, half of it for each arm of a pair. At the
#: default tail that is from mu_eff about 210.29 in the analytic tables; on a
#: 0.25 grid the simulator refuses from mu 149.75 for a single arm and 116.75
#: for a pair.
MAX_TABLE_TOTAL = 256


@dataclass(frozen=True)
class SourceModel:
    """Which input illuminates the splitter: its interference weight and label.

    ``overlap`` is the weight w in [0, 1] of the interfering component, for
    every source: ``indist`` is w = 1, ``dist`` and ``single`` are w = 0, and
    ``mix:<w>`` is w itself. ``label`` is the printed form, which
    ``from_label`` parses back; the one computation that reads it is the
    simulator's one-arm draw for ``single``.
    """

    overlap: float
    label: str

    def __post_init__(self):
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError(f"overlap must lie in [0, 1], got {self.overlap}")

    @classmethod
    def single(cls) -> "SourceModel":
        return cls(0.0, "single")

    @classmethod
    def indistinguishable_pair(cls) -> "SourceModel":
        return cls(1.0, "indist")

    @classmethod
    def distinguishable_pair(cls) -> "SourceModel":
        return cls(0.0, "dist")

    @classmethod
    def partial_mixture(cls, overlap: float) -> "SourceModel":
        # The short form where it parses back to w exactly, else every digit.
        text = f"{overlap:g}" if float(f"{overlap:g}") == overlap else repr(float(overlap))
        return cls(overlap, f"mix:{text}")

    @classmethod
    def from_label(cls, label: str) -> "SourceModel":
        """Parse ``single``, ``indist``, ``dist`` or ``mix:<overlap>``."""
        for named in (cls.single(), cls.indistinguishable_pair(), cls.distinguishable_pair()):
            if label == named.label:
                return named
        if label.startswith("mix:"):
            try:
                overlap = float(label[4:])
            except ValueError:
                pass
            else:
                return cls.partial_mixture(overlap)
        raise ValueError(
            f"unknown source {label!r}; expected single, indist, dist or mix:<overlap>"
        )


@dataclass(frozen=True)
class TruncationPolicy:
    """Fock-space truncation rule: drop at most ``tail_mass`` probability.

    ``truncation_bound`` applies it to every Poisson law the package cuts, in
    the analytic tables and the simulator's arm tables alike (tail <= 1e-3).
    """

    tail_mass: float = 1e-3

    def __post_init__(self):
        if not 0.0 < self.tail_mass <= 1e-3:
            raise ValueError(f"tail_mass must lie in (0, 0.001], got {self.tail_mass}")


DEFAULT_TRUNCATION = TruncationPolicy()


@dataclass(frozen=True)
class JointPhotonDistribution:
    """Probability table over output photon-number pairs.

    ``probs[m, n]`` is the read-only probability of m photons in the first
    output mode and n in the second; it is 0 where m + n exceeds the
    truncation bound, so ``len(probs)`` is the bound plus one. Its entries
    sum to at least 1 - tail_mass of the policy that cut them.
    """

    probs: np.ndarray

    def __post_init__(self):
        inside = (self.probs >= -1e-12) & (self.probs <= 1.0 + 1e-12)
        if not inside.all():
            m, n = np.argwhere(~inside)[0]
            raise ValueError(f"probability out of range at ({m}, {n}): {self.probs[m, n]}")


def truncation_bound(mu: float, policy: TruncationPolicy = DEFAULT_TRUNCATION) -> int:
    """Smallest k with Poisson(mu) CDF at k >= 1 - tail_mass.

    The scan starts where the pmf falls below 16 tail_mass after the mode: a
    walk from floor(mu) - 1 (at least 0) steps up while pmf(k + 1), from its
    lgamma log, is at least 16 tail_mass. No j below that start can pass, so
    the answer is the one a scan from 0 finds. If the walk stepped, pmf(start)
    passed, so P(X <= j) <= 1 - pmf(start) <= 1 - 16 tail_mass, and
    ``poisson_cdf`` is off by a few ulps only. If it did not, the start is
    floor(mu) - 1, and below it the CDF is at most 1/2, as the Poisson median
    is at least mu - ln 2.
    """
    if mu <= 0.0:
        raise ValueError(f"mean photon number must be positive, got {mu}")
    if not math.isfinite(mu):
        raise ValueError(f"mean photon number must be finite, got {mu}")
    level = math.log(16.0 * policy.tail_mass)
    log_mu = math.log(mu)
    k = max(0, math.floor(mu) - 1)
    while -mu + (k + 1) * log_mu - math.lgamma(k + 2) >= level:
        k += 1
    target = 1.0 - policy.tail_mass
    while poisson_cdf(k, mu) < target:
        k += 1
    return k


def _capped_bound(mu: float, policy: TruncationPolicy, cap: int) -> int | None:
    """``truncation_bound(mu, policy)`` if it is at most ``cap``, else None.

    A mean past the cap is refused without the walk: the Poisson CDF at the
    cap is then about 1/2, far below 1 - tail_mass, so the bound lies past the
    cap too.
    """
    if cap < mu < math.inf:
        return None
    bound = truncation_bound(mu, policy)
    return bound if bound <= cap else None


@lru_cache(maxsize=None)
def _log_factorials(n: int) -> np.ndarray:
    return np.array([math.lgamma(i + 1) for i in range(n + 1)])


_krawtchouk_last: list[tuple[int, np.ndarray]] = []  # the last total built


def _krawtchouk_rows(total: int) -> np.ndarray:
    """Integer splitter coefficients of one input total, as Python ints.

    Entry [m, M] is the x^M coefficient K of (1 - x)^m (1 + x)^(total - m),
    the Krawtchouk polynomial of the splitter's Fock transform (Campos, Saleh
    & Teich, Phys. Rev. A 40, 1371, 1989). Row 0 is (1 + x) times row 0 of
    the total below and row m >= 1 is (1 - x) times its row m - 1. Only the
    last total is kept, as callers walk totals upwards; a new total is built
    in a loop from it, or from total 0 when it lies above the one asked for.
    """
    if _krawtchouk_last and _krawtchouk_last[0][0] <= total:
        t, rows = _krawtchouk_last[0]
    else:
        t, rows = 0, np.ones((1, 1), dtype=object)
    while t < total:
        t, below = t + 1, rows
        rows = np.zeros((t + 1, t + 1), dtype=object)
        rows[0, :-1] = below[0]
        rows[0, 1:] += below[0]
        rows[1:, :-1] = below
        rows[1:, 1:] -= below
    _krawtchouk_last[:] = [(t, rows)]
    return rows


# Same interface as the lru_cache'd functions, so a cold start clears it too.
_krawtchouk_rows.cache_clear = _krawtchouk_last.clear


# Largest total whose Krawtchouk products fit int64 exactly.
_INT64_TOTAL = 62


@lru_cache(maxsize=None)
def _interfering_rows(total: int) -> np.ndarray:
    """Interfering splitter rows of one input total, read-only.

    Row m is the output law p[m, M], M = 0..total, of the input
    (m, total - m): |<M, total - M|m, total - m>|^2 =
    C(total, m) K^2 / (C(total, M) 2^total). By the duality
    C(total, m) K[m, M] = C(total, M) K[M, m] that is K[m, M] K[M, m] / 2^total,
    and one int-by-int true division rounds it correctly. Up to total 62 the
    product is taken in int64: |K| and |K[m, M] K[M, m]| = p 2^total are at
    most 2^total < 2^63, the conversion to float rounds once and the division
    by a power of two is exact, which is the same correctly rounded quotient.
    """
    k = _krawtchouk_rows(total)
    if total <= _INT64_TOTAL:
        k = k.astype(np.int64)
        rows = (k * k.T) / float(1 << total)
    else:
        rows = ((k * k.T) / (1 << total)).astype(float)
    rows.setflags(write=False)
    return rows


def _binomial_row(total: int) -> np.ndarray:
    """Output law of any input of ``total`` photons without interference.

    Each photon takes either output with probability 1/2 on its own, so the
    first output holds Binomial(total, 1/2) photons whatever the input split
    (Vandermonde's identity). This is the law of mutually distinguishable
    inputs; from two Poisson(mu/2) arms it gives two such output modes.
    """
    return np.array([math.comb(total, M) / (1 << total) for M in range(total + 1)])


def bs_output_amplitudes(input_pair: tuple[int, int]) -> np.ndarray:
    """Beam-splitter transform of one Fock input (m, n).

    Entry M of the returned complex array is the amplitude of the output ket
    (M, m + n - M), for M = 0..m+n; interference nulls are exactly zero. With
    a -> (c + j d)/sqrt(2), b -> (j c + d)/sqrt(2) it is j^(M+m) sign(K) sqrt(p).
    """
    m, n = input_pair
    if m < 0 or n < 0:
        raise ValueError(f"photon counts must be non-negative, got {(m, n)}")
    total = m + n
    if total > MAX_TABLE_TOTAL:
        raise OverflowError(
            f"input total {total} exceeds the supported bound {MAX_TABLE_TOTAL}"
        )
    phase = np.array([1.0, 1.0j, -1.0, -1.0j])[(np.arange(total + 1) + m) % 4]
    sign = np.sign(_krawtchouk_rows(total)[m]).astype(float)
    return phase * sign * np.sqrt(_interfering_rows(total)[m])


def output_joint_distribution(
    source: SourceModel,
    mu_eff: float,
    policy: TruncationPolicy = DEFAULT_TRUNCATION,
) -> JointPhotonDistribution:
    """Joint output photon-number distribution for a source at mean ``mu_eff``.

    The interfering pair (w = 1) sums the squared splitter amplitudes over
    all Fock inputs, weighted by their Poisson probabilities; photon-number
    conservation restricts each output total to its input total. Without
    interference (w = 0) every photon total routes binomially
    (``_binomial_row``), which leaves two independent Poisson(mu_eff/2) output
    modes: the arm weights themselves. Any other w combines the two convexly.
    A mean whose bound exceeds ``MAX_TABLE_TOTAL`` is refused with an
    ``OverflowError`` before any table is built.
    """
    bound = _capped_bound(mu_eff, policy, MAX_TABLE_TOTAL)
    if bound is None:
        raise OverflowError(
            f"mean photon number {mu_eff:g} needs Fock tables above photon total "
            f"{MAX_TABLE_TOTAL}, the cap (fock.MAX_TABLE_TOTAL)"
        )
    w = source.overlap
    if w == 0.0:
        return JointPhotonDistribution(_arm_weights(mu_eff, bound))
    probs = _interfering_table(mu_eff, bound)
    if w < 1.0:
        probs = w * probs + (1.0 - w) * _arm_weights(mu_eff, bound)
        probs.setflags(write=False)
    return JointPhotonDistribution(probs)


# One sweep point asks for the same (mu, bound) from up to four sources in a
# row, at the one default bound. One entry serves them all and keeps nothing
# from the points before.
@lru_cache(maxsize=1)
def _arm_weights(mu: float, bound: int) -> np.ndarray:
    """Joint probability of (m, n) photons in the two input arms, m + n <= bound.

    The product of two independent Poisson(mu/2) laws,
    exp(-mu) mu^(m+n) / (m! n! 2^(m+n)), taken in log space; ``math.exp``
    per element keeps each value equal to its scalar evaluation. Memoized per
    (mu, bound), last one kept, and read-only, since callers share the array.
    """
    lf = _log_factorials(bound)
    k = np.arange(bound + 1)
    total = k[:, None] + k[None, :]
    log_w = -mu + total * (math.log(mu) - _LN2) - lf[:, None] - lf[None, :]
    inside = total <= bound
    weights = np.zeros((bound + 1, bound + 1))
    weights[inside] = np.fromiter(map(math.exp, log_w[inside].tolist()), float)
    weights.setflags(write=False)
    return weights


@lru_cache(maxsize=1)
def _interfering_table(mu: float, bound: int) -> np.ndarray:
    """The interfering pair's output table: ``_arm_weights`` through the splitter.

    Memoized like ``_arm_weights`` (per (mu, bound), last one kept, read-only),
    so the indistinguishable pair and a mixture at one point share one build.
    """
    table = _transformed(_arm_weights(mu, bound))
    table.setflags(write=False)
    return table


def _transformed(weights: np.ndarray) -> np.ndarray:
    """Output table of inputs weighted by ``weights`` through the interfering splitter.

    Photon number is conserved, so each input total t fills the output
    anti-diagonal m + n = t with the weighted sum of ``_interfering_rows(t)``.
    In a raveled table of side B + 1 that anti-diagonal is the slice
    [t : t B + t + 1 : B], m = 0..t in order.
    """
    out = np.zeros(weights.shape)
    flat_out, flat_w = out.reshape(-1), weights.reshape(-1)
    step = max(len(weights) - 1, 1)  # side 1 holds total 0 alone
    for t in range(len(weights)):
        diagonal = slice(t, t * step + t + 1, step)
        flat_out[diagonal] = (flat_w[diagonal][:, None] * _interfering_rows(t)).sum(axis=0)
    return out
