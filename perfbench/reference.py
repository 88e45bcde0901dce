"""Per-gate outcome probabilities of the splitter QRNG, computed apart from bsqrng.

A phase-randomised coherent state is a Poisson mixture of Fock states, so a
pair of them is the phase average of two coherent states. With relative phase
delta the splitter outputs are again coherent states, with means
(mu/2)(1 + v cos delta) and (mu/2)(1 - v cos delta); v = 1 for the
indistinguishable pair and v = 0 when nothing interferes (a single source
beside vacuum, or a distinguishable pair). A threshold detector of efficiency
eta misses a coherent state of mean m with probability exp(-eta m), and the
two outputs are independent for fixed delta. The average over a uniform delta
is a periodic analytic integrand, so the trapezoid rule converges
exponentially in the number of points. No photon-number truncation is needed.
"""

from __future__ import annotations

import math

import numpy as np

QUADRATURE_POINTS = 256
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _pair(mu: float, eta0: float, eta1: float, visibility: float,
          points: int = QUADRATURE_POINTS) -> dict[str, float]:
    delta = 2.0 * math.pi * np.arange(points) / points
    swing = visibility * np.cos(delta)
    a = eta0 * 0.5 * mu * (1.0 + swing)
    b = eta1 * 0.5 * mu * (1.0 - swing)
    click0, click1 = -np.expm1(-a), -np.expm1(-b)
    miss0, miss1 = np.exp(-a), np.exp(-b)
    bit0 = float(np.mean(click0 * miss1))
    bit1 = float(np.mean(miss0 * click1))
    return {
        "p_bit0": bit0,
        "p_bit1": bit1,
        "p_gen": bit0 + bit1,
        "p_disc": float(np.mean(click0 * click1)),
        "p_none": float(np.mean(miss0 * miss1)),
    }


def outcome_probabilities(source: str, mu: float, eta0: float = 1.0,
                          eta1: float = 1.0) -> dict[str, float]:
    """Probabilities of bit 0, bit 1, a valid bit, a collision and no click.

    ``source`` is a bsqrng source label: single, indist, dist or mix:<w>.
    """
    if source == "indist":
        return _pair(mu, eta0, eta1, 1.0)
    if source in ("single", "dist"):
        return _pair(mu, eta0, eta1, 0.0)
    if source.startswith("mix:"):
        w = float(source[4:])
        coherent = _pair(mu, eta0, eta1, 1.0)
        routed = _pair(mu, eta0, eta1, 0.0)
        return {k: w * coherent[k] + (1.0 - w) * routed[k] for k in coherent}
    raise ValueError(f"unknown source {source!r}")


def poisson_closed_form(mu: float, eta0: float, eta1: float) -> dict[str, float]:
    """Independent Poisson(eta_i mu / 2) output modes, in closed form."""
    miss0, miss1 = math.exp(-eta0 * mu / 2.0), math.exp(-eta1 * mu / 2.0)
    bit0, bit1 = (1.0 - miss0) * miss1, miss0 * (1.0 - miss1)
    return {
        "p_bit0": bit0,
        "p_bit1": bit1,
        "p_gen": bit0 + bit1,
        "p_disc": (1.0 - miss0) * (1.0 - miss1),
        "p_none": miss0 * miss1,
    }


def coincidence_contrast(mu: float) -> float:
    """1 - P(both click | indistinguishable) / P(both click | distinguishable)."""
    return 1.0 - _pair(mu, 1.0, 1.0, 1.0)["p_disc"] / _pair(mu, 1.0, 1.0, 0.0)["p_disc"]


def optimum(source: str, lo: float = 0.2, hi: float = 6.0,
            tol: float = 1e-9) -> tuple[float, float]:
    """Golden-section maximum of p_gen over mu with ideal detectors."""
    def p_gen(mu: float) -> float:
        return outcome_probabilities(source, mu)["p_gen"]

    a, b = lo, hi
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = p_gen(c), p_gen(d)
    while b - a > tol:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = p_gen(d)
        else:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = p_gen(c)
    best = (a + b) / 2.0
    return best, p_gen(best)


def self_check() -> list[tuple[str, bool, str]]:
    """The quadrature against closed forms it must reproduce."""
    results = []
    worst = 0.0
    for mu, eta0, eta1 in ((2.1, 1.0, 1.0), (8.0, 0.6, 0.5), (20.0, 1.0, 1.0)):
        quad = _pair(mu, eta0, eta1, 0.0)
        exact = poisson_closed_form(mu, eta0, eta1)
        worst = max(worst, max(abs(quad[k] - exact[k]) for k in exact))
    results.append(("reference: no-interference quadrature equals Poisson closed form",
                    worst <= 1e-15, f"max |diff| {worst:.2e}"))
    # mean of exp(x cos delta) over a period is the Bessel function I0(x).
    delta = 2.0 * math.pi * np.arange(QUADRATURE_POINTS) / QUADRATURE_POINTS
    rel = max(abs(float(np.mean(np.exp(x * np.cos(delta)))) / float(np.i0(x)) - 1.0)
              for x in (1.05, 4.0, 10.0))
    results.append(("reference: quadrature reproduces I0", rel <= 1e-13,
                    f"max rel diff {rel:.2e}"))
    half = max(abs(_pair(20.0, 1.0, 1.0, 1.0, QUADRATURE_POINTS // 2)[k]
                   - _pair(20.0, 1.0, 1.0, 1.0)[k]) for k in ("p_gen", "p_disc", "p_none"))
    results.append(("reference: quadrature converged at mu=20", half <= 1e-14,
                    f"|N/2 - N| {half:.2e}"))
    mu_star, p_star = optimum("single")
    ok = abs(mu_star - 2.0 * math.log(2.0)) <= 1e-6 and abs(p_star - 0.5) <= 1e-12
    results.append(("reference: single-source optimum is 0.5 at 2 ln 2", ok,
                    f"mu*={mu_star:.9f} p*={p_star:.12f}"))
    return results
