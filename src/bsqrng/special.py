"""Scalar special functions used by the statistical tests and photon statistics.

Self-contained double-precision implementations: the complementary error
function, the regularized upper incomplete gamma function, the normal CDF
and the Poisson CDF. Accuracy is a few ulps over the ranges exercised here; the test
suite pins 1e-10 relative agreement against an independent reference.
"""

from __future__ import annotations

import math

_SQRT_PI = math.sqrt(math.pi)
_MAX_ITER = 500
_EPS = 1e-17
_TINY = 1e-300


def erfc(x: float) -> float:
    """Complementary error function 1 - erf(x).

    Series expansion of erf below |x| = 2, Lentz continued fraction above.
    """
    if math.isnan(x):
        return math.nan
    if x < 0.0:
        return 2.0 - erfc(-x)
    if x < 2.0:
        return 1.0 - _erf_series(x)
    if x > 27.0:
        # erfc(27) < 5e-319: below double underflow
        return 0.0
    return _erfc_continued_fraction(x)


def _erf_series(x: float) -> float:
    # erf(x) = 2x e^{-x^2}/sqrt(pi) * sum_k (2x^2)^k / (1*3*...*(2k+1));
    # all terms positive, no cancellation.
    if x == 0.0:
        return 0.0
    t = 2.0 * x * x
    term = 1.0
    total = 1.0
    for k in range(1, _MAX_ITER):
        term *= t / (2 * k + 1)
        total += term
        if term < total * _EPS:
            break
    return 2.0 * x * math.exp(-x * x) * total / _SQRT_PI


def _erfc_continued_fraction(x: float) -> float:
    # sqrt(pi) e^{x^2} erfc(x) = 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    f = x
    c = x
    d = 0.0
    for k in range(1, _MAX_ITER):
        a = 0.5 * k
        d = x + a * d
        if d == 0.0:
            d = _TINY
        c = x + a / c
        if c == 0.0:
            c = _TINY
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return math.exp(-x * x) / (f * _SQRT_PI)


def gammainc_upper(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    _check_gamma_args(a, x)
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_series(a, x)
    return _gamma_continued_fraction(a, x)


def _check_gamma_args(a: float, x: float) -> None:
    if a <= 0.0:
        raise ValueError(f"shape parameter must be positive, got {a}")
    if x < 0.0:
        raise ValueError(f"argument must be non-negative, got {x}")


def _gamma_series(a: float, x: float) -> float:
    # P(a,x) by power series: converges rapidly for x < a + 1.
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_continued_fraction(a: float, x: float) -> float:
    # Q(a,x) by Lentz's method: converges rapidly for x >= a + 1.
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for k in range(1, _MAX_ITER):
        an = -k * (k - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def normal_cdf(x: float) -> float:
    """Standard normal cumulative distribution function."""
    return 0.5 * erfc(-x / math.sqrt(2.0))


def poisson_cdf(k: int, mu: float) -> float:
    """P(X <= k) for X ~ Poisson(mu); equals Q(k + 1, mu)."""
    if mu <= 0.0:
        raise ValueError(f"mean must be positive, got {mu}")
    if k < 0:
        return 0.0
    return gammainc_upper(k + 1.0, mu)
