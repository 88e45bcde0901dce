"""Special functions used by the statistical tests and photon statistics.

The complementary error function is the standard library's ``math.erfc``,
reflected as 2 - erfc(-x) below zero so that erfc(-x) = 2 - erfc(x) holds
exactly; the normal CDF is built on it. The regularized upper incomplete
gamma function and the Poisson CDF are the package's own double-precision
kernels. They stop once a step changes the sum by less than 1e-17 of it,
which takes about 8 to 10 sqrt(a) steps at shape a; they raise
``ArithmeticError`` rather than return a partial sum if
500 + 16 ceil(sqrt(a)) steps do not get there. The test suite pins 1e-10
relative agreement against an independent reference for shapes up to
39 062 and Poisson means up to 1e4. Above that the rounding of the
prefactor's exponent, a sum of terms near a ln a, sets the error: 5e-9 is
pinned at shape 390 625 and 1e-9 at mean 1e5.

``erfc`` and ``poisson_cdf`` take scalars. ``normal_cdf`` and
``gammainc_upper`` also take float arrays, and then return the scalar
function's value for every element, bit for bit. ``normal_cdf`` takes
``erfc``'s branch for each element, ``math.erfc`` of the element or of its
negation, and reflects the negative ones. ``gammainc_upper`` runs each kernel
on many elements at once, in the scalar kernel's order of operations: the
series a block of steps at a time, through numpy's in-order accumulations,
and the continued fraction in lockstep, each element read at its own last
step. The prefactor is the scalar's libm expression per element.
"""

from __future__ import annotations

import math

import numpy as np

_MAX_ITER = 500
_EPS = 1e-17
_TINY = 1e-300
# Below this many elements the array form of gammainc_upper maps the scalar
# function over them: its lockstep pays some microseconds a step whatever the
# size. Timed on a 2-CPU x86 box, one call at each of the battery's five
# shapes on chi-square arguments, scalar against lockstep: 0.31 against
# 1.35 ms at 17 elements a call, 1.84 against 2.01 ms at 100, 2.60 against
# 2.04 ms at 130, 3.75 against 2.31 ms at 200.
_ARRAY_MIN_SIZE = 100
# Series steps the array form takes at a time.
_SERIES_STEPS = 32


def erfc(x: float) -> float:
    """Complementary error function 1 - erf(x): ``math.erfc``, and
    2 - erfc(-x) below zero, so that the reflection holds exactly."""
    return 2.0 - math.erfc(-x) if x < 0.0 else math.erfc(x)


def gammainc_upper(a, x):
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).

    Takes floats, or float arrays that broadcast together; an array gives
    the scalar value of each element, bit for bit.
    """
    if isinstance(a, np.ndarray) or isinstance(x, np.ndarray):
        return _gammainc_upper_array(a, x)
    _check_gamma_args(a, x)
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_series(a, x)
    return _gamma_continued_fraction(a, x)


def _check_gamma_args(a: float, x: float) -> None:
    if not 0.0 < a < math.inf:
        raise ValueError(f"shape parameter must be positive and finite, got {a}")
    if not 0.0 <= x < math.inf:
        raise ValueError(f"argument must be non-negative and finite, got {x}")


def _gamma_series(a: float, x: float) -> float:
    # P(a,x) by power series: converges rapidly for x < a + 1.
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_ITER + 16 * math.ceil(math.sqrt(a))):
        ap += 1.0
        term *= x / ap
        total += term  # every term is positive
        if term < total * _EPS:
            break
    else:
        raise ArithmeticError(f"incomplete gamma series did not converge at a={a}, x={x}")
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_continued_fraction(a: float, x: float) -> float:
    # Q(a,x) by Lentz's method: converges rapidly for x >= a + 1.
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for k in range(1, _MAX_ITER + 16 * math.ceil(math.sqrt(a))):
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
    else:
        raise ArithmeticError(f"incomplete gamma fraction did not converge at a={a}, x={x}")
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gammainc_upper_array(a, x) -> np.ndarray:
    a, x = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(x, dtype=float))
    shape = a.shape
    a, x = a.ravel(), x.ravel()
    if a.size < _ARRAY_MIN_SIZE:
        q = np.fromiter(map(gammainc_upper, a.tolist(), x.tolist()), dtype=float, count=a.size)
        return q.reshape(shape)
    invalid = np.flatnonzero(~((0.0 < a) & (a < math.inf) & (0.0 <= x) & (x < math.inf)))
    if invalid.size:
        _check_gamma_args(a[invalid[0]].item(), x[invalid[0]].item())
    q = np.ones(a.size)
    with np.errstate(all="ignore"):  # the scalar kernels' float arithmetic never warns
        series = np.flatnonzero((x != 0.0) & (x < a + 1.0))
        if series.size:
            a_s, x_s = a[series], x[series]
            q[series] = 1.0 - _gamma_series_array(a_s, x_s) * _prefactors(a_s, x_s)
        fraction = np.flatnonzero(x >= a + 1.0)
        if fraction.size:
            a_f, x_f = a[fraction], x[fraction]
            q[fraction] = _gamma_continued_fraction_array(a_f, x_f) * _prefactors(a_f, x_f)
    return q.reshape(shape)


def _prefactors(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The scalar kernels' exp(-x + a ln x - lgamma(a)) at each element, through libm."""
    return np.fromiter(
        (math.exp(-x + a * math.log(x) - math.lgamma(a)) for a, x in zip(a.tolist(), x.tolist())),
        dtype=float,
        count=a.size,
    )


def _step_limits(a: np.ndarray) -> np.ndarray:
    """Each element's step cap, the scalar kernels' 500 + 16 ceil(sqrt(a))."""
    return _MAX_ITER + 16 * np.ceil(np.sqrt(a))


def _gamma_series_array(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``_gamma_series``'s sum at each element, before its prefactor.

    The rows still running take ``_SERIES_STEPS`` steps at a time. Each of
    ap, the terms and the totals is a running sum or product along a row,
    which numpy accumulates in order, so every rounding is the scalar
    loop's; a row ends at its first step with term < total * eps.
    """
    total = np.empty(a.size)
    rows = np.arange(a.size)
    limits = _step_limits(a)
    ap, term, run = a, 1.0 / a, 1.0 / a
    taken = 0  # steps behind every running row
    while rows.size:
        aps = np.ones((rows.size, _SERIES_STEPS + 1))
        aps[:, 0] = ap
        np.add.accumulate(aps, axis=1, out=aps)
        terms = x[:, None] / aps
        terms[:, 0] = term
        np.multiply.accumulate(terms, axis=1, out=terms)
        totals = terms.copy()
        totals[:, 0] = run
        np.add.accumulate(totals, axis=1, out=totals)
        stops = terms[:, 1:] < totals[:, 1:] * _EPS
        stopped = stops.any(axis=1)
        step = np.where(stopped, stops.argmax(axis=1), _SERIES_STEPS) + 1
        late = np.flatnonzero(taken + step > limits)
        if late.size:
            raise ArithmeticError(
                f"incomplete gamma series did not converge at a={a[late[0]]}, x={x[late[0]]}"
            )
        total[rows[stopped]] = totals[stopped, step[stopped]]
        going = ~stopped
        rows, a, x, limits = rows[going], a[going], x[going], limits[going]
        ap, term, run = aps[going, -1], terms[going, -1], totals[going, -1]
        taken += _SERIES_STEPS
    return total


def _gamma_continued_fraction_array(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``_gamma_continued_fraction``'s h at each element, before its prefactor.

    Every element takes each step, but h takes the step's factor only while
    the element runs, so each keeps the h of the step where it stops.
    """
    limits = _step_limits(a)
    least_limit = limits.min()
    b = x + 1.0 - a
    c = np.full(a.size, 1.0 / _TINY)
    d = 1.0 / b
    h = d.copy()
    running = np.ones(a.size, dtype=bool)
    k = 0
    while running.any():
        k += 1
        if k >= least_limit and (running & (k >= limits)).any():
            running &= k >= limits  # out of steps before stopping
            break
        an = -k * (k - a)
        b += 2.0
        d *= an
        d += b
        d[np.abs(d) < _TINY] = _TINY
        np.divide(an, c, out=c)
        c += b
        c[np.abs(c) < _TINY] = _TINY
        np.divide(1.0, d, out=d)
        delta = d * c
        np.multiply(h, delta, out=h, where=running)
        delta -= 1.0
        running[np.abs(delta, out=delta) < _EPS] = False
    else:
        return h
    first = np.flatnonzero(running)[0]
    raise ArithmeticError(
        f"incomplete gamma fraction did not converge at a={a[first]}, x={x[first]}"
    )


def normal_cdf(x):
    """Standard normal cumulative distribution function.

    Takes a float or a float array; an array gives the scalar value of each
    element, bit for bit.
    """
    if isinstance(x, np.ndarray):
        # erfc's two branches on every element
        y = -x / math.sqrt(2.0)
        negative = y < 0.0
        branch = np.where(negative, -y, y).ravel().tolist()
        e = np.fromiter(map(math.erfc, branch), dtype=float, count=y.size).reshape(y.shape)
        np.subtract(2.0, e, out=e, where=negative)
        return 0.5 * e
    return 0.5 * erfc(-x / math.sqrt(2.0))


def poisson_cdf(k: int, mu: float) -> float:
    """P(X <= k) for X ~ Poisson(mu); equals Q(k + 1, mu)."""
    if mu <= 0.0:
        raise ValueError(f"mean must be positive, got {mu}")
    if k < 0:
        return 0.0
    return gammainc_upper(k + 1.0, mu)
