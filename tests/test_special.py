"""Special-function kernels against independent high-precision references."""

import math
import re

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import example, given
from hypothesis import strategies as st

from bsqrng import special
from bsqrng.special import erfc, gammainc_upper, normal_cdf, poisson_cdf

# 20 points on both axes, out to erfc(9) = 4.1e-37.
ERFC_POINTS = [
    -6.0, -4.5, -3.0, -2.2, -1.5, -1.0, -0.5, -0.1, 0.0, 0.3,
    0.7, 1.1, 1.6, 1.9, 2.0, 2.5, 3.5, 5.0, 7.0, 9.0,
]

# erfc is 0.0 (2.0 below zero) from |x| = ERFC_ZERO on.
ERFC_ZERO = 27.226364135742188

# 20 (shape, argument) pairs on both sides of the series/fraction switch.
GAMMA_POINTS = [
    (0.5, 0.1), (0.5, 2.0), (1.0, 0.5), (1.0, 4.0), (1.5, 0.5),
    (1.5, 2.4413026130629994), (2.0, 0.8), (2.0, 6.0), (3.0, 1.0),
    (4.0, 1.9095425048844384), (4.0, 12.0), (8.0, 3.0), (8.0, 20.0),
    (16.0, 10.0), (16.0, 30.0), (50.0, 35.0), (50.0, 80.0), (100.0, 90.0),
    (0.25, 0.01), (390.5, 400.0),
]


@pytest.mark.parametrize("x", ERFC_POINTS)
def test_erfc_against_reference(x):
    reference = float(scipy.special.erfc(x))
    assert erfc(x) == pytest.approx(reference, rel=1e-10)


@pytest.mark.parametrize("a,x", GAMMA_POINTS)
def test_incomplete_gamma_against_reference(a, x):
    assert gammainc_upper(a, x) == pytest.approx(
        float(scipy.special.gammaincc(a, x)), rel=1e-10
    )


def test_erfc_special_values():
    assert erfc(0.0) == 1.0
    assert erfc(30.0) == 0.0
    assert erfc(ERFC_ZERO) == 0.0 < erfc(float(np.nextafter(ERFC_ZERO, 0.0)))
    assert erfc(-ERFC_ZERO) == 2.0


@given(
    st.floats(min_value=0.05, max_value=60.0),
    st.floats(min_value=0.0, max_value=120.0),
)
def test_gamma_complement(a, x):
    # Q(a, x), the complement of P(a, x), on both sides of the branch switch.
    assert gammainc_upper(a, x) == pytest.approx(
        float(scipy.special.gammaincc(a, x)), abs=1e-12
    )


# Shapes of block_frequency at 1e6, 1e7 and 1e8-bit blocks (128-bit
# sub-blocks), where the kernels need about 530 to 6 200 steps near x = a.
# The prefactor exp(-x + a ln x - lgamma(a)) sums terms near a ln a, about
# 5e6 at the largest shape, whose rounding alone costs some 1e-9 there.
@pytest.mark.parametrize("a, rel", [(3906.0, 1e-10), (39062.0, 1e-10), (390625.0, 5e-9)])
def test_incomplete_gamma_converges_at_large_shapes(a, rel):
    for z in range(-3, 4):
        x = a + z * math.sqrt(a)
        assert gammainc_upper(a, x) == pytest.approx(
            float(scipy.special.gammaincc(a, x)), rel=rel
        ), z


@pytest.mark.parametrize("mu, rel", [(1e4, 1e-10), (1e5, 1e-9)])
def test_poisson_cdf_against_scipy_at_large_means(mu, rel):
    for z in range(-3, 4):
        k = math.floor(mu + z * math.sqrt(mu))
        assert poisson_cdf(k, mu) == pytest.approx(
            float(scipy.stats.poisson.cdf(k, mu)), rel=rel
        ), z


def test_unconverged_kernel_raises(monkeypatch):
    # With no stopping test met, both kernels run to their step cap.
    monkeypatch.setattr(special, "_EPS", 0.0)
    for x in (0.5, 20.0):  # the series, then the continued fraction
        with pytest.raises(ArithmeticError, match="did not converge"):
            gammainc_upper(4.0, x)


def test_gamma_domain_errors():
    with pytest.raises(ValueError):
        gammainc_upper(0.0, 1.0)
    with pytest.raises(ValueError):
        gammainc_upper(1.0, -0.5)
    for a, x in [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)]:
        with pytest.raises(ValueError, match="finite"):
            gammainc_upper(a, x)


def _neighbours(x):
    return [float(np.nextafter(x, -math.inf)), x, float(np.nextafter(x, math.inf))]


# math.erfc's underflow point with its neighbours, at both signs, in erfc's
# units and in normal_cdf's (times -sqrt(2)).
ERFC_EDGES = [v for e in (ERFC_ZERO, -ERFC_ZERO) for v in _neighbours(e)]
NORMAL_CDF_EDGES = [
    v for e in (ERFC_ZERO, -ERFC_ZERO) for v in _neighbours(-e * math.sqrt(2.0))
]
NON_FINITE_AND_ZEROS = [0.0, -0.0, math.nan, math.inf, -math.inf]


@given(st.floats(min_value=-30.0, max_value=30.0) | st.sampled_from(ERFC_EDGES))
def test_erfc_reflection(x):
    # Exact, as normal_cdf's reflected tables need: erfc below zero is 2 minus
    # erfc above. The other way round, 2 - (2 - e) need not give e back.
    x = abs(x)
    assert erfc(-x) == 2.0 - erfc(x)


def _bit_patterns(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _arguments(edges):
    return st.lists(
        st.floats(min_value=-45.0, max_value=45.0)
        | st.floats()
        | st.sampled_from(edges + NON_FINITE_AND_ZEROS),
        max_size=40,
    )


@given(_arguments(NORMAL_CDF_EDGES))
def test_array_normal_cdf_matches_scalar_bit_for_bit(values):
    expected = _bit_patterns([normal_cdf(v) for v in values])
    assert np.array_equal(_bit_patterns(normal_cdf(np.array(values, dtype=float))), expected)


def test_array_forms_match_scalar_on_a_grid():
    # Both signs, out past the underflow point at each end.
    x = np.linspace(-40.0, 40.0, 16001)
    assert np.array_equal(
        _bit_patterns(normal_cdf(x)), _bit_patterns([normal_cdf(v) for v in x])
    )


def test_normal_cdf_against_reference():
    for x in np.linspace(-7.0, 7.0, 29):
        assert normal_cdf(float(x)) == pytest.approx(
            float(scipy.special.ndtr(x)), rel=1e-10, abs=1e-300
        )


@pytest.mark.parametrize("mu", [0.01, 0.5, 1.0, 2.1, 8.0, 20.0])
def test_poisson_cdf_against_direct_summation(mu):
    # independent oracle: accumulate the pmf term by term
    term = math.exp(-mu)
    cumulative = term
    for k in range(0, 60):
        assert poisson_cdf(k, mu) == pytest.approx(cumulative, rel=1e-10)
        term *= mu / (k + 1)
        cumulative += term


def test_poisson_cdf_against_scipy():
    for mu in (0.3, 1.0, 5.0, 17.0):
        for k in (0, 1, 3, 10, 40):
            assert poisson_cdf(k, mu) == pytest.approx(
                float(scipy.stats.poisson.cdf(k, mu)), rel=1e-10
            )


def test_poisson_cdf_domain():
    with pytest.raises(ValueError):
        poisson_cdf(3, 0.0)
    assert poisson_cdf(-1, 1.0) == 0.0


# Shapes from 0.1 to 1e4, log-spread: integers, half-integers and any float.
GAMMA_SHAPES = st.one_of(
    st.floats(0.0, 4.0).map(lambda e: float(round(10**e))),
    st.floats(-0.31, 4.0).map(lambda e: round(10**e) + 0.5),
    st.floats(-1.0, 4.0).map(lambda e: 10**e),
)


def _gamma_edges(a):
    """x = 0, tiny x, and the series/fraction switch at a + 1 with its neighbours."""
    return [0.0, 5e-324, 1e-300, *_neighbours(a + 1.0)]


def _gamma_arguments(a):
    return st.floats(0.0, 3.0 * a + 10.0) | st.sampled_from(_gamma_edges(a))


def _gamma_elements(shared, drawn, size, seed):
    """The drawn (shape, argument) pairs, then seeded ones out to ``size``:
    arguments near the shape, on both sides of the switch, and its edges."""
    rng = np.random.default_rng(seed)
    shapes = [a for a, _ in drawn] or [shared]
    pairs = list(drawn)
    while len(pairs) < size:
        a = shared if shared is not None else shapes[len(pairs) % len(shapes)]
        x = float(rng.gamma(a + 1.0)) if rng.random() < 0.8 else float(rng.choice(_gamma_edges(a)))
        pairs.append((a, x))
    return pairs[:size]


@given(
    GAMMA_SHAPES.flatmap(lambda a: st.tuples(st.just(a), _gamma_arguments(a))).flatmap(
        lambda first: st.tuples(
            st.just(first),
            st.lists(
                GAMMA_SHAPES.flatmap(lambda a: st.tuples(st.just(a), _gamma_arguments(a))),
                max_size=8,
            ),
        )
    ),
    st.booleans(),
    st.integers(1, 2 * special._ARRAY_MIN_SIZE + 20),
    st.integers(0, 2**32 - 1),
)
@example(((78.0, 79.0), [(78.0, 78.5), (78.0, 0.0)]), True, 2 * special._ARRAY_MIN_SIZE, 1)
@example(((10_000.0, 10_001.0), [(0.1, 1e-300), (390.5, 400.0), (2.5, 3.5)]), False, 150, 2)
def test_array_gammainc_upper_matches_scalar_bit_for_bit(drawn, one_shape, size, seed):
    # one shape for every element, as the battery calls it, or one per element
    first, others = drawn
    if one_shape:
        drawn = [first] + [(first[0], x) for _, x in others]
    else:
        drawn = [first, *others]
    pairs = _gamma_elements(first[0] if one_shape else None, drawn, size, seed)
    a, x = np.array(pairs).T
    expected = [gammainc_upper(s, v).hex() for s, v in pairs]
    q = gammainc_upper(first[0] if one_shape else a, x)
    assert q.shape == x.shape
    assert [v.hex() for v in q.tolist()] == expected


def test_array_gammainc_upper_keeps_the_broadcast_shape():
    x = np.linspace(0.0, 30.0, 300).reshape(3, 100)
    a = np.array([[0.5], [8.0], [78.0]])
    q = gammainc_upper(a, x)
    assert q.shape == (3, 100)
    assert all(
        q[i, j].hex() == gammainc_upper(float(a[i, 0]), float(x[i, j])).hex()
        for i in range(3)
        for j in range(100)
    )


INVALID_GAMMA_ARGUMENTS = [
    (0.0, 1.0), (-2.0, 1.0), (math.nan, 1.0), (math.inf, 1.0),
    (1.0, -0.5), (1.0, math.nan), (1.0, math.inf),
]


@given(
    st.integers(1, 2 * special._ARRAY_MIN_SIZE),
    st.integers(0, 10**6),
    st.sampled_from(INVALID_GAMMA_ARGUMENTS),
    st.sampled_from(INVALID_GAMMA_ARGUMENTS),
)
def test_array_gammainc_upper_refuses_what_the_scalar_refuses(size, position, bad, later_bad):
    # the first invalid element is named, with the scalar's message
    a, x = np.full(size, 2.5), np.full(size, 1.0)
    position %= size
    a[position], x[position] = bad
    a[-1], x[-1] = later_bad if position < size - 1 else bad
    with pytest.raises(ValueError) as scalar:
        gammainc_upper(*bad)
    with pytest.raises(ValueError, match=f"^{re.escape(str(scalar.value))}$"):
        gammainc_upper(a, x)


@pytest.mark.parametrize("size", [3, 2 * special._ARRAY_MIN_SIZE])
def test_unconverged_array_kernels_raise(monkeypatch, size):
    monkeypatch.setattr(special, "_EPS", 0.0)
    for x in (0.5, 20.0):  # the series, then the continued fraction
        with pytest.raises(ArithmeticError, match=f"did not converge at a=4.0, x={x}"):
            gammainc_upper(4.0, np.full(size, x))
