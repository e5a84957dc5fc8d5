import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segrenum import (
    GREVLEX,
    LEX,
    PolynomialRing,
    block_order,
    format_polynomial,
)
from segrenum.errors import RingMismatchError, ZeroPolynomialError
from segrenum.rings import mono_mul


def test_addition_examples(R2):
    x, y = R2.variables()
    assert (x + y) + (-x) == y
    p = x ** 2 + 3 * y
    assert R2.zero() + p == p
    half_y = R2.poly({(0, 1): Fraction(1, 2)})
    assert (x ** 2 + half_y) + half_y == x ** 2 + y


def test_multiplication_examples(R2):
    x, y = R2.variables()
    assert (x + y) * (x - y) == x ** 2 - y ** 2
    p = x ** 3 - 2 * y
    assert p * R2.one() == p
    assert (x + 2 * y) * (x + 2 * y) == x ** 2 + 4 * x * y + 4 * y ** 2


def test_bad_exponent_vectors_are_refused(R2):
    """A vector of the wrong length, a negative entry and a non-integral
    entry are each refused, not truncated."""
    for exps in [(1,), (1, 0, 0), (-1, 0), (1.5, 0)]:
        with pytest.raises(ValueError, match="bad exponent vector"):
            R2.poly({exps: 1})


def test_ring_mismatch(R2, R3):
    with pytest.raises(RingMismatchError):
        R2.variable(0) + R3.variable(0)


def test_leading_term_examples(R2):
    x, y = R2.variables()
    assert (x ** 2 * y + x ** 3).leading_item() == ((3, 0), 1)
    assert x.leading_item() == ((1, 0), 1)
    xl, yl = PolynomialRing(R2.variable_names, LEX).variables()
    assert (xl + yl ** 2).leading_item() == ((1, 0), 1)
    with pytest.raises(ZeroPolynomialError):
        R2.zero().leading_item()


def _random_poly(ring, rng, max_terms=4, max_exp=3, bound=9):
    coeffs = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        coeffs[exps] = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
    return ring.poly(coeffs)


def test_ring_axioms_random_triples(R3):
    rng = random.Random(70311)
    for _ in range(1000):
        p = _random_poly(R3, rng)
        q = _random_poly(R3, rng)
        r = _random_poly(R3, rng)
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r


def test_coefficients_stay_reduced(R2):
    rng = random.Random(4211)
    for _ in range(200):
        p = _random_poly(R2, rng) * _random_poly(R2, rng)
        for c in p.coeffs.values():
            assert c != 0
            assert c.denominator > 0
            from math import gcd
            assert gcd(c.numerator, c.denominator) == 1


exponent_triples = st.tuples(
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
)


@pytest.mark.parametrize("order", [GREVLEX, LEX, block_order(1)])
@given(triple=exponent_triples)
@settings(max_examples=300, deadline=None)
def test_order_axioms(order, triple):
    a, b, t = triple
    key = order.key_function(3)
    # totality
    assert (key(a) < key(b)) or (key(b) < key(a)) or a == b
    # multiplicative compatibility
    if key(a) < key(b):
        assert key(mono_mul(a, t)) < key(mono_mul(b, t))
    # 1 is minimal
    one = (0, 0, 0)
    if a != one:
        assert key(one) < key(a)


def test_serialization_deterministic(R3):
    x, y, z = R3.variables()
    p = 3 * x * y - z ** 2 + R3.poly({(0, 1, 0): Fraction(1, 2)})
    q = R3.poly({m: c for c, m in reversed(p.terms())})
    assert format_polynomial(p) == format_polynomial(q)
    assert format_polynomial(p) == "3*x*y - z^2 + 1/2*y"
    assert format_polynomial(R3.zero()) == "0"


def test_derivative(R2):
    x, y = R2.variables()
    f = x ** 2 * y + 2 * y ** 3
    assert f.derivative(0) == 2 * x * y
    assert f.derivative(1) == x ** 2 + 6 * y ** 2
