"""Packed monomials against exponent tuples: the kernel's arithmetic,
divisibility and order keys, `Polynomial` products, derivatives and
construction, and the exponent ceiling."""

import pytest

from segrenum import buchberger, ideal, normal_form
from segrenum.errors import ResourceLimitError
from segrenum.groebner import ENGINE_STATS, _lcm, clear_caches
from segrenum.multiplicity import _homogenize
from segrenum.rings import (
    GREVLEX,
    LEX,
    MAX_EXPONENT,
    TANGENT_CONE,
    W,
    PolynomialRing,
    _memo_key,
    block_order,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

LIMIT = 2 ** (W - 1) - 1


@st.composite
def exponent_vectors(draw, count):
    """`count` exponent vectors of one length, each entry up to LIMIT; a
    third of them near it, so sums cross it."""
    n = draw(st.integers(1, 5))
    entry = st.one_of(st.integers(0, 40), st.integers(0, LIMIT),
                      st.integers(LIMIT - 40, LIMIT))
    return [tuple(draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(count)]


def _orders(n):
    return [GREVLEX, LEX, TANGENT_CONE] + [block_order(s) for s in range(1, n)]


@hypothesis.settings(deadline=None)
@hypothesis.given(exponent_vectors(2))
def test_packed_arithmetic_matches_exponent_tuples(vectors):
    a, b = vectors
    memo = _memo_key(GREVLEX, len(a)).__self__
    pa, pb = memo.pack(a), memo.pack(b)
    assert memo.unpack(pa) == a
    product = pa + pb
    if max(mono_mul(a, b)) <= LIMIT:
        assert product == memo.pack(mono_mul(a, b)) and not product & memo.guard
    else:
        assert product & memo.guard  # the overflow shows, never wraps
    assert (not (pa - pb) & memo.guard) == mono_divides(b, a)
    if mono_divides(b, a):
        assert pa - pb == memo.pack(mono_div(a, b))
    assert _lcm(pa, pb, memo.guard) == memo.pack(mono_lcm(a, b))
    coprime = all(x == 0 or y == 0 for x, y in zip(a, b))
    assert (_lcm(pa, pb, memo.guard) == pa + pb) == coprime


@hypothesis.settings(deadline=None)
@hypothesis.given(exponent_vectors(6))
def test_int_keys_sort_as_the_order_keys(vectors):
    n = len(vectors[0])
    for order in _orders(n):
        key = _memo_key(order, n)
        tuple_key = order.key_function(n)
        packed = [key.__self__.pack(e) for e in vectors]
        assert sorted(vectors, key=tuple_key) == \
            [key.__self__.unpack(a) for a in sorted(packed, key=key)], order
        for a, e in zip(packed, vectors):
            for b, f in zip(packed, vectors):
                assert (key(a) < key(b)) == (tuple_key(e) < tuple_key(f)), order


def _exponents(p):
    return {m: c for c, m in p.terms()}


@hypothesis.settings(deadline=None)
@hypothesis.given(exponent_vectors(2), st.sampled_from([0, 7]))
def test_polynomials_agree_with_exponent_tuples(vectors, modulus):
    """`poly` packs what `terms` unpacks; a product of monomials is
    `mono_mul` (or raises past the limit); a derivative lowers one
    exponent and multiplies by it."""
    a, b = vectors
    n = len(a)
    R = PolynomialRing(list("xyzwv"[:n])).over(modulus)
    f, g = R.poly({a: 3}), R.poly({b: 2}) + 1
    assert _exponents(f) == {a: 3} and f.total_degree == sum(a)
    assert _exponents(g) == ({b: 2, (0,) * n: 1} if any(b) else {b: 3})
    if max(mono_mul(a, b)) <= LIMIT:
        assert f * g == R.poly({mono_mul(a, b): 6}) + R.poly({a: 3})
    else:
        with pytest.raises(ResourceLimitError, match="exceeds the limit"):
            f * g
    for i in range(n):
        lowered = tuple(x - (j == i) for j, x in enumerate(a))
        expected = R.poly({lowered: 3 * a[i]}) if a[i] else R.zero()
        assert f.derivative(i) == expected

def test_exponent_past_the_limit_is_refused():
    """An input exponent past the limit, an S-polynomial term and a
    reduction term that would pass it all raise ResourceLimitError."""
    R = PolynomialRing(["x", "y"])
    x, y = R.variables()
    clear_caches()
    buchberger(ideal(R, x ** LIMIT - y, y ** 2))
    with pytest.raises(ResourceLimitError, match=f"exponent {LIMIT + 1} exceeds"):
        buchberger(ideal(R, x ** (LIMIT + 1) - y))
    with pytest.raises(ResourceLimitError, match="exceeds the limit"):
        buchberger(ideal(R, x ** (2 ** W) - y))
    # S(f, g) = x^12999 f - y^20000 g carries x^20000 x^12999 = x^32999.
    with pytest.raises(ResourceLimitError, match="exponent 32999 exceeds"):
        buchberger(ideal(R, x * y ** 20000 + x ** 20000, x ** 13000 + 1))
    L = PolynomialRing(["x", "y"], LEX)
    u, v = L.variables()
    gb = buchberger(ideal(L, u - v ** 30000))
    assert normal_form(u * v ** 2000, gb) == v ** 32000
    with pytest.raises(ResourceLimitError, match="exponent 33000 exceeds"):
        normal_form(u * v ** 3000, gb)


def test_steep_generators_pass_the_degree_budget():
    """The degree budget bounds the leads that S-pairs add, not the
    generators: (x^121 - y, y^2) is its own reduced basis."""
    R = PolynomialRing(["x", "y"])
    x, y = R.variables()
    clear_caches()
    ENGINE_STATS.reset()
    gb = buchberger(ideal(R, x ** 121 - y, y ** 2))
    assert gb.basis == (x ** 121 - y, y ** 2)
    assert ENGINE_STATS.spairs_reduced == 0


def test_polynomial_exponents_past_the_limit_are_refused():
    """Every polynomial obeys the ceiling: construction, a product and
    the t exponent of a homogenization raise ResourceLimitError."""
    assert MAX_EXPONENT == LIMIT
    R = PolynomialRing(["x", "y"])
    x, y = R.variables()
    assert R.poly({(LIMIT, 0): 1}) == x ** LIMIT
    with pytest.raises(ResourceLimitError, match=f"exponent {LIMIT + 1} exceeds"):
        R.poly({(0, LIMIT + 1): 1})
    with pytest.raises(ResourceLimitError, match=f"exponent {LIMIT + 1} exceeds"):
        x ** LIMIT * x
    with pytest.raises(ResourceLimitError, match="exceeds the limit"):
        x ** 40000
    # x^20000 y^20000 + x has top degree 40000, so x gets t^39999.
    with pytest.raises(ResourceLimitError, match="exponent 39999 exceeds"):
        _homogenize(ideal(R, x ** 20000 * y ** 20000 + x))
    assert _homogenize(ideal(R, x ** 20000 * y ** 12768 + x)).generators[0].total_degree \
        == 32768
