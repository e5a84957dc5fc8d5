import random

import pytest

from segrenum import (
    GREVLEX,
    INFINITE,
    EngineConfig,
    buchberger,
    colength,
    dimension,
    eliminate,
    generic_tuple,
    ideal,
    ideal_quotient,
    intersect,
    normal_form,
    radical_membership,
    saturate,
)
from segrenum.errors import PreconditionError, ResourceLimitError
from segrenum.groebner import groebner_fingerprint, verify_basis
from segrenum.rings import PolynomialRing

from oracles import macaulay_colength_stable, saturation_by_generators


def lead_exponents(gb):
    return sorted(gb.leading_exponents())


def test_buchberger_examples(R2):
    x, y = R2.variables()
    gb = buchberger(ideal(R2, x))
    assert [str(g) for g in gb.basis] == ["x"]

    gb = buchberger(ideal(R2, x + y, x - y))
    assert sorted(str(g) for g in gb.basis) == ["x", "y"]

    I = ideal(R2, x ** 2 - y, y ** 2 - x)
    gb = buchberger(I)
    assert set(lead_exponents(gb)) >= {(2, 0), (0, 2)}
    assert colength(I) == 4 == macaulay_colength_stable(I)


def test_basis_is_a_groebner_basis(R2, R3, divisor_pair):
    x, y = R2.variables()
    candidates = [
        ideal(R2, x ** 2 - y, y ** 2 - x),
        ideal(R2, x ** 3 - 2 * x * y, x ** 2 * y - 2 * y ** 2 + x),
        divisor_pair[1],
    ]
    for I in candidates:
        gb = buchberger(I)
        assert verify_basis(gb)
        for g in I.generators:
            assert normal_form(g, gb).is_zero


def test_normal_form_examples(R2):
    x, y = R2.variables()
    gx = buchberger(ideal(R2, x))
    assert normal_form(x ** 2, gx).is_zero
    assert normal_form(y, gx) == y
    g = buchberger(ideal(R2, x ** 2 - y))
    assert normal_form(x ** 2 * y, g) == y ** 2


def test_eliminate_examples():
    Rtxy = PolynomialRing(["t", "x", "y"])
    t, x, y = Rtxy.variables()
    E = eliminate(ideal(Rtxy, x - t, y - t ** 2), 2)
    (g,) = E.generators
    assert str(g) in {"x^2 - y", "y - x^2"}

    R2 = PolynomialRing(["x", "y"])
    x2, y2 = R2.variables()
    assert eliminate(ideal(R2, x2), 1).is_zero

    E = eliminate(ideal(Rtxy, t * x - 1, t * y), 2)
    assert groebner_fingerprint(E) == groebner_fingerprint(
        ideal(E.ring, E.ring.variable("y"))
    )


def test_saturate_examples(R3):
    x, y, z = R3.variables()
    S = saturate(ideal(R3, x * z, y * z), ideal(R3, z))
    assert groebner_fingerprint(S) == groebner_fingerprint(ideal(R3, x, y))

    I = ideal(R3, x * y - z)
    assert groebner_fingerprint(saturate(I, ideal(R3, R3.one()))) == groebner_fingerprint(I)

    R1 = PolynomialRing(["x"])
    (x1,) = R1.variables()
    S = saturate(ideal(R1, x1 ** 2), ideal(R1, x1))
    assert buchberger(S).is_unit


def test_saturate_idempotent_and_monotone(R3, divisor_pair, cfg):
    x, y, z = R3.variables()
    I1, I2 = divisor_pair
    for I, by in [
        (ideal(R3, x * z, y * z), ideal(R3, z)),
        (I2, I1),
        (ideal(R3, z * (x + y)), I2),
        (ideal(R3, x ** 2, x * y), ideal(R3, x, y)),
    ]:
        J = ideal(R3, generic_tuple(by, 1, cfg).combinations[0])
        S = saturate(I, J)
        assert groebner_fingerprint(S) == groebner_fingerprint(saturation_by_generators(I, by))
        gbS = buchberger(S)
        for g in I.generators:
            assert normal_form(g, gbS).is_zero  # S contains I
        assert groebner_fingerprint(saturate(S, J)) == groebner_fingerprint(S)
        assert dimension(S) <= dimension(I)


def test_generic_element_saturation_matches_the_reference(R2, R3, cfg):
    rng = random.Random(3)
    for case in range(40):
        R = (R2, R3)[case % 2]
        xs = R.variables()

        def form(terms):
            p = R.zero()
            for _ in range(terms):
                m = R.one()
                for _ in range(rng.randint(1, 2)):
                    m = m * rng.choice(xs)
                p = p + m * rng.choice((-2, -1, 1, 2, 3))
            return p

        common = form(1)
        I = ideal(R, *(common * form(rng.randint(1, 2)) for _ in range(rng.randint(1, 3))))
        J = ideal(R, *(form(rng.randint(1, 2)) for _ in range(rng.randint(2, 3))))
        g = generic_tuple(J, 1, cfg).combinations[0]
        expected = saturation_by_generators(I, J)
        assert groebner_fingerprint(saturate(I, ideal(R, g))) == groebner_fingerprint(expected)


def test_saturate_rejects_a_non_principal_ideal(R2):
    x, y = R2.variables()
    with pytest.raises(PreconditionError):
        saturate(ideal(R2, x ** 2, x * y), ideal(R2, x, y))


def test_intersection(R2):
    x, y = R2.variables()
    meet = intersect(ideal(R2, x), ideal(R2, y))
    assert groebner_fingerprint(meet) == groebner_fingerprint(ideal(R2, x * y))


def test_ideal_quotient_examples(R2):
    x, y = R2.variables()
    Q = ideal_quotient(ideal(R2, x * y), ideal(R2, x))
    assert groebner_fingerprint(Q) == groebner_fingerprint(ideal(R2, y))

    I = ideal(R2, x ** 2 - y, x * y)
    assert buchberger(ideal_quotient(I, I)).is_unit

    Q = ideal_quotient(ideal(R2, x ** 2, x * y), ideal(R2, x))
    assert groebner_fingerprint(Q) == groebner_fingerprint(ideal(R2, x, y))


def test_colength_examples(R2):
    x, y = R2.variables()
    assert colength(ideal(R2, x ** 2, y ** 3)) == 6
    assert colength(ideal(R2, x, y)) == 1
    assert colength(ideal(R2, x)) is INFINITE


def test_colength_matches_macaulay_oracle(R2, R3):
    x, y = R2.variables()
    x3, y3, z3 = R3.variables()
    zero_dimensional = [
        ideal(R2, x ** 2, y ** 3),
        ideal(R2, x ** 2 - y, y ** 2 - x),
        ideal(R2, x ** 2 + y ** 2, x * y),
        ideal(R2, x ** 3, x * y, y ** 4),
        ideal(R3, x3, y3 ** 2, z3 ** 3),
        ideal(R3, x3 ** 2 - z3, y3 - z3 ** 2, z3 ** 3),
    ]
    for I in zero_dimensional:
        value = colength(I)
        assert value is not INFINITE and value <= 30
        assert value == macaulay_colength_stable(I)


def test_radical_membership_examples(R2):
    x, y = R2.variables()
    assert radical_membership(x, ideal(R2, x ** 2))
    assert not radical_membership(y, ideal(R2, x))
    assert radical_membership(x + y, ideal(R2, x ** 2 + 2 * x * y + y ** 2))


def test_dimension_examples(R3):
    x, y, z = R3.variables()
    assert dimension(ideal(R3, z)) == 2
    assert dimension(ideal(R3, x, y, z)) == 0
    assert dimension(ideal(R3, x * z, y * z)) == 2
    assert dimension(ideal(R3, R3.one())) == -1
    assert dimension(ideal(R3, x - R3.one())) == 2


def test_elimination_generators_lie_in_ideal():
    Rtxy = PolynomialRing(["t", "x", "y"])
    t, x, y = Rtxy.variables()
    I = ideal(Rtxy, x - t ** 2, y - t ** 3)
    E = eliminate(I, 2)
    gb = buchberger(I)
    for g in E.generators:
        lifted = Rtxy.poly({(0,) + e: c for e, c in g.coeffs.items()})
        assert normal_form(lifted, gb).is_zero
        assert all(e[0] == 0 for e in lifted.coeffs)


def test_degree_budget_is_reported(R2):
    x, y = R2.variables()
    tight = EngineConfig(max_basis=5000, max_degree=3)
    with pytest.raises(ResourceLimitError):
        buchberger(ideal(R2, x ** 4 - y, y ** 4 - x * y), GREVLEX, tight)


def test_cached_basis_respects_a_tighter_budget(R2):
    x, y = R2.variables()
    I = ideal(R2, x ** 3 - y ** 2, x * y ** 2)
    buchberger(I)
    with pytest.raises(ResourceLimitError):
        buchberger(I, config=EngineConfig(max_degree=2))


def test_equal_ideals_hash_equal(R2):
    x, y = R2.variables()
    assert ideal(R2, x, y) == ideal(R2, y, x)
    assert hash(ideal(R2, x, y)) == hash(ideal(R2, y, x))
