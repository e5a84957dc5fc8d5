import math
import random
import sys
from fractions import Fraction

import pytest

from segrenum import (
    GREVLEX,
    INFINITE,
    buchberger,
    colength,
    dimension,
    eliminate,
    generic_tuple,
    ideal,
    intersect,
    normal_form,
    saturate,
)
from segrenum.errors import PreconditionError, ResourceLimitError
from segrenum import groebner
from segrenum.groebner import (
    ENGINE_STATS,
    _buchberger_raw,
    _extended_ring,
    _lift,
    _normalise,
    _reduce_raw,
    clear_caches,
    groebner_fingerprint,
    verify_basis,
)
from segrenum.multiplicity import _homogenize
from segrenum.rings import LEX, TANGENT_CONE, Polynomial, PolynomialRing, _memo_key, block_order

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


def test_basis_rows_are_primitive_integer_vectors(R3):
    """Each row is a primitive integer vector with a positive coefficient
    at its lead, and the basis element is the row divided by it; for
    grevlex, block and tangent-cone bases."""
    x, y, z = R3.variables()
    f = Fraction(2, 3) * x ** 2 - Fraction(5, 7) * y * z + 3 * z ** 3
    g = x * y - Fraction(1, 2) * z ** 2 + y
    block = PolynomialRing(R3.variable_names, block_order(1))
    bases = [
        buchberger(ideal(R3, f, g)),
        buchberger(ideal(block, *(Polynomial(block, dict(h.coeffs)) for h in (f, g))),
                   block.order),
        buchberger(_homogenize(ideal(R3, f, g)), TANGENT_CONE),
    ]
    for gb in bases:
        key = _memo_key(gb.order, gb.ring.nvars)
        exponents = gb.leading_exponents()
        assert exponents == tuple(map(key.__self__.unpack, gb.leads))
        assert list(exponents) == sorted(exponents, key=gb.order.key_function(gb.ring.nvars),
                                         reverse=True)
        assert list(gb.leads) == sorted(gb.leads, key=key, reverse=True)
        assert len(gb.rows) == len(gb.leads) == len(gb.basis) > 1
        for row, lead, poly in zip(gb.rows, gb.leads, gb.basis):
            assert all(type(c) is int for c in row.values())
            assert math.gcd(*row.values()) == 1
            assert max(row, key=key) == lead and row[lead] > 0
            assert poly.coeffs == {e: Fraction(c, row[lead]) for e, c in row.items()}


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


def test_eliminate_does_not_depend_on_the_callers_order():
    """The block-order basis is computed from generators in the caller's
    ring, whatever its order: a LEX ring gives the GREVLEX ring's result."""
    results = []
    for order in (GREVLEX, LEX):
        R = PolynomialRing(["t", "s", "x", "y", "z"], order)
        t, s, x, y, z = R.variables()
        I = ideal(R, x - t ** 2 - s, y - t * s, z - s ** 2 + t)
        results.append([eliminate(I, keep).generators for keep in (3, 4)])
    grevlex, lex = results
    assert lex == grevlex and all(grevlex)


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

    # the unit ideal saturates to itself with no completion
    runs = ENGINE_STATS.buchberger_runs
    S = saturate(ideal(R3, x * z + y * z, R3.constant(3)), ideal(R3, z))
    assert S.generators == (R3.one(),) and ENGINE_STATS.buchberger_runs == runs


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


def test_saturation_colon_examples(R2):
    """Saturation is the one colon operation: X : I^inf is the
    intersection of the saturations by the generators of I."""
    x, y = R2.variables()
    Q = saturate(ideal(R2, x * y), ideal(R2, x))
    assert groebner_fingerprint(Q) == groebner_fingerprint(ideal(R2, y))
    assert buchberger(saturate(ideal(R2, x ** 2), ideal(R2, x))).is_unit

    # (x^2, xy) : (x, y)^inf = (1) cap (x): the embedded prime (x, y) goes
    X = ideal(R2, x ** 2, x * y)
    meet = intersect(saturate(X, ideal(R2, x)), saturate(X, ideal(R2, y)))
    assert groebner_fingerprint(meet) == groebner_fingerprint(ideal(R2, x))


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
        lifted = Rtxy.poly({(0,) + m: c for c, m in g.terms()})
        assert normal_form(lifted, gb).is_zero
        assert all(m[0] == 0 for _, m in lifted.terms())


def test_degree_budget_is_reported(R2, monkeypatch):
    """The generators x^3 - y^2 and x y^2 lead in degree 3, within a
    budget of three; the S-pair element y^4 trips it."""
    x, y = R2.variables()
    clear_caches()
    monkeypatch.setattr(groebner, "MAX_DEGREE", 3)
    with pytest.raises(ResourceLimitError, match="leading degree 4 exceeds budget 3") as info:
        buchberger(ideal(R2, x ** 3 - y ** 2, x * y ** 2), GREVLEX)
    assert info.value.stats == {"basis_size": 2, "degree": 4}


def test_basis_size_budget_is_reported(R2, monkeypatch):
    """The grevlex basis of (x^3 - y^2, x y^2) adds y^4 to the generators:
    a budget of two trips on it."""
    x, y = R2.variables()
    clear_caches()
    monkeypatch.setattr(groebner, "MAX_BASIS", 2)
    with pytest.raises(ResourceLimitError, match="basis size 3 exceeds budget 2") as info:
        buchberger(ideal(R2, x ** 3 - y ** 2, x * y ** 2), GREVLEX)
    assert info.value.stats == {"basis_size": 3}


def test_equal_ideals_hash_equal(R2):
    x, y = R2.variables()
    assert ideal(R2, x, y) == ideal(R2, y, x)
    assert hash(ideal(R2, x, y)) == hash(ideal(R2, y, x))


def test_divisor_memo_matches_memo_free_reduction():
    """Reductions sharing one divisor memo while the basis grows by
    appending give the remainder of memo-free ones."""
    rng = random.Random(5)
    key = _memo_key(GREVLEX, 3)
    pack = key.__self__.pack

    def vector(terms, deg):
        v = {}
        for _ in range(terms):
            e = pack(tuple(rng.randint(0, deg) for _ in range(3)))
            v[e] = v.get(e, 0) + rng.choice((-3, -2, -1, 1, 2, 5))
        return {e: c for e, c in v.items() if c}

    for _ in range(20):
        basis, lts, divisors = [], [], {}
        for _ in range(6):
            g = vector(rng.randint(1, 3), 2)
            if not g:
                continue
            basis.append(g)
            lts.append(max(g, key=key))
            for _ in range(5):
                p = vector(rng.randint(2, 8), 4)
                shared = _reduce_raw(p, basis, lts, key, divisors=divisors)
                assert shared == _reduce_raw(p, basis, lts, key)
        assert divisors


def test_engine_counters_of_fixed_ideals(R3):
    """S-pairs reduced, basis size and lead degree of fixed completions
    under the grevlex, block and tangent-cone orders; they change when
    the pair selection order or the pair criteria change."""
    x, y, z = R3.variables()
    block = PolynomialRing(R3.variable_names, block_order(1))

    def in_block(*polys):
        return ideal(block, *(Polynomial(block, dict(p.coeffs)) for p in polys))

    cases = [
        (ideal(R3, x ** 3 - y * z, y ** 3 - x * z ** 2 + x, z ** 3 - x ** 2 * y),
         GREVLEX, (8, 6, 6)),
        (ideal(R3, x ** 2 + y * z - 2 * z ** 2, x * y ** 2 - z ** 3 + y, y ** 3 - x * z),
         GREVLEX, (9, 7, 6)),
        (in_block(x * y - z ** 2 + 1, x * z - y ** 3, x ** 2 - y * z + 2 * z),
         block.order, (16, 9, 5)),
        (in_block(x * (y + z) - 1, y ** 2 * z - z ** 3, y ** 3 - x * z ** 2),
         block.order, (29, 16, 5)),
        (_homogenize(ideal(R3, x ** 2 - y ** 3 + z ** 4, x * y - z ** 3,
                           y ** 2 * z + x ** 3)),
         TANGENT_CONE, (22, 12, 8)),
        (_homogenize(ideal(R3, x * z - y ** 3 - x ** 4, y ** 2 + z ** 3 - x * z ** 2)),
         TANGENT_CONE, (4, 4, 8)),
    ]
    for I, order, expected in cases:
        clear_caches()
        ENGINE_STATS.reset()
        buchberger(I, order)
        stats = ENGINE_STATS
        assert (stats.spairs_reduced, stats.max_basis_size, stats.max_lt_degree) == expected

    # A homogeneous saturation whose cut basis is already cached, as in a
    # polar stage: seeded with that basis the elimination reduces 8
    # S-pairs, against 10 from the cut's generators.
    I = ideal(R3, x * y - z ** 2, (x + y) * (x ** 2 - y * z), z ** 3 - x * y * z)
    clear_caches()
    buchberger(I, GREVLEX)
    ENGINE_STATS.reset()
    saturate(I, ideal(R3, x + 2 * y - z))
    stats = ENGINE_STATS
    assert (stats.buchberger_runs, stats.spairs_reduced, stats.max_basis_size,
            stats.max_lt_degree) == (1, 8, 7, 5)


def test_elimination_hands_its_grevlex_basis_to_the_cache(R3):
    """The grevlex basis of a saturation or elimination comes from the
    block-order basis that produced it, and equals a fresh computation."""
    x, y, z = R3.variables()
    makers = [
        lambda: saturate(ideal(R3, x * y - z ** 2, (x + y) * (x ** 2 - y * z), z ** 3 - x * y * z),
                         ideal(R3, x + 2 * y - z)),
        lambda: eliminate(ideal(R3, x - y * z, y ** 2 - z ** 3 + x, x * z - y), 2),
    ]
    for make in makers:
        clear_caches()
        I = make()
        runs = ENGINE_STATS.buchberger_runs
        handed = buchberger(I, GREVLEX)
        assert ENGINE_STATS.buchberger_runs == runs
        clear_caches()
        fresh = buchberger(I, GREVLEX)
        assert ENGINE_STATS.buchberger_runs == runs + 1
        assert len(fresh.basis) > 2
        assert handed == fresh
        assert (handed.rows, handed.leads) == (fresh.rows, fresh.leads)


def test_cache_key_is_the_generator_tuple(R2):
    """The same generators in the same order hit the cache; a permutation
    or a repeated generator is a new request with the same basis."""
    x, y = R2.variables()
    clear_caches()
    first = buchberger(ideal(R2, x ** 2 + y, x * y - 1))
    runs = ENGINE_STATS.buchberger_runs
    assert buchberger(ideal(R2, x ** 2 + y, x * y - 1)) is first
    assert ENGINE_STATS.buchberger_runs == runs
    assert buchberger(ideal(R2, x * y - 1, x ** 2 + y)) == first
    assert ENGINE_STATS.buchberger_runs == runs + 1
    buchberger(ideal(R2, x * y - 1, x ** 2 + 2 * y))
    assert ENGINE_STATS.buchberger_runs == runs + 2
    single = buchberger(ideal(R2, x + y ** 2))
    assert ENGINE_STATS.buchberger_runs == runs + 3
    assert buchberger(ideal(R2, x + y ** 2, x + y ** 2)) == single
    assert ENGINE_STATS.buchberger_runs == runs + 4


def test_cached_basis_keeps_the_ring_of_the_request():
    """Two rings with the same variables but different orders do not
    share a cached basis, so the result does not depend on what ran
    earlier."""
    grevlex = PolynomialRing(["x", "y"])
    lex = PolynomialRing(["x", "y"], LEX)
    clear_caches()
    for ring in (grevlex, lex):
        x, y = ring.variables()
        gb = buchberger(ideal(ring, x ** 2 + y, y ** 2), GREVLEX)
        assert gb.ring == ring
        assert normal_form(x ** 3, gb) == -x * y


P31 = 2147483629  # a prime just below 2^31


def _random_ideal(rng, ring):
    """Two or three sparse generators of degree at most 3 with small
    integer coefficients."""
    n = ring.nvars
    gens = []
    for _ in range(rng.randint(2, 3)):
        coeffs = {}
        for _ in range(rng.randint(2, 4)):
            e = [0] * n
            for _ in range(rng.randint(1, 3)):
                e[rng.randrange(n)] += 1
            coeffs[tuple(e)] = rng.choice((-7, -3, -2, -1, 1, 2, 5, 11))
        gens.append(ring.poly(coeffs))
    return ideal(ring, *gens)


def _sympy_expr(sympy, symbols, f):
    return sum(sympy.Rational(c.numerator, c.denominator)
               * sympy.prod([v ** k for v, k in zip(symbols, m)]) for c, m in f.terms())


def test_gfp_bases_match_sympy():
    """Reduced grevlex bases over GF(p) equal sympy's on 30 seeded random
    ideals in 2-4 variables, up to the representative of each residue."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    for case in range(30):
        n = 2 + case % 3
        names = ["x", "y", "z", "w"][:n]
        p = (P31, 32003, 7)[case % 3]
        ring = PolynomialRing(names).over(p)
        I = _random_ideal(rng, ring)
        ours = {frozenset((m, c) for c, m in g.terms()) for g in buchberger(I).basis}
        symbols = sympy.symbols(names)
        exprs = [_sympy_expr(sympy, symbols, g) for g in I.generators]
        theirs = set()
        for poly in sympy.groebner(exprs, *symbols, order="grevlex", modulus=p).polys:
            terms = {e: int(c) % p for e, c in poly.terms()}
            inv = pow(terms[max(terms, key=GREVLEX.key_function(n))], -1, p)
            theirs.add(frozenset((e, c * inv % p) for e, c in terms.items()))
        assert ours == theirs, (case, I)


def test_normal_form_matches_sympy_remainder():
    """The remainder of a random polynomial modulo a reduced grevlex basis
    equals sympy's remainder modulo its own basis, on 24 seeded random
    ideals in 2-3 variables over QQ with fractional coefficients, GF(7)
    and GF(2147483629)."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(23)
    fractions = [Fraction(n, d) for n in (-5, -2, -1, 1, 3, 7) for d in (1, 2, 3)]
    for case in range(24):
        p = (0, 7, P31)[case % 3]
        names = ["x", "y", "z"][:2 + case // 3 % 2]
        ring = PolynomialRing(names)
        I = _random_ideal(rng, ring)
        I = ideal(ring, *(g * rng.choice(fractions) + rng.choice(fractions) * ring.variable(0)
                          for g in I.generators)).over(p)
        f = ring.poly({tuple(rng.randint(0, 3) for _ in names): rng.choice(fractions)
                       for _ in range(5)}) + ring.constant(rng.choice(fractions))
        f = ring.over(p).image(f)
        ours = normal_form(f, buchberger(I))

        symbols = sympy.symbols(names)
        kwargs = {"modulus": p} if p else {}
        G = sympy.groebner([_sympy_expr(sympy, symbols, g) for g in I.generators], *symbols,
                           order="grevlex", **kwargs)
        _, r = sympy.reduced(_sympy_expr(sympy, symbols, f), list(G.exprs), *symbols,
                             order="grevlex", **kwargs)
        theirs = {e: (Fraction(int(c.p), int(c.q)) if not p else int(c) % p)
                  for e, c in sympy.Poly(r, *symbols).terms() if c}
        assert {m: c for c, m in ours.terms()} == theirs, (case, I, f)


def test_gfp_rings_keep_residues_and_their_field():
    """A GF(p) ring stores residues in [0, p), takes part in equality,
    hashing and repr, and passes its field to every derived ring; the
    cache keeps two primes apart."""
    R = PolynomialRing(["x", "y", "z"])
    F = R.over(7)
    assert F != R and hash(F) != hash(R) and repr(F) == "GF(7)[x, y, z; grevlex]"
    assert R.over(0) is R and F.over(7) is F
    x, y, z = F.variables()
    f = F.image(R.poly({(1, 0, 0): Fraction(1, 2), (0, 1, 0): -3}))
    assert {m: c for c, m in f.terms()} == {(1, 0, 0): 4, (0, 1, 0): 4}
    for g in (f * f - 3 * x * y, -f, f.derivative(0), f * Fraction(2, 3) + 1):
        assert all(isinstance(c, int) and 0 < c < 7 for c in g.coeffs.values())
    assert (x ** 7).derivative(0).is_zero
    assert _extended_ring(F).modulus == 7
    assert eliminate(ideal(F, x - y, y - z), 1).ring.modulus == 7
    assert _homogenize(ideal(F, x + y ** 2)).ring.modulus == 7
    gb = buchberger(ideal(F, x * y - 1, x ** 2 + y))
    assert verify_basis(gb)
    assert all(c < 7 for g in gb.basis for c in g.coeffs.values())
    assert all(g.leading_item()[1] == 1 for g in gb.basis)
    assert normal_form(x ** 3 * y + y, gb).is_zero  # x^3 y = x^2 = -y
    assert saturate(ideal(F, 3 * x * y, x * z + x), ideal(F, 2 * x)) == ideal(F, y, z + 1)
    G5 = F.over(5)
    u, v, _ = G5.variables()
    assert buchberger(ideal(G5, u * v - 1, u ** 2 + v)).ring == G5
    buchberger(ideal(R, R.variable(0) + R.variable(1) ** 2))  # the same over QQ, then GF(5)
    runs = ENGINE_STATS.buchberger_runs
    assert buchberger(ideal(G5, u + v ** 2)).ring == G5
    assert ENGINE_STATS.buchberger_runs == runs + 1


def _random_homogeneous_ideal(rng, ring):
    """Two or three homogeneous generators of degree 1 to 3, each with two
    to four terms and small integer coefficients."""
    n = ring.nvars
    gens = []
    for _ in range(rng.randint(2, 3)):
        degree = rng.randint(1 if n > 2 else 2, 3)
        coeffs = {}
        for _ in range(rng.randint(2, 4)):
            e = [0] * n
            for _ in range(degree):
                e[rng.randrange(n)] += 1
            coeffs[tuple(e)] = rng.choice((-7, -3, -2, -1, 1, 2, 5, 11))
        gens.append(ring.poly(coeffs))
    return ideal(ring, *gens)


def test_seeded_saturation_equals_a_fresh_one(cfg):
    """An elimination seeded with the reduced grevlex basis of a
    homogeneous ideal, plus t g - 1, reaches the same reduced basis as
    one started from the same generators with no seed, and reduces no
    more S-pairs; `saturate`, which seeds it, agrees with the
    generator-by-generator reference.  30 seeded ideals on C^2 to C^4,
    over QQ and over GF(p)."""
    rng = random.Random(17)
    grew = 0
    for case in range(30):
        n = 2 + case % 3
        ring = PolynomialRing(["x", "y", "z", "w"][:n]).over((0, P31, 32003)[case // 3 % 3])
        I = _random_homogeneous_ideal(rng, ring)
        xs = ring.variables()
        J = ideal(ring, *(sum((rng.randint(-3, 3) * v for v in xs), ring.zero()) + xs[k]
                          for k in (0, 1)))
        g = generic_tuple(J, 1, cfg).combinations[0]
        clear_caches()
        gb = buchberger(I, GREVLEX)
        grew += len(gb.basis) > len(I.generators)

        ext = _extended_ring(ring)
        key = _memo_key(ext.order, ext.nvars)
        m = ring.modulus
        aux = _normalise((ext.variable(0) * _lift(g, ext) - ext.one()).coeffs, key, m)
        runs = []
        for known, start in ((0, gb.basis), (len(gb.basis), gb.basis), (0, I.generators)):
            gens = [_normalise(_lift(f, ext).coeffs, key, m) for f in start] + [aux]
            ENGINE_STATS.reset()
            runs.append((_buchberger_raw(gens, key, modulus=m, known=known),
                         ENGINE_STATS.spairs_reduced))
        (fresh, fresh_pairs), (seeded, seeded_pairs), (generators, _) = runs
        assert seeded == fresh == generators, (case, I)
        assert seeded_pairs <= fresh_pairs, (case, I)

        expected = saturation_by_generators(I, J)
        assert groebner_fingerprint(saturate(I, ideal(ring, g))) == \
            groebner_fingerprint(expected), (case, I)
    assert grew


def test_every_raw_run_lies_inside_a_buchberger_call(R2, R3, germ2, cfg, monkeypatch):
    """Every completion is a `buchberger` call: with both names wrapped at
    every binding in segrenum's modules, as a tracer outside the package
    wraps them, no `_buchberger_raw` run starts outside a `buchberger`
    call, through a closure battery, a Whitney battery and the `segre`
    and `chain` commands."""
    from conftest import CORPUS
    from segrenum import cli, closure_battery
    from segrenum.equising import FunctionGerm, whitney_battery

    real_gb, real_raw = groebner.buchberger, groebner._buchberger_raw
    depth, runs = [0], []

    def traced_gb(*args, **kwargs):
        depth[0] += 1
        try:
            return real_gb(*args, **kwargs)
        finally:
            depth[0] -= 1

    def traced_raw(*args, **kwargs):
        runs.append(depth[0])
        return real_raw(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "segrenum" or name.startswith("segrenum.")):
            for attr, obj in list(vars(mod).items()):
                if obj is real_gb:
                    monkeypatch.setattr(mod, attr, traced_gb)
                elif obj is real_raw:
                    monkeypatch.setattr(mod, attr, traced_raw)

    clear_caches()
    x, y = R2.variables()
    closure_battery(germ2, ideal(R2, x ** 2, y ** 2), ideal(R2, x ** 2, x * y, y ** 3), cfg)
    u, v, w = R3.variables()
    whitney_battery(FunctionGerm(u ** 2 + v ** 2 + w ** 2),
                    FunctionGerm(u ** 2 + v ** 2 + w ** 3), cfg)
    for argv in (["segre", "codim1_pair.ideal", "I1"], ["chain", "codim1_pair.ideal", "I2"]):
        assert cli.main([argv[0], str(CORPUS / argv[1]), argv[2]]) == 0
    assert runs and 0 not in runs


def _random_monomial_ideal(rng, ring):
    """Seeded monomial generators, some dividing others or repeated, with
    coefficients other than 1; at times the constant 1 (the unit ideal),
    or none at all (the zero ideal)."""
    n = ring.nvars
    if rng.random() < 0.1:
        return ideal(ring)
    gens = []
    for _ in range(rng.randint(1, 6)):
        e = tuple(rng.randint(0, 3) for _ in range(n))
        gens.append(ring.poly({e: rng.choice([1, 2, -3, Fraction(5, 7)])}))
        if rng.random() < 0.3:
            gens.append(gens[rng.randrange(len(gens))] * 4)
    if rng.random() < 0.1:
        gens.append(ring.constant(3))
    rng.shuffle(gens)
    return ideal(ring, *gens)


@pytest.mark.parametrize("modulus", [0, P31])
def test_monomial_bases_match_the_kernel(modulus):
    """An ideal of single terms takes its minimal monomials, monic, in
    descending order, with no kernel run: on seeded monomial ideals over
    QQ and GF(p), under grevlex, lex, a block order and the tangent-cone
    order, `buchberger` gives the basis, rows and leads of
    `_buchberger_raw` followed by `_monic`, and leaves ENGINE_STATS as it
    was, on its first call and on a repeat, which hits the cache."""
    rng = random.Random(47 + modulus % 97)
    for names in (["x"], ["x", "y"], ["x", "y", "z"], ["x", "y", "z", "w"]):
        for order in (GREVLEX, LEX, block_order(1), TANGENT_CONE):
            if order == block_order(1) and len(names) < 2:
                continue
            R = PolynomialRing(names, order).over(modulus)
            key = _memo_key(order, R.nvars)
            for _ in range(6):
                I = _random_monomial_ideal(rng, R)
                rows, leads = _buchberger_raw(
                    [_normalise(g.coeffs, key, modulus) for g in I.generators], key,
                    modulus=modulus)
                clear_caches()
                before = ENGINE_STATS.snapshot()
                gb = buchberger(I, order)
                assert ENGINE_STATS.snapshot() == before
                assert (gb.basis, gb.rows, gb.leads) == \
                    (groebner._monic(R, rows, leads), rows, leads)
                assert buchberger(I, order) is gb
                assert ENGINE_STATS.snapshot() == before


def test_monomial_bases_keep_the_size_budget(R2, monkeypatch):
    """The minimal monomials count against `MAX_BASIS`: (x^3, x^2 y, x y^2,
    y^3, x^3 y) has four, and a budget of three trips on the fourth."""
    x, y = R2.variables()
    clear_caches()
    monkeypatch.setattr(groebner, "MAX_BASIS", 3)
    with pytest.raises(ResourceLimitError, match="basis size 4 exceeds budget 3"):
        buchberger(ideal(R2, x ** 3, x ** 2 * y, x * y ** 2, y ** 3, x ** 3 * y))
    monkeypatch.setattr(groebner, "MAX_BASIS", 4)
    assert len(buchberger(ideal(R2, x ** 3, x ** 2 * y, x * y ** 2, y ** 3, x ** 3 * y)).basis) == 4
