import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segrenum import (
    TupleTriple,
    closure_battery,
    criteria,
    ideal,
    ideal_product,
    integer_kth_root,
    minkowski_check,
    mixed_inequality_check,
    power_equivalence_probe,
    product_formula_check,
    radical_sum_compare,
    rees_test,
    segre_profile,
    teissier_criterion,
    tuple_lemma,
)
from segrenum.criteria import MixedNumberCache
from segrenum.errors import PreconditionError

from oracles import in_newton_polyhedron, newton_covolume_2d


# -- the combinatorial lemma ---------------------------------------------------

def test_tuple_lemma_examples():
    r = tuple_lemma(TupleTriple((1, 2), (1, 2), (1, 2)))
    assert (r.hypothesis_ok, r.sums_equal, r.componentwise_equal) == (True, True, True)

    r = tuple_lemma(TupleTriple((1, 1), (2, 1), (1, 1)))
    assert r.hypothesis_ok and not r.sums_equal and not r.componentwise_equal

    r = tuple_lemma(TupleTriple((2, 2), (4, 1), (1, 4)))
    assert r.hypothesis_ok and not r.sums_equal and not r.componentwise_equal

    with pytest.raises(PreconditionError):
        tuple_lemma(TupleTriple((1,), (1, 2), (1,)))


def test_tuple_lemma_fuzz_ten_thousand():
    rng = random.Random(19731)
    from math import isqrt
    for _ in range(10_000):
        k = rng.randint(1, 6)
        b = tuple(rng.randint(0, 30) for _ in range(k))
        c = tuple(rng.randint(0, 30) for _ in range(k))
        a = tuple(rng.randint(0, isqrt(bi * ci)) for bi, ci in zip(b, c))
        # a violated equivalence raises ConsistencyError inside
        result = tuple_lemma(TupleTriple(a, b, c))
        assert result.hypothesis_ok


# -- Teissier chain -------------------------------------------------------------

def test_teissier_same_closure(germ2, R2, cfg):
    x, y = R2.variables()
    rep = teissier_criterion(germ2, ideal(R2, x ** 2, y ** 2),
                             ideal(R2, x ** 2, x * y, y ** 2), cfg)
    assert rep.values["chain"] == (4, 4, 4)
    assert rep.holds


def test_teissier_different_closure(germ2, R2, cfg):
    x, y = R2.variables()
    rep = teissier_criterion(germ2, ideal(R2, x, y), ideal(R2, x ** 2, y ** 3), cfg)
    assert rep.values["chain"] == (1, 2, 6)
    assert not rep.holds


def test_teissier_reflexive(germ2, R2, cfg):
    x, y = R2.variables()
    I = ideal(R2, x ** 2, y ** 3)
    rep = teissier_criterion(germ2, I, I, cfg)
    assert rep.holds


def test_teissier_requires_primary(germ2, R2, cfg):
    x, y = R2.variables()
    with pytest.raises(PreconditionError):
        teissier_criterion(germ2, ideal(R2, x), ideal(R2, x, y), cfg)


# -- closure battery -------------------------------------------------------------

def test_battery_divisor_pair_fails_at_two(germ3, divisor_pair, cfg):
    rep = closure_battery(germ3, *divisor_pair, cfg=cfg)
    assert not rep.holds
    by_id = {v.criterion_id: v for v in rep.verdicts}
    assert by_id["j=1"].holds
    assert not by_id["j=2 left"].holds
    assert "1" in by_id["j=2 left"].witness


def test_battery_reflexive(germ3, R3, cfg):
    z = R3.variables()[2]
    rep = closure_battery(germ3, ideal(R3, z), ideal(R3, z), cfg)
    assert rep.holds


def test_battery_same_closure_pair(germ2, R2, cfg):
    x, y = R2.variables()
    rep = closure_battery(germ2, ideal(R2, x ** 2, y ** 2),
                          ideal(R2, x ** 2, x * y, y ** 2), cfg)
    assert rep.holds
    # battery success is consistent with profile equality
    assert rep.left_profile.e == rep.right_profile.e


def test_battery_positive_codim_one_pair(germ3, R3, cfg):
    """z*(x^2,y^2) and z*(x^2,xy,y^2) have the same closure (a principal
    factor times plane ideals that are reductions of each other): equal
    profiles and a passing battery on a pair with one-dimensional
    vanishing locus."""
    x, y, z = R3.variables()
    A = ideal(R3, x ** 2 * z, y ** 2 * z)
    B = ideal(R3, x ** 2 * z, x * y * z, y ** 2 * z)
    rep = closure_battery(germ3, A, B, cfg)
    assert rep.holds
    assert rep.left_profile.e == rep.right_profile.e == (1, 6, 0)


def test_battery_detects_axis_difference(germ3, R3, cfg):
    """z*(x,y) vanishes on the whole z-axis while z*(x,y,z) does not, so
    their closures differ in codimension two and the battery catches it;
    the containment test sees the same thing through the profiles."""
    x, y, z = R3.variables()
    A = ideal(R3, x * z, y * z)
    B = ideal(R3, x * z, y * z, z ** 2)
    assert segre_profile(germ3, A, cfg).e == (1, 2, 0)
    rep = closure_battery(germ3, A, B, cfg)
    assert not rep.holds
    by_id = {v.criterion_id: v for v in rep.verdicts}
    assert not by_id["j=2 left"].holds
    rt = rees_test(germ3, A, B, cfg)
    assert not rt.holds


def test_battery_table_boundaries(germ3, divisor_pair, cfg):
    rep = closure_battery(germ3, *divisor_pair, cfg=cfg)
    entries = rep.mixed.entries
    for k in (2, 3):
        if (k, k, 0) in entries:
            assert entries[(k, k, 0)] == rep.left_profile.e[k - 1]
        if (k, 0, k) in entries:
            assert entries[(k, 0, k)] == rep.right_profile.e[k - 1]


def test_table_lists_the_requested_keys(germ3, divisor_pair, cfg, monkeypatch):
    """The Whitney battery's reverse chain is the closure battery's right
    chain reversed, so a mirrored request computes no mixed Segre number
    of its own; `table()` lists every entry asked for, `table(keys)` only
    `keys`."""
    calls = []

    def fake_mixed_segre(germ, I1, I2, k, i, j, cfg_):
        calls.append((I1, I2, k, i, j))
        return 7

    monkeypatch.setattr(criteria, "mixed_segre", fake_mixed_segre)
    A, B = divisor_pair
    cache = MixedNumberCache(germ3, A, B, cfg)
    left, right = criteria._sides(cache, 3)
    assert calls == [(A, B, 3, 2, 1), (A, B, 3, 1, 2)]
    assert left[1:] == right[:2] == [7, 7]
    assert right[::-1] == [cache.e(2, 3), cache.mixed(3, 1, 2), cache.mixed(3, 2, 1)]
    assert len(calls) == 2
    assert cache.mixed(2, 0, 2) == cache.e(2, 2)
    assert len(calls) == 2
    forward = [(3, 2, 1), (2, 0, 2)]
    assert cache.table(forward).entries == {(3, 2, 1): 7, (2, 0, 2): cache.e(2, 2)}
    assert set(cache.table().entries) == {(3, 2, 1), (3, 1, 2), (2, 0, 2)}


# -- Rees test -------------------------------------------------------------------

def test_rees_reduction_pair(germ2, R2, cfg):
    x, y = R2.variables()
    rep = rees_test(germ2, ideal(R2, x ** 2, y ** 2),
                    ideal(R2, x ** 2, x * y, y ** 2), cfg)
    assert rep.holds
    assert rep.left_profile.e == (0, 4)


def test_rees_principal_pair(germ3, R3, cfg):
    z = R3.variables()[2]
    rep = rees_test(germ3, ideal(R3, z ** 2), ideal(R3, z), cfg)
    assert not rep.holds
    assert rep.left_profile.e == (2, 0, 0)
    assert rep.right_profile.e == (1, 0, 0)
    assert "e_1" in rep.verdicts[0].witness


def test_rees_fat_plane_pair(germ3, divisor_pair, cfg):
    I1, I2 = divisor_pair
    rep = rees_test(germ3, I2, I1, cfg)
    assert not rep.holds
    assert rep.left_profile.e == (1, 1, 2)
    assert rep.right_profile.e == (1, 0, 0)


def test_rees_containment_precondition(germ2, R2, cfg):
    x, y = R2.variables()
    with pytest.raises(PreconditionError):
        rees_test(germ2, ideal(R2, x), ideal(R2, y), cfg)


def _witness_values(report, witness):
    """The two numbers a chain witness names, each checked against the
    report's profiles and mixed table."""
    match = re.fullmatch(r"(\S+)=(\d+) differs from (\S+)=(\d+)", witness)
    assert match, witness
    values = []
    for label, text in (match.group(1, 2), match.group(3, 4)):
        plain = re.fullmatch(r"e_(\d+)\(I([12])\)", label)
        if plain:
            k, which = map(int, plain.groups())
            profile = report.left_profile if which == 1 else report.right_profile
            expected = profile.e[k - 1]
        else:
            k, i, j = map(int, re.fullmatch(r"e_(\d+)\^\{(\d+),(\d+)\}", label).groups())
            expected = report.mixed.entries[(k, i, j)]
        assert int(text) == expected, (witness, label)
        values.append(expected)
    return values


# x^a added to a monomial ideal I1 on C^3: both verdicts must say whether
# a lies in the Newton polyhedron of I1.  Two points, (1, 1, 0) for
# (x^2, y^2, z^2) and (2, 1, 0) for (x^3, y^3, z^3, xyz), lie on a compact
# face; (1, 1, 0) for (x^2, y^2) lies on a compact edge of a polyhedron of
# a non-m-primary ideal.
NEWTON_CASES = [
    ([(2, 0, 0), (0, 2, 0), (0, 0, 2)], (1, 1, 0)),
    ([(2, 0, 0), (0, 2, 0), (0, 0, 2)], (1, 0, 0)),
    ([(3, 0, 0), (0, 3, 0), (0, 0, 3)], (1, 1, 1)),
    ([(3, 0, 0), (0, 3, 0), (0, 0, 3)], (1, 1, 0)),
    ([(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)], (2, 1, 0)),
    ([(3, 0, 0), (0, 2, 0), (0, 0, 1)], (2, 1, 0)),
    ([(3, 0, 0), (0, 2, 0), (0, 0, 1)], (1, 1, 0)),
    ([(3, 0, 0), (1, 1, 0), (0, 3, 0)], (0, 2, 0)),
    ([(2, 0, 0), (0, 2, 0)], (1, 1, 0)),
    ([(2, 0, 0), (0, 2, 0)], (1, 0, 1)),
    ([(1, 0, 1), (0, 1, 1)], (0, 0, 2)),
]


def test_closure_verdicts_match_the_newton_polyhedron(germ3, R3, cfg):
    """For I2 = I1 + (x^a), I1 monomial, both ideals have the same
    integral closure iff a lies in the Newton polyhedron of I1: the
    closure battery and the Rees test must say so, and each failing
    verdict must name two numbers of its report that differ."""
    x, y, z = R3.variables()

    def monomial(e):
        return x ** e[0] * y ** e[1] * z ** e[2]

    inside = []
    for exponents, a in NEWTON_CASES:
        I1 = ideal(R3, *map(monomial, exponents))
        I2 = ideal(R3, *map(monomial, exponents + [a]))
        expected = in_newton_polyhedron(a, exponents)
        inside.append(expected)
        for report in (closure_battery(germ3, I1, I2, cfg), rees_test(germ3, I1, I2, cfg)):
            assert report.holds == expected, (exponents, a)
            for verdict in report.verdicts:
                if not verdict.holds:
                    left, right = _witness_values(report, verdict.witness)
                    assert left != right
    assert inside.count(True) == 5


# -- product formula -------------------------------------------------------------

def test_product_formula_plane_pair(germ2, R2, cfg):
    x, y = R2.variables()
    I1 = ideal(R2, x, y)
    I2 = ideal(R2, x ** 2, y ** 3)
    res = product_formula_check(germ2, I1, I2, 2, cfg)
    assert res.lhs == 11
    assert res.binomial_sum == 11
    assert res.plain_sum == 9
    assert res.verdict == "binomial"
    # oracle: covolume of the product monomial ideal
    prod = ideal_product(I1, I2)
    pts = [max(m for _, m in g.terms()) for g in prod.generators]
    assert 2 * newton_covolume_2d([tuple(e) for e in pts]) == 11


def test_product_formula_squared_maximal(germ2, R2, cfg):
    x, y = R2.variables()
    m = ideal(R2, x, y)
    res = product_formula_check(germ2, m, m, 2, cfg)
    assert res.lhs == 4 and res.binomial_sum == 4
    assert res.terms == (1, 1, 1)


def test_product_formula_principal_codim_one(germ3, R3, cfg):
    z = R3.variables()[2]
    I = ideal(R3, z)
    res = product_formula_check(germ3, I, I, 1, cfg)
    assert res.lhs == 2 and res.verdict == "both"
    assert res.hypothesis_met is True


def test_product_formula_rees_pair_binomial(germ2, R2, cfg):
    x, y = R2.variables()
    res = product_formula_check(germ2, ideal(R2, x ** 2, y ** 2),
                                ideal(R2, x ** 2, x * y, y ** 2), 2, cfg)
    assert res.lhs == 16 and res.terms == (4, 4, 4)
    assert res.binomial_sum == 16 and res.plain_sum == 12
    assert res.verdict == "binomial"


def test_codim_two_formulas_recorded_on_divisor_pair(germ3, divisor_pair, cfg):
    """Frozen engine values documenting that the codimension-two product
    and root formulas do not extend to this pair even though the
    codimension-one equalities hold: the codimension-two cycle of the
    fattened plane is purely a moving contribution from the origin, and
    the boundary term of the sum misses it.  The checks report; they do
    not assert."""
    I1, I2 = divisor_pair
    res = product_formula_check(germ3, I1, I2, 2, cfg)
    assert res.hypothesis_met is True
    assert res.lhs == 2
    assert res.terms == (1, 0, 0)
    assert res.binomial_sum == res.plain_sum == 1
    assert res.verdict == "neither"
    mk = minkowski_check(germ3, I1, I2, 2, cfg)
    assert mk.hypothesis_met is True
    assert (mk.product_number, mk.left_number, mk.right_number) == (2, 0, 1)
    assert mk.comparison == "gt" and not mk.holds

    # codimension one on the same pair: equality, orders add
    res1 = product_formula_check(germ3, I1, I2, 1, cfg)
    assert res1.verdict == "both" and res1.lhs == 2
    mk1 = minkowski_check(germ3, I1, I2, 1, cfg)
    assert mk1.comparison == "eq"


def test_product_checks_refuse_a_unit_ideal_before_the_product(germ3, R3, cfg, monkeypatch):
    """Both profiles come before the product's: when I1 is the unit ideal
    the product formula and the Minkowski check refuse it without asking
    for the profile of I1*I2."""
    x, y, z = R3.variables()
    U, I = ideal(R3, R3.one(), x), ideal(R3, x * y, y * z, z * x)
    requested = []
    real = criteria.segre_profile
    monkeypatch.setattr(criteria, "segre_profile",
                        lambda germ, J, cfg_: requested.append(J) or real(germ, J, cfg_))
    for check in (product_formula_check, minkowski_check):
        requested.clear()
        with pytest.raises(PreconditionError, match="unit ideal has no Segre data"):
            check(germ3, U, I, 3, cfg)
        assert requested == [U]


# -- exact root comparison --------------------------------------------------------

def test_integer_kth_root():
    assert integer_kth_root(0, 3) == 0
    assert integer_kth_root(1, 5) == 1
    assert integer_kth_root(26, 3) == 2
    assert integer_kth_root(27, 3) == 3
    assert integer_kth_root(10 ** 12, 2) == 10 ** 6
    big = 12345678901234567890
    r = integer_kth_root(big, 4)
    assert r ** 4 <= big < (r + 1) ** 4


@settings(deadline=None)
@given(x=st.integers(min_value=0, max_value=1 << 4000), k=st.integers(min_value=1, max_value=6))
def test_integer_kth_root_brackets_x(x, k):
    r = integer_kth_root(x, k)
    assert r ** k <= x < (r + 1) ** k


def test_radical_sum_compare():
    assert radical_sum_compare(11, 1, 6, 2) == "lt"
    assert radical_sum_compare(16, 4, 4, 2) == "eq"
    assert radical_sum_compare(17, 4, 4, 2) == "gt"
    assert radical_sum_compare(27, 1, 8, 3) == "eq"
    assert radical_sum_compare(28, 1, 8, 3) == "gt"
    assert radical_sum_compare(3, 1, 2, 1) == "eq"
    assert radical_sum_compare(50, 8, 18, 2) == "eq"  # sqrt50 = 2sqrt2+3sqrt2
    assert radical_sum_compare(0, 0, 0, 2) == "eq"
    assert radical_sum_compare(5, 5, 0, 4) == "eq"
    # 1400-digit sides a bracket at scale 2^4096 does not separate
    p, q = 10 ** 1400 + 7, 10 ** 1400 + 3
    A, B, C = 2 * (p + q) ** 2, 2 * p ** 2, 2 * q ** 2
    assert radical_sum_compare(A + 1, B, C, 2) == "gt"
    assert radical_sum_compare(A - 1, B, C, 2) == "lt"
    assert radical_sum_compare(A, B, C, 2) == "eq"
    # and 5000-digit sides
    p, q = 10 ** 5000 + 7, 10 ** 5000 + 3
    A, B, C = 2 * (p + q) ** 2, 2 * p ** 2, 2 * q ** 2
    assert radical_sum_compare(A + 1, B, C, 2) == "gt"
    assert radical_sum_compare(A - 1, B, C, 2) == "lt"
    assert radical_sum_compare(A, B, C, 2) == "eq"


def test_radical_sum_compare_refines_its_bracket(monkeypatch):
    """Near equality one bracket at scale 2^8 does not separate the two
    sides: both answers take a second, finer bracket (5 root calls become
    8), and each agrees with the exact k = 2 rule, which compares
    A - B - C with 2 sqrt(BC) by squaring."""
    B, C = 2 * 10 ** 6, 3 * 10 ** 6
    calls = []
    real = criteria.integer_kth_root
    monkeypatch.setattr(criteria, "integer_kth_root",
                        lambda n, k: calls.append(n) or real(n, k))
    for A, expected in ((9898979, "lt"), (9898980, "gt")):
        calls.clear()
        assert radical_sum_compare(A, B, C, 2) == expected
        assert len(calls) == 8
        d = A - B - C  # positive, so squaring keeps the order
        assert d > 0
        assert {1: "gt", -1: "lt"}[(d * d > 4 * B * C) - (d * d < 4 * B * C)] == expected


def test_minkowski_plane_pair(germ2, R2, cfg):
    x, y = R2.variables()
    res = minkowski_check(germ2, ideal(R2, x, y), ideal(R2, x ** 2, y ** 3), 2, cfg)
    assert res.comparison == "lt" and res.holds
    assert (res.product_number, res.left_number, res.right_number) == (11, 1, 6)


def test_minkowski_equality_squares(corpus_ideals, cfg):
    for germ, I in corpus_ideals:
        n = germ.n
        base = segre_profile(germ, I, cfg)
        if base.e[-1] == 0:
            continue  # not m-primary; the top-level equality claim is for colength cases
        res = minkowski_check(germ, I, I, n, cfg)
        assert res.comparison == "eq", (I, res)


def test_minkowski_m_primary_pairs(germ2, R2, cfg):
    """The root inequality holds on every m-primary corpus pair, and its
    equality cases are exactly the pairs where a small power probe finds
    matching closures."""
    x, y = R2.variables()
    m = ideal(R2, x, y)
    pairs = [
        (m, ideal(R2, x ** 2, y ** 3)),
        (ideal(R2, x ** 2, y ** 2), ideal(R2, x ** 2, x * y, y ** 2)),
        (m, ideal(R2, x ** 2, y ** 2)),
    ]
    for I1, I2 in pairs:
        res = minkowski_check(germ2, I1, I2, 2, cfg)
        assert res.holds
        probe_hits = [
            (a, b)
            for a in range(1, 3)
            for b in range(1, 3)
            if power_equivalence_probe(germ2, I1, I2, a, b, cfg).holds
        ]
        if res.comparison == "eq":
            assert probe_hits, (I1, I2)
        else:
            assert not probe_hits, (I1, I2)


def test_minkowski_principal_equality(germ3, R3, cfg):
    z = R3.variables()[2]
    res = minkowski_check(germ3, ideal(R3, z), ideal(R3, z ** 2), 1, cfg)
    assert res.comparison == "eq"
    probe = power_equivalence_probe(germ3, ideal(R3, z), ideal(R3, z ** 2), 2, 1, cfg)
    assert probe.holds


# -- mixed inequalities ------------------------------------------------------------

def test_mixed_inequalities_m_primary(germ2, R2, cfg):
    x, y = R2.variables()
    verdicts = mixed_inequality_check(germ2, ideal(R2, x, y), ideal(R2, x ** 2, y ** 3), cfg)
    applicable = [v for v in verdicts if v.applicable]
    assert applicable and all(v.holds for v in applicable)
    power = next(v for v in verdicts if "^n" in v.statement)
    assert power.numbers == {"mixed": 2, "e(I1)": 1, "e(I2)": 6}


def test_mixed_inequalities_reflexive(germ2, R2, cfg):
    x, y = R2.variables()
    I = ideal(R2, x ** 2, y ** 2)
    verdicts = mixed_inequality_check(germ2, I, I, cfg)
    assert all(v.holds for v in verdicts if v.applicable)


def test_mixed_inequalities_divisor_pair(germ3, divisor_pair, cfg):
    verdicts = mixed_inequality_check(germ3, *divisor_pair, cfg=cfg)
    k2 = [v for v in verdicts if "e_2" in v.statement]
    assert k2 and all(v.applicable for v in k2)
    assert all(v.holds for v in k2)
    k3 = [v for v in verdicts if "e_3" in v.statement]
    assert k3 and all(not v.applicable for v in k3)  # the j=2 equalities fail


# -- power equivalence probe ---------------------------------------------------------

def test_codim_two_equality_scenario(germ3, R3, cfg):
    """A codimension-two pair on C^3 whose Segre-support chain holds:
    the Minkowski equalities in every codimension match the existence of
    power-equivalent closures, here (x,y)^2 against (x^2,xy,y^2)."""
    x, y, z = R3.variables()
    axis = ideal(R3, x, y)
    square = ideal(R3, x ** 2, x * y, y ** 2)
    from segrenum import chain_condition, segre_profile

    assert chain_condition(germ3, axis, cfg)
    assert segre_profile(germ3, axis, cfg).e == (0, 1, 0)
    assert segre_profile(germ3, square, cfg).e == (0, 4, 0)
    for k in (2, 3):
        res = minkowski_check(germ3, axis, square, k, cfg)
        assert res.comparison == "eq"
    assert power_equivalence_probe(germ3, axis, square, 2, 1, cfg).holds


def test_power_probe_examples(germ2, germ3, R2, R3, divisor_pair, cfg):
    x, y = R2.variables()
    probe = power_equivalence_probe(germ2, ideal(R2, x, y), ideal(R2, x ** 2, y ** 2),
                                    2, 1, cfg)
    assert probe.holds
    probe = power_equivalence_probe(germ3, *divisor_pair, a=1, b=1, cfg=cfg)
    assert not probe.holds


def test_battery_success_implies_profile_equality(germ2, R2, cfg):
    x, y = R2.variables()
    pairs = [
        (ideal(R2, x ** 2, y ** 2), ideal(R2, x ** 2, x * y, y ** 2)),
        (ideal(R2, x, y), ideal(R2, x, y)),
    ]
    for I1, I2 in pairs:
        rep = closure_battery(germ2, I1, I2, cfg)
        if rep.holds:
            assert rep.left_profile.e == rep.right_profile.e
