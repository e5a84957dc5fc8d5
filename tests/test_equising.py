import random

import pytest

from segrenum import criteria, equising, groebner
from segrenum import (
    FunctionGerm,
    GenericityConfig,
    PolynomialRing,
    buchberger,
    closure_battery,
    contact_tangent_ideal,
    ideal,
    ideal_power,
    jacobian_ideal,
    make_germ,
    normal_form,
    whitney_battery,
)
from segrenum.errors import PreconditionError
from segrenum.groebner import ENGINE_STATS, clear_caches, groebner_fingerprint

from conftest import saturate_spy, semi_quasi_homogeneous


def test_function_germ_validation(R2):
    x, y = R2.variables()
    FunctionGerm(x ** 2 + y ** 2)
    with pytest.raises(PreconditionError):
        FunctionGerm(R2.zero())
    with pytest.raises(PreconditionError):
        FunctionGerm(x + R2.one())


def test_jacobian_examples(R2):
    x, y = R2.variables()
    J = jacobian_ideal(FunctionGerm(x ** 2 + y ** 2))
    assert groebner_fingerprint(J) == groebner_fingerprint(ideal(R2, x, y))

    J = jacobian_ideal(FunctionGerm(x ** 2 - y ** 3))
    assert groebner_fingerprint(J) == groebner_fingerprint(ideal(R2, x, y ** 2))

    J = jacobian_ideal(FunctionGerm(x * y * (x + y)))
    assert groebner_fingerprint(J) == groebner_fingerprint(
        ideal(R2, 2 * x * y + y ** 2, x ** 2 + 2 * x * y)
    )


def test_leibniz_rule_fuzz(R2):
    rng = random.Random(140)
    from fractions import Fraction

    def rand_poly():
        coeffs = {}
        for _ in range(rng.randint(1, 4)):
            e = (rng.randint(0, 3), rng.randint(0, 3))
            coeffs[e] = Fraction(rng.randint(-5, 5))
        return R2.poly(coeffs)

    for _ in range(200):
        f, g = rand_poly(), rand_poly()
        for var in (0, 1):
            lhs = (f * g).derivative(var)
            rhs = f * g.derivative(var) + g * f.derivative(var)
            assert lhs == rhs


def test_contact_tangent_examples(R2):
    x, y = R2.variables()
    T = contact_tangent_ideal(FunctionGerm(x ** 2 + y ** 2))
    assert groebner_fingerprint(T) == groebner_fingerprint(
        ideal(R2, x ** 2, x * y, y ** 2)
    )

    T = contact_tangent_ideal(FunctionGerm(x))
    assert groebner_fingerprint(T) == groebner_fingerprint(ideal(R2, x, y))

    T = contact_tangent_ideal(FunctionGerm(x ** 2 - y ** 3))
    assert groebner_fingerprint(T) == groebner_fingerprint(
        ideal(R2, x ** 2, x * y, y ** 3)
    )


def test_tangent_ideal_contains_f_and_sits_in_m(R2):
    x, y = R2.variables()
    for f in (x ** 2 + y ** 2, x ** 3 - x * y, y ** 2 - x ** 5):
        germ = FunctionGerm(f)
        T = contact_tangent_ideal(germ)
        assert all(g.constant_term == 0 for g in T.generators)
        assert normal_form(f, buchberger(T)).is_zero


def test_whitney_battery_pass_and_fail(R2, cfg):
    x, y = R2.variables()
    same = whitney_battery(FunctionGerm(x ** 2 + y ** 2), FunctionGerm(x ** 2 + y ** 2), cfg)
    assert same.holds

    equiv = whitney_battery(FunctionGerm(x ** 2 + y ** 2), FunctionGerm(x ** 2 + 2 * y ** 2), cfg)
    assert equiv.holds

    differ = whitney_battery(FunctionGerm(x ** 2 + y ** 2), FunctionGerm(x ** 2 + y ** 3), cfg)
    assert not differ.holds
    assert differ.left_profile.e == (0, 4)
    assert differ.right_profile.e == (0, 5)


def test_whitney_battery_symmetry(R2, cfg):
    x, y = R2.variables()
    f0, f1 = FunctionGerm(x ** 2 + y ** 2), FunctionGerm(x ** 2 + y ** 3)
    a = whitney_battery(f0, f1, cfg)
    b = whitney_battery(f1, f0, cfg)
    assert a.holds == b.holds


def test_whitney_battery_three_variables(R3, cfg):
    x, y, z = R3.variables()
    quadric = FunctionGerm(x ** 2 + y ** 2 + z ** 2)
    scaled = FunctionGerm(x ** 2 + y ** 2 + 2 * z ** 2)
    assert whitney_battery(quadric, scaled, cfg).holds

    corank = FunctionGerm(x ** 2 + y ** 2 + z ** 3)
    report = whitney_battery(quadric, corank, cfg)
    assert not report.holds
    # e_3 is the Milnor-type colength: 8 for the quadric's m^2, 9 for
    # the corank-one germ's contact tangent ideal
    assert report.left_profile.e == (0, 0, 8)
    assert report.right_profile.e == (0, 0, 9)


def test_whitney_corank_work(R3, cfg, monkeypatch):
    """Both germs have isolated singularities, so the battery takes every
    number from Teissier's expansion in m, J0 = (x, y, z) and
    J1 = (x, y, z^2): no saturation from cold caches, against 20 when
    the stage chains of the tangent ideals saturated stages 1 and 2 and
    28 when stage 3 was too, with the same numbers.  J0 is generated in
    degree 1, so every term folds it into m; e(m^[2] | J1^[1]) is
    ord(J1) = 1 by the order rule, and e(m^[1] | J1^[2]) is 1 * 1 by the
    simplex rule, as J1 is monomial with b = (1, 1, 2); the tests of J0
    and J1 read e(J1) = 2 off their minimal monomials.  So nothing
    completes: 0 completions and 0 S-pairs, against 4 and 3 when
    e(m^[1] | J1^[2]) ran its two rounds and the tests of J0 and J1 ran
    the kernel (the next test keeps such rounds), 6 and 4
    when e(m^[2] | J1^[1]) ran its two rounds, 48 S-pairs when the
    battery ran on the tangent ideals, whose mixed numbers e_3^{2,1} and
    e_3^{1,2} read the colength of three elements drawn from T0 and T1,
    54 when the profile of T0 = m^2 ran rounds that completed their
    three cuts, 88 when those completions had no Hilbert bound, 98 when
    each mixed round read three combinations of its drawn elements and ran
    odd rounds unswapped, 90 when that profile ran the
    stage chain, whose prefixes bound each cut's series, 72 when the
    mixed numbers ran it too, 80 when e_2^{1,1}, below the codimension 3
    of both sources, ran its rounds, 176 when each certificate also
    completed J + (g), 188 with stages 1 and 2 saturated, 272 without the
    Hilbert bound and 672 with stage 3 saturated as well."""
    x, y, z = R3.variables()
    calls = saturate_spy(monkeypatch)
    clear_caches()
    ENGINE_STATS.reset()
    report = whitney_battery(FunctionGerm(x ** 2 + y ** 2 + z ** 2),
                             FunctionGerm(x ** 2 + y ** 2 + z ** 3), cfg)
    assert (len(calls), ENGINE_STATS.buchberger_runs, ENGINE_STATS.spairs_reduced) == (0, 0, 0)
    assert (report.left_profile.e, report.right_profile.e) == ((0, 0, 8), (0, 0, 9))
    assert report.mixed.entries == {(2, 1, 1): 0, (2, 0, 2): 0, (3, 2, 1): 8, (3, 1, 2): 8}
    assert [v.holds for v in report.verdicts] == [True, True, True, False]


def test_whitney_work_of_a_jacobian_ideal_that_is_not_monomial(R3, cfg, monkeypatch):
    """x^2 + y^2 + z^3 + xz^2 is the A2 singularity of
    `test_whitney_corank_work` after x -> x + z^2 / 2, but its Jacobian
    ideal J1 = (2x + z^2, 2y, 3z^2 + 2xz) is not monomial, so no rule
    answers e(m^[1] | J1^[2]) = 1: it certifies one colength in two
    rounds, and the test of J1 completes once.  The three completions
    reduce 5 S-pairs, and the report is that of the monomial pair."""
    x, y, z = R3.variables()
    calls = saturate_spy(monkeypatch)
    clear_caches()
    ENGINE_STATS.reset()
    report = whitney_battery(FunctionGerm(x ** 2 + y ** 2 + z ** 2),
                             FunctionGerm(x ** 2 + y ** 2 + z ** 3 + x * z ** 2), cfg)
    assert (len(calls), ENGINE_STATS.buchberger_runs, ENGINE_STATS.spairs_reduced) == (0, 3, 5)
    assert (report.left_profile.e, report.right_profile.e) == ((0, 0, 8), (0, 0, 9))
    assert report.mixed.entries == {(2, 1, 1): 0, (2, 0, 2): 0, (3, 2, 1): 8, (3, 1, 2): 8}
    assert [v.holds for v in report.verdicts] == [True, True, True, False]


def test_closure_battery_work(cfg, monkeypatch):
    """The closure battery of (x^2, y^2, z^2, w^2) against m^2 on C^4,
    from cold caches, saturates nothing.  The mixed numbers of levels 1
    to 3, below the codimension 4 of both sources, are 0 without a round.  Both sources
    are generated by forms of degree 2, so by Rees's theorem their
    profiles and the level-4 numbers are those of m^2, also without a
    round.  Both sources are monomial, so their dimensions over QQ read
    their minimal monomials and nothing completes: 0 completions and 0
    S-pairs, against 2 and 0 when those dimensions ran the kernel, 12 and 60 when each
    profile round and each level-4 round completed its four cuts under
    the complete-intersection bound on their series, 12 and 196 when
    those completions had no Hilbert bound, 28 and 166 when the
    profiles ran the stage chain, whose prefixes bound each cut's
    series, 48 and 86 when the level-4 numbers ran it too, 64 and 104
    when the lower levels ran their rounds, and 104 completions and 256
    S-pairs when each certificate also completed J + (g)."""
    R4 = PolynomialRing(["x", "y", "z", "w"])
    m = ideal(R4, *R4.variables())
    calls = saturate_spy(monkeypatch)
    clear_caches()
    ENGINE_STATS.reset()
    report = closure_battery(make_germ(R4), ideal(R4, *(v ** 2 for v in R4.variables())),
                             ideal_power(m, 2), cfg)
    assert (len(calls), ENGINE_STATS.buchberger_runs, ENGINE_STATS.spairs_reduced) == \
        (0, 0, 0)
    assert report.holds and report.left_profile.e == report.right_profile.e == (0, 0, 0, 16)


def test_series_memo_does_not_change_the_battery(R3, cfg):
    """The Hilbert-series memo outlives a Groebner cache reset: the
    battery gives equal numbers and equal engine counters from cold
    caches and after an unrelated battery has filled the memo."""
    x, y, z = R3.variables()
    pair = FunctionGerm(x ** 2 + y ** 2 + z ** 2), FunctionGerm(x ** 2 + y ** 2 + z ** 3)

    def run():
        with groebner._GB_LOCK:
            groebner._GB_CACHE.clear()
        ENGINE_STATS.reset()
        report = whitney_battery(*pair, cfg)
        return report, ENGINE_STATS.snapshot()

    clear_caches()
    cold = run()
    clear_caches()
    whitney_battery(FunctionGerm(x ** 3 + y ** 3 + z ** 3),
                    FunctionGerm(x ** 2 + y ** 2 + 2 * z ** 2), cfg)
    assert groebner._SERIES_MEMO
    assert run() == cold
    assert run() == cold  # the memo now holds this battery's own lead sets


def _battery_spy(monkeypatch):
    """Record the cache class and the chains of each `_sides` call the
    Whitney battery makes."""
    calls = []
    real = criteria._sides

    def spy(cache, k):
        calls.append((type(cache), real(cache, k)))
        return calls[-1][1]

    monkeypatch.setattr(equising, "_sides", spy)
    return calls


def _isolated_pairs():
    """Pairs of germs with isolated singularities: the corpus's two
    Whitney pairs, the `whitney_corank` benchmark pair, three seeded
    semi-quasi-homogeneous pairs on C^3 and the D4 suspension against a
    deformation on C^4."""
    R2 = PolynomialRing(["x", "y"])
    a, b = R2.variables()
    R3 = PolynomialRing(["x", "y", "z"])
    x, y, z = R3.variables()
    R4 = PolynomialRing(["x", "y", "z", "w"])
    p, q, r, s = R4.variables()
    pairs = [(a ** 2 + b ** 2, a ** 2 + b ** 3), (a ** 2 + b ** 2, a ** 2 + 2 * b ** 2),
             (x ** 2 + y ** 2 + z ** 2, x ** 2 + y ** 2 + z ** 3),
             (p ** 2 * q + q ** 3 + r ** 2 + s ** 2, p ** 2 * q + q ** 3 + r ** 3 + s ** 2)]
    pairs = [(FunctionGerm(f0), FunctionGerm(f1)) for f0, f1 in pairs]
    pairs += [(semi_quasi_homogeneous(R3, seed)[0], semi_quasi_homogeneous(R3, seed + 100)[0])
              for seed in (5, 6, 7)]
    return pairs


def test_teissier_route_matches_the_tangent_ideal_battery(monkeypatch):
    """For two germs with isolated singularities the battery runs on
    Teissier's expansion in m, J0 and J1, and gives the chains of every
    level, both profiles and the mixed table that the general battery
    gives on the tangent ideals T0 and T1 (a `MixedNumberCache`)."""
    cfg = GenericityConfig()
    calls = _battery_spy(monkeypatch)
    for f0, f1 in _isolated_pairs():
        calls.clear()
        report = whitney_battery(f0, f1, cfg)
        germ = make_germ(f0.ring)
        general = criteria.MixedNumberCache(germ, contact_tangent_ideal(f0),
                                            contact_tangent_ideal(f1), cfg)
        assert [cls for cls, _ in calls] == [equising._TeissierNumbers] * (germ.n - 1)
        assert [chains for _, chains in calls] == \
            [criteria._sides(general, k) for k in range(2, germ.n + 1)]
        assert (report.left_profile, report.right_profile) == \
            (general.profile(1), general.profile(2))
        assert report.mixed.entries == general.table(report.mixed.entries).entries


def test_non_isolated_germs_keep_the_general_battery(R3, cfg, monkeypatch):
    """x^2 + y^2 and x^2 + y^3 on C^3 are singular along the z-axis: their
    Jacobian ideals are not m-primary, so the battery runs on the tangent
    ideals, with the numbers it gave before Teissier's route."""
    x, y, z = R3.variables()
    calls = _battery_spy(monkeypatch)
    report = whitney_battery(FunctionGerm(x ** 2 + y ** 2), FunctionGerm(x ** 2 + y ** 3), cfg)
    assert [cls for cls, _ in calls] == [criteria.MixedNumberCache] * 2
    assert (report.left_profile.e, report.left_profile.m) == ((0, 1, 6), (1, 2, 3))
    assert (report.right_profile.e, report.right_profile.m) == ((0, 2, 8), (1, 2, 3))
    assert report.mixed.entries == {(2, 1, 1): 1, (2, 0, 2): 2, (3, 2, 1): 6, (3, 1, 2): 7}
    assert not any(v.holds for v in report.verdicts)
