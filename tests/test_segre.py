import json
import math
import random
from fractions import Fraction

import pytest

from segrenum import segre
from segrenum import (
    GenericityConfig,
    Ideal,
    PolynomialRing,
    SegreProfile,
    chain_condition,
    closure_battery,
    generic_tuple,
    ideal,
    ideal_power,
    make_germ,
    mixed_multiplicity_primary,
    mixed_segre,
    polar_chain,
    segre_on_subspace,
    segre_profile,
    truncation_check,
)
from segrenum.errors import DimensionAnomalyError, GenericityError, PreconditionError
from segrenum.equising import FunctionGerm, contact_tangent_ideal, jacobian_ideal
from segrenum.multiplicity import passes_through_origin
from segrenum.parser import parse_input
from segrenum.rings import format_polynomial
from segrenum.segre import derive_seed

from conftest import replay_corpus
from oracles import macaulay_colength_stable, milnor_sequence


def test_generic_tuple_basics(R3, cfg):
    x, y, z = R3.variables()
    I = ideal(R3, z)
    tup = generic_tuple(I, 1, cfg)
    assert len(tup.combinations) == 1 and not tup.combinations[0].is_zero

    I2 = ideal(R3, x * z, y * z, z ** 2)
    tup2 = generic_tuple(I2, 2, cfg)
    assert len(tup2.combinations) == 2
    from segrenum.linalg import rank
    assert rank(tup2.coefficients) == 2

    replay = generic_tuple(I2, 2, cfg)
    assert replay.coefficients == tup2.coefficients


def test_profile_principal_powers(germ3, R3, cfg):
    z = R3.variables()[2]
    for d in (1, 2, 3):
        prof = segre_profile(germ3, ideal(R3, z ** d), cfg)
        assert prof.e == (d, 0, 0)


def test_profile_maximal_ideal(germ3, R3, cfg):
    x, y, z = R3.variables()
    prof = segre_profile(germ3, ideal(R3, x, y, z), cfg)
    assert prof.e == (0, 0, 1)


def test_profile_m_primary_plane(germ2, R2, cfg):
    x, y = R2.variables()
    prof = segre_profile(germ2, ideal(R2, x ** 2, y ** 3), cfg)
    assert prof.e == (0, 6)


def test_profile_divisor_pair(germ3, divisor_pair, cfg):
    I1, I2 = divisor_pair
    assert segre_profile(germ3, I1, cfg).e == (1, 0, 0)
    chain = polar_chain(germ3, I2, cfg)
    assert chain.e == (1, 1, 2)
    assert chain.m == (1, 1, 1)
    assert chain.certified


def test_profile_cusp(germ2, R2, cfg):
    x, y = R2.variables()
    prof = segre_profile(germ2, ideal(R2, x ** 2 - y ** 3), cfg)
    assert prof.e == (2, 0)


def test_closure_invariant_profiles(germ2, R2, germ3, R3, cfg):
    x, y = R2.variables()
    a = segre_profile(germ2, ideal(R2, x ** 2, y ** 2), cfg)
    b = segre_profile(germ2, ideal(R2, x ** 2, x * y, y ** 2), cfg)
    assert a.e == b.e == (0, 4)
    x, y, z = R3.variables()
    a = segre_profile(germ3, ideal(R3, x ** 2 * z, y ** 2 * z), cfg)
    b = segre_profile(germ3, ideal(R3, x ** 2 * z, y ** 2 * z, x * y * z), cfg)
    assert a.e == b.e == (1, 6, 0)


def _substitute(f, images):
    """f with its i-th variable replaced by images[i]."""
    out = f.ring.zero()
    for c, mono in f.terms():
        term = f.ring.constant(c)
        for image, k in zip(images, mono):
            term = term * image ** k
        out = out + term
    return out


@pytest.mark.parametrize("text, e, m", [
    ("ring x, y; ideal I = x^2, y^3;", (0, 6), (1, 2)),
    ("ring x, y; ideal I = x^2 - y^3;", (2, 0), (1, 0)),
    ("ring x, y, z; ideal I = x*z, y*z, z^2;", (1, 1, 2), (1, 1, 1)),
    ("ring x, y, z; ideal I = z;", (1, 0, 0), (1, 0, 0)),
    ("ring x, y, z; ideal I = x*y, y*z, z*x;", (0, 3, 2), (1, 2, 1)),
    ("ring x, y, z; ambient = x*y - z^2; ideal I = x, z;", (1, 1), (2, 1)),
    ("ring x, y, z; ambient = x^2 + y^3 + z^5; ideal I = x, y;", (0, 5), (2, 2)),
], ids=["x2-y3", "cusp", "axes", "plane", "three-lines", "cone", "e8-surface"])
def test_profiles_are_invariant_under_coordinate_and_generator_changes(text, e, m):
    """e and m stay the same when the generators are reversed and
    unimodularly recombined, and when ideal and ambient go through a
    linear change of coordinates or a triangular automorphism fixing 0.
    The automorphisms make homogeneous inputs non-homogeneous, so those
    runs take the tangent-cone path."""
    doc = parse_input(text)
    R = doc.ring
    v = R.variables()
    x, y = v[:2]
    maps = [v, (x + 2 * y, *v[1:]), (x + y ** 2, *v[1:])]
    if len(v) == 3:
        maps.append((x, y, v[2] + x * y))
    cfg = GenericityConfig(seed=7)

    def profile(images, recombine=False):
        ambient = [_substitute(g, images) for g in doc.ambient]
        gens = [_substitute(g, images) for g in doc.ideals["I"]]
        if recombine:
            gens.reverse()
            gens[0] = gens[0] + gens[1] if len(gens) > 1 else -gens[0]
        germ = make_germ(R, ideal(R, *ambient)) if ambient else make_germ(R)
        return segre_profile(germ, ideal(R, *gens), cfg)

    for prof in [profile(v, recombine=True)] + [profile(images) for images in maps]:
        assert (prof.e, prof.m) == (e, m)


def test_m_primary_collapse(germ2, R2, cfg):
    x, y = R2.variables()
    I = ideal(R2, x ** 2, y ** 3)
    prof = segre_profile(germ2, I, cfg)
    assert all(e == 0 for e in prof.e[:-1])
    assert prof.e[-1] == mixed_multiplicity_primary(germ2, I, I, germ2.n, cfg) == 6


def test_property_one_polar_subspaces(germ3, divisor_pair, cfg):
    _, I2 = divisor_pair
    chain = polar_chain(germ3, I2, cfg)
    for j in (1, 2):
        P = chain.stages[j].polar_ideal
        sub = segre_on_subspace(germ3, I2, P, cfg)
        for i in range(1, germ3.n - j + 1):
            assert sub.e[i - 1] == chain.e[i + j - 1]


def test_subspace_of_a_germ_with_an_ambient(R3, cfg):
    """On the germ V(z), P = (y) cuts out the line V(y, z), not the plane
    V(y): I = (x) induces on it the profile of that line."""
    x, y, z = R3.variables()
    germ = make_germ(R3, ideal(R3, z))
    sub = segre_on_subspace(germ, ideal(R3, x), ideal(R3, y), cfg)
    line = make_germ(R3, ideal(R3, z, y))
    assert sub.e == segre_profile(line, ideal(R3, x), cfg).e == (1,)


def test_property_one_identity_case(germ3, divisor_pair, cfg):
    _, I2 = divisor_pair
    zero = Ideal(germ3.ring, ())
    assert segre_on_subspace(germ3, I2, zero, cfg).e == segre_profile(germ3, I2, cfg).e


def test_subspace_component_check(germ3, R3, cfg):
    x, y, z = R3.variables()
    with pytest.raises(PreconditionError):
        # the subscheme V(z) lies inside V(z)
        segre_on_subspace(germ3, ideal(R3, z), ideal(R3, z), cfg)
    with pytest.raises(PreconditionError):
        # (x^2, xy) = (x) cap (x^2, y) has an embedded component inside V(x, y)
        segre_on_subspace(germ3, ideal(R3, x, y), ideal(R3, x ** 2, x * y), cfg)


def test_squaring_law(corpus_ideals, cfg):
    for germ, I in corpus_ideals:
        base = segre_profile(germ, I, cfg)
        squared = segre_profile(germ, ideal_power(I, 2), cfg)
        for k in range(1, germ.n + 1):
            assert squared.e[k - 1] == 2 ** k * base.e[k - 1]


def test_mixed_boundary_conventions(germ3, divisor_pair, cfg):
    I1, I2 = divisor_pair
    p1 = segre_profile(germ3, I1, cfg)
    p2 = segre_profile(germ3, I2, cfg)
    for k in (1, 2, 3):
        assert mixed_segre(germ3, I1, I2, k, k, 0, cfg) == p1.e[k - 1]
        assert mixed_segre(germ3, I1, I2, k, 0, k, cfg) == p2.e[k - 1]


def test_mixed_segre_divisor_pair(germ3, divisor_pair, cfg):
    I1, I2 = divisor_pair
    assert mixed_segre(germ3, I1, I2, 1, 1, 1, cfg) == 1
    # recorded engine value (no external ground truth): the fattened
    # plane contributes nothing in codimension two against the divisor
    assert mixed_segre(germ3, I1, I2, 2, 1, 1, cfg) == 0


def test_mixed_segre_m_primary_pair(germ2, R2, cfg):
    x, y = R2.variables()
    I1 = ideal(R2, x ** 2, y ** 2)
    I2 = ideal(R2, x ** 2, x * y, y ** 2)
    assert mixed_segre(germ2, I1, I2, 2, 1, 1, cfg) == 4


def test_mixed_segre_preconditions(germ3, divisor_pair, cfg):
    I1, I2 = divisor_pair
    with pytest.raises(PreconditionError):
        mixed_segre(germ3, I1, I2, 2, 1, 0, cfg)
    with pytest.raises(PreconditionError):
        mixed_segre(germ3, I1, I2, 3, 1, 1, cfg)
    with pytest.raises(PreconditionError):
        mixed_segre(germ3, I1, I2, 0, 0, 0, cfg)


def test_mixed_multiplicity_examples(germ2, R2, cfg):
    x, y = R2.variables()
    m = ideal(R2, x, y)
    I = ideal(R2, x ** 2, y ** 3)
    assert mixed_multiplicity_primary(germ2, m, I, 1, cfg) == 2
    assert mixed_multiplicity_primary(germ2, I, m, 2, cfg) == 6
    assert mixed_multiplicity_primary(germ2, m, m, 1, cfg) == 1


def test_mixed_multiplicity_symmetry(germ2, R2, cfg):
    x, y = R2.variables()
    I1 = ideal(R2, x, y)
    I2 = ideal(R2, x ** 2, y ** 3)
    for i in range(germ2.n + 1):
        assert mixed_multiplicity_primary(germ2, I1, I2, i, cfg) == \
            mixed_multiplicity_primary(germ2, I2, I1, germ2.n - i, cfg)


def test_mixed_multiplicity_requires_primary(germ2, R2, cfg):
    x, y = R2.variables()
    with pytest.raises(PreconditionError):
        mixed_multiplicity_primary(germ2, ideal(R2, x), ideal(R2, x, y), 1, cfg)


def test_seed_independence(germ3, divisor_pair):
    _, I2 = divisor_pair
    a = segre_profile(germ3, I2, GenericityConfig(seed=11))
    b = segre_profile(germ3, I2, GenericityConfig(seed=97))
    assert a == b


def test_certification_needs_two_rounds(germ3, divisor_pair):
    _, I2 = divisor_pair
    single = polar_chain(germ3, I2, GenericityConfig(verification_rounds=1))
    assert not single.certified
    double = polar_chain(germ3, I2, GenericityConfig(verification_rounds=2))
    assert double.certified and len(double.seeds_used) == 2


def test_chain_condition_examples(germ2, germ3, R2, R3, divisor_pair, cfg):
    x, y = R2.variables()
    z = R3.variables()[2]
    assert chain_condition(germ3, ideal(R3, z ** 3), cfg)
    assert chain_condition(germ2, ideal(R2, x, y), cfg)
    assert chain_condition(germ3, divisor_pair[1], cfg)


def test_chain_condition_fails_for_plane_plus_axis(germ3, R3, cfg):
    # (z^2) cap (x,y): the codimension-two cycle picks up the axis,
    # which does not sit inside the codimension-one support {z = 0}
    x, y, z = R3.variables()
    I = ideal(R3, x * z ** 2, y * z ** 2)
    assert segre_profile(germ3, I, cfg).e == (2, 3, 0)
    assert not chain_condition(germ3, I, cfg)


def test_truncation_check(germ2, germ3, R2, divisor_pair, cfg):
    x, y = R2.variables()
    _, I2 = divisor_pair
    assert truncation_check(germ3, I2, 1, cfg)
    assert truncation_check(germ3, I2, 2, cfg)
    assert truncation_check(germ2, ideal(R2, x ** 2, x * y, y ** 2), 1, cfg)
    # principal source: the truncation regenerates the ideal itself
    assert truncation_check(germ3, ideal(germ3.ring, germ3.ring.variable("z")), 1, cfg)


def _random_ideal_in_m(R, rng):
    """2-4 generators, each a sum of 2-4 monomials of degree 1-3 with
    small coefficients, so no constant term."""
    gens = []
    for _ in range(rng.randint(2, 4)):
        g = R.zero()
        for _ in range(rng.randint(2, 4)):
            term = R.one() * rng.choice([-3, -2, -1, 1, 2, 3])
            for _ in range(rng.randint(1, 3)):
                term = term * rng.choice(R.variables())
            g = g + term
        if not g.is_zero:
            gens.append(g)
    return Ideal(R, gens)


@pytest.mark.parametrize("rational", [False, True])
def test_unsaturated_last_stage_is_exact(R2, R3, rational):
    """On seeded random ideals inside m, a number-only round, which does
    not saturate stage n, gives the (m, e) of the full stage loop, whose
    Q_n misses the origin: C^2, C^3 and a quadric cone in C^3 (n = 2)."""
    x, y, z = R3.variables()
    germs = [make_germ(R2), make_germ(R3), make_germ(R3, ideal(R3, x * y - z ** 2))]
    cfg = GenericityConfig()
    rng = random.Random(16)
    top = 0
    for case in range(36):
        germ, I = germs[case % 3], _random_ideal_in_m(germs[case % 3].ring, rng)
        seed = derive_seed(cfg.seed, case)
        if not rational:
            p = segre._round_prime(seed)
            germ, I = germ.over(p), I.over(p)
        full = segre._polar_stages(germ, I, cfg, seed)[1]
        assert segre._chain_round(seed, cfg, 0, germ, I) == tuple((s.m, s.e) for s in full)
        assert passes_through_origin(segre._saturator(I, cfg, seed))
        assert full[-1].k == germ.n and full[-1].polar_ideal is not None
        assert full[-1].m == 0
        skipped = segre._polar_stages(germ, I, cfg, seed, numbers_only=True)[1]
        assert skipped[-1].polar_ideal is None
        top += full[-1].e > 0
    assert top >= 24  # of 36 cases: the skipped stage carries a Segre number


def test_only_a_saturator_vanishing_at_0_skips_the_last_stage(germ2, germ3, R2, divisor_pair,
                                                              cfg, monkeypatch):
    """A number-only round saturates stage n only when its saturator has
    a constant term; `polar_chain`'s rerun over QQ, `truncation_check`
    and mixed numbers with k < n saturate every stage."""
    x, y = R2.variables()
    I1, I2 = divisor_pair
    rounds = cfg.verification_rounds
    calls = []
    real = segre.saturate

    def spy(I, J):
        calls.append(I)
        return real(I, J)

    monkeypatch.setattr(segre, "saturate", spy)

    def saturations(run, *args):
        calls.clear()
        result = run(*args, cfg)
        return len(calls), result

    n, prof = saturations(segre_profile, germ2, ideal(R2, x + 1, y))
    assert (n, prof.e) == (rounds * 2, (0, 0))
    n, prof = saturations(segre_profile, germ3, I2)
    assert (n, prof.e) == (rounds * 2, (1, 1, 2))
    n, chain = saturations(polar_chain, germ3, I2)
    assert n == rounds * 2 + 3 and chain.stages[3].polar_ideal is not None
    m2 = ideal(R2, x ** 2, x * y, y ** 2)
    assert saturations(truncation_check, germ2, m2, 2) == (rounds * 4, True)
    assert saturations(mixed_segre, germ3, I1, I2, 2, 1, 1) == (rounds * 2, 0)
    assert saturations(mixed_segre, germ2, ideal(R2, x ** 2, y ** 2), m2, 2, 1, 1) == (rounds, 4)


def test_cosupport_precondition(R3, cfg):
    x, y, z = R3.variables()
    germ_surface = make_germ(R3, ideal(R3, z))
    assert germ_surface.n == 2
    with pytest.raises(PreconditionError):
        polar_chain(germ_surface, ideal(R3, z), cfg)


def test_cosupport_is_judged_at_the_origin(R2, cfg):
    """On the lines x = 0 and x = 1, (x - 1) y is (y) near the origin: its
    co-support is dense only on the far line, so it has the profile of (y).
    (x) on the line x = 0 is still refused."""
    x, y = R2.variables()
    lines = make_germ(R2, ideal(R2, x ** 2 - x))
    far, near = ideal(R2, (x - 1) * y), ideal(R2, y)
    assert segre_profile(lines, far, cfg) == segre_profile(lines, near, cfg) == SegreProfile((1,), (1,))
    assert closure_battery(lines, far, near, cfg).holds
    with pytest.raises(PreconditionError, match="does not have nowhere-dense co-support"):
        segre_profile(make_germ(R2, ideal(R2, x)), ideal(R2, x), cfg)


def test_unit_ideal_rejected(germ3, R3, cfg):
    with pytest.raises(PreconditionError):
        polar_chain(germ3, ideal(R3, R3.one()), cfg)


def test_profile_on_hypersurface_germ(R3, cfg):
    x, y, z = R3.variables()
    germ_surface = make_germ(R3, ideal(R3, z))
    prof = segre_profile(germ_surface, ideal(R3, x), cfg)
    assert prof.e == (1, 0)


def test_ideal_missing_origin_has_zero_profile(germ2, R2, cfg):
    x, y = R2.variables()
    prof = segre_profile(germ2, ideal(R2, x - 1), cfg)
    assert prof.e == (0, 0)


def test_profile_complete_intersection(germ2, R2, cfg):
    # two plane curves meeting only at 0 with intersection number 8
    # (resultant of x^2 - y^3 and y^4 in x is y^8)
    x, y = R2.variables()
    prof = segre_profile(germ2, ideal(R2, x ** 2 - y ** 3, y ** 4), cfg)
    assert prof.e == (0, 8)


def test_profile_on_cuspidal_ambient(R2, cfg):
    # the germ of the cusp is a curve; a coordinate function restricted
    # to it vanishes to order 2 (the branch is (t^3, t^2))
    x, y = R2.variables()
    cusp_germ = make_germ(R2, ideal(R2, x ** 2 - y ** 3))
    assert cusp_germ.n == 1
    prof = segre_profile(cusp_germ, ideal(R2, y), cfg)
    assert prof.e == (2,)
    assert prof.m == (2,)
    prof_x = segre_profile(cusp_germ, ideal(R2, x), cfg)
    assert prof_x.e == (3,)
    assert cusp_germ.multiplicity == 2


def test_profile_oracle_consistency(germ2, R2, cfg):
    # top Segre number of an m-primary ideal = colength of n generic
    # combinations, checked against the dense Macaulay oracle
    x, y = R2.variables()
    I = ideal(R2, x ** 2, y ** 2)
    tup = generic_tuple(I, 2, cfg)
    combo_ideal = Ideal(R2, tup.combinations)
    assert macaulay_colength_stable(combo_ideal) == segre_profile(germ2, I, cfg).e[-1]


def _rational_rounds(seed, den=1):
    return 0


def _replay_corpus():
    """Every manifest command run through the CLI: (exit code, report
    without its engine counters) in manifest order."""
    out = []
    for _, code, text in replay_corpus():
        report = json.loads(text)
        report.pop("engine")
        out.append((code, report))
    return out


def test_modular_rounds_match_an_exact_rational_reference(monkeypatch):
    """With every round forced over QQ, each corpus command reports the
    same numbers, verdicts, seeds and rational polar ideals as with its
    rounds over prime fields."""
    modular = _replay_corpus()
    monkeypatch.setattr(segre, "_round_prime", _rational_rounds)
    assert _replay_corpus() == modular


def test_polar_ideals_are_rational(R3, monkeypatch):
    """Round 0 runs over GF(p), but the chain's ideals are those of an
    all-rational run, coefficients too large for one prime included."""
    doc = parse_input("ring x, y, z;\n"
                      "ideal I = x*z + 1234567/89*y*z, y*z - 987654321/1000003*z^2, z^3;\n")
    I = Ideal(doc.ring, doc.ideals["I"])
    germ = make_germ(doc.ring)
    cfg = GenericityConfig(seed=5)
    chain = polar_chain(germ, I, cfg)
    monkeypatch.setattr(segre, "_round_prime", _rational_rounds)
    exact = polar_chain(germ, I, cfg)
    assert chain.e == exact.e == (1, 1, 3)
    assert chain.tuple_used.combinations == exact.tuple_used.combinations
    for s, t in zip(chain.stages, exact.stages):
        assert s.polar_ideal.ring.modulus == 0
        assert [format_polynomial(g) for g in s.polar_ideal.generators] == \
            [format_polynomial(g) for g in t.polar_ideal.generators]
        assert s.cut_ideal == t.cut_ideal
    assert any(abs(c.numerator) * c.denominator > 1 << 62
               for g in chain.stages[2].polar_ideal.generators for c in g.coeffs.values())


def test_exact_rerun_catches_a_prime_bad_for_every_round(R3, monkeypatch):
    """Every round forced onto GF(3), where the Jacobian of x^3 + y^3 + z^3
    vanishes: the rounds agree on wrong numbers, and `polar_chain`'s rerun
    of round 0 over QQ refuses them."""
    x, y, z = R3.variables()
    T = contact_tangent_ideal(FunctionGerm(x ** 3 + y ** 3 + z ** 3))
    monkeypatch.setattr(segre, "_round_prime", lambda seed, den=1: 3)
    with pytest.raises(GenericityError, match="over QQ"):
        polar_chain(make_germ(R3), T, GenericityConfig())


def test_unlucky_prime_is_caught_by_certification(R3, monkeypatch):
    """Round 1 forced onto GF(3), where the Jacobian of x^3 + y^3 + z^3
    vanishes: the round disagrees and the bound escalates (or the call
    fails); no wrong number is certified."""
    x, y, z = R3.variables()
    T = contact_tangent_ideal(FunctionGerm(x ** 3 + y ** 3 + z ** 3))
    germ = make_germ(R3)
    cfg = GenericityConfig()
    clean = polar_chain(germ, T, cfg)
    bad_seed = derive_seed(cfg.seed, 0, 1, 0)  # bound step 0, round 1, attempt 0
    assert bad_seed in clean.seeds_used
    real = segre._round_prime
    forced = []

    def unlucky(seed, den=1):
        if seed == bad_seed:
            forced.append(seed)
            return 3
        return real(seed, den)

    monkeypatch.setattr(segre, "_round_prime", unlucky)
    try:
        chain = polar_chain(germ, T, cfg)
    except GenericityError:
        chain = None
    assert forced
    if chain is not None:
        assert (chain.e, chain.m) == (clean.e, clean.m) == ((0, 0, 27), (1, 3, 9))
        assert bad_seed not in chain.seeds_used


def _driver_run(cfg, outcome, germ, *ideals):
    """`segre._certified` with a fake round that records (seed, bound,
    round, germ modulus, ideal moduli) and returns, or raises,
    outcome(bound step, round, attempt): (result or exception, calls)."""
    where = {derive_seed(cfg.seed, b, r, a): (b, r, a)
             for b in range(2) for r in range(cfg.verification_rounds) for a in range(3)}
    calls = []

    def run_once(seed, cfg_b, round_idx, germ_p, *ideals_p):
        calls.append((seed, cfg_b.coefficient_bound, round_idx, germ_p.ring.modulus,
                      [I.ring.modulus for I in ideals_p]))
        out = outcome(*where[seed])
        if isinstance(out, Exception):
            raise out
        return out

    try:
        return segre._certified(cfg, run_once, germ, *ideals), calls
    except GenericityError as exc:
        return exc, calls


def test_certification_schedule(R3):
    """The round driver's retries, bound escalation and fields: an anomaly
    retries its round under the next attempt's seed, a round failing every
    attempt escalates the bound to the step-1 seeds, disagreement in both
    steps is an error, and every round sees the germ and the ideals over
    its own prime, which divides no denominator of theirs."""
    cfg = GenericityConfig(seed=5)
    s, bound = cfg.seed, cfg.coefficient_bound
    p0, p1 = (segre._round_prime(derive_seed(s, 0, r, 0)) for r in (0, 1))
    x, y, z = R3.variables()
    germ = make_germ(R3, ideal(R3, x * y - z ** 2 * Fraction(2, 3 * p1)))
    ideals = (ideal(R3, x, z), ideal(R3, x * Fraction(1, 5 * p0), y, z))
    anomaly = DimensionAnomalyError("fake anomaly")
    every_call = []

    (numbers, seeds, cfg_b), calls = _driver_run(
        cfg, lambda b, r, a: anomaly if (b, r, a) == (0, 1, 0) else (4, 2), germ, *ideals)
    every_call += calls
    assert numbers == (4, 2) and cfg_b == cfg
    assert seeds == [derive_seed(s, 0, 0, 0), derive_seed(s, 0, 1, 1)]
    assert [c[0] for c in calls] == [derive_seed(s, 0, 0, 0), derive_seed(s, 0, 1, 0),
                                     derive_seed(s, 0, 1, 1)]
    assert [c[2] for c in calls] == [0, 1, 1]

    (numbers, seeds, cfg_b), calls = _driver_run(
        cfg, lambda b, r, a: anomaly if b == 0 else 3, germ, *ideals)
    every_call += calls
    assert numbers == 3 and cfg_b.coefficient_bound == 8 * bound
    assert seeds == [derive_seed(s, 1, 0, 0), derive_seed(s, 1, 1, 0)]
    assert [c[1] for c in calls] == [bound] * 3 + [8 * bound] * 2

    exc, calls = _driver_run(cfg, lambda b, r, a: r, germ, *ideals)
    every_call += calls
    assert isinstance(exc, GenericityError)
    assert "persists after bound escalation" in str(exc)
    assert [c[1] for c in calls] == [bound] * 2 + [8 * bound] * 2

    exc, calls = _driver_run(cfg, lambda b, r, a: anomaly, germ, *ideals)
    every_call += calls
    assert isinstance(exc, GenericityError)
    assert "persistent dimension anomaly: fake anomaly" in str(exc)
    assert len(calls) == 6

    den = 15 * p0 * p1
    assert segre._denominator(germ.ambient, *ideals) == den
    assert not {p0, p1} & {c[3] for c in every_call}
    for seed, _, _, germ_modulus, ideal_moduli in every_call:
        p = segre._round_prime(seed, den)
        assert germ_modulus == p and ideal_moduli == [p, p]


def test_subspace_precondition_takes_one_principal_quotient(germ3, divisor_pair, cfg,
                                                           monkeypatch):
    """When P : g = P for the generic g of I, the precondition check makes
    no quotient by all of I."""
    _, I2 = divisor_pair
    P = polar_chain(germ3, I2, cfg).stages[1].polar_ideal
    divisors = []
    real = segre.ideal_quotient

    def spy(A, B):
        divisors.append(len(B.generators))
        return real(A, B)

    monkeypatch.setattr(segre, "ideal_quotient", spy)
    segre_on_subspace(germ3, I2, P, cfg)
    assert divisors == [1]


def test_brieskorn_contact_tangent_profile(R3):
    """The contact tangent ideal of x^3 + y^4 + z^5, which did not finish
    over QQ, has the same certified profile under three base seeds."""
    x, y, z = R3.variables()
    T = contact_tangent_ideal(FunctionGerm(x ** 3 + y ** 4 + z ** 5))
    germ = make_germ(R3)
    for seed in (7, 8, 9):
        prof = segre_profile(germ, T, GenericityConfig(seed=seed))
        assert (prof.e, prof.m) == ((0, 0, 49), (1, 3, 11))


@pytest.mark.parametrize("f, e", [
    (lambda x, y, z: x ** 2 * y + y ** 3 + z ** 2, (0, 0, 14)),   # D4
    (lambda x, y, z: x ** 3 + y ** 4 + z ** 2, (0, 0, 16)),       # E6
], ids=["D4", "E6"])
def test_simple_singularity_contact_tangent_profiles(R3, f, e):
    """The contact tangent ideals of D4 and E6 are not homogeneous, so
    every saturation of their polar chains is a block-order elimination
    of a non-homogeneous cut."""
    T = contact_tangent_ideal(FunctionGerm(f(*R3.variables())))
    prof = segre_profile(make_germ(R3), T, GenericityConfig(seed=7))
    assert (prof.e, prof.m) == (e, (1, 2, 5))


def test_milnor_sequence_oracle(R3):
    """Known mu* of isolated singularities; on the last germ a generic
    line from [-9, 9] can read mu^(1) = 3, so wide draws are needed."""
    x, y, z = R3.variables()
    assert milnor_sequence(x ** 2 * y + y ** 3 + z ** 2) == (1, 1, 2, 4)
    assert milnor_sequence(x ** 3 + y ** 4 + z ** 5 + x * y * z) == (1, 2, 4, 11)
    assert milnor_sequence(x ** 3 + y ** 3 + z ** 4 + 2 * x * y ** 2 * z) == (1, 2, 4, 12)


@pytest.mark.parametrize("n, f, polar", [
    (3, lambda x, y, z: x ** 2 * y + y ** 3 + z ** 2, (1, 2, 5)),               # D4: (1, 1, 2, 4)
    (3, lambda x, y, z: x ** 3 + y ** 4 + z ** 2, (1, 2, 5)),                   # E6: (1, 1, 2, 6)
    (3, lambda x, y, z: x ** 3 + y ** 3 + z ** 3, (1, 3, 9)),                   # (1, 2, 4, 8)
    (3, lambda x, y, z: x ** 3 + y ** 4 + z ** 5, (1, 3, 11)),                  # (1, 2, 6, 24)
    (3, lambda x, y, z: x ** 3 + x * y ** 3 + z ** 2, (1, 2, 5)),               # E7: (1, 1, 2, 7)
    (4, lambda x, y, z, w: x ** 2 + y ** 2 + z ** 2 + w ** 3, (1, 2, 4, 8)),    # (1, 1, 1, 1, 2), e_4 = 17
    (4, lambda x, y, z, w: x ** 3 + y ** 3 + z ** 3 + w ** 3, (1, 3, 9, 27)),   # (1, 2, 4, 8, 16), e_4 = 81
    (4, lambda x, y, z, w: x ** 2 * y + y ** 3 + z ** 2 + w ** 2, (1, 2, 4, 9)),  # (1, 1, 1, 2, 4), e_4 = 23
], ids=["D4", "E6", "x3+y3+z3", "x3+y4+z5", "E7", "x2+y2+z2+w3", "x3+y3+z3+w3", "x2y+y3+z2+w2"])
def test_teissier_formula_for_contact_tangent_ideals(n, f, polar):
    """Teissier: e_n of the contact tangent ideal m J(f) + (f) is
    sum C(n, i) mu^(i), and mu^(i) is the mixed multiplicity of n - i
    generic linear forms with i generic partials of f.  The ideal is
    m-primary, so e_1 .. e_{n-1} vanish; the polar multiplicities are
    pinned.  The last row is non-homogeneous on C^4, where the Hilbert
    bound of the tangent-cone completions skips the most S-pairs."""
    R = PolynomialRing(["x", "y", "z", "w"][:n])
    germ_f = FunctionGerm(f(*R.variables()))
    mu = milnor_sequence(germ_f.poly)
    germ, cfg = make_germ(R), GenericityConfig(seed=7)
    prof = segre_profile(germ, contact_tangent_ideal(germ_f), cfg)
    teissier = sum(math.comb(n, i) * mu[i] for i in range(n + 1))
    assert (prof.e, prof.m) == ((0,) * (n - 1) + (teissier,), polar)
    m, J = ideal(R, *R.variables()), jacobian_ideal(germ_f)
    assert [mixed_multiplicity_primary(germ, m, J, n - i, cfg) for i in range(n + 1)] == list(mu)


def _semi_quasi_homogeneous(R, seed):
    """x^a + y^b + z^c with a, b, c drawn from 2..4, plus three seeded
    terms of weighted degree above 1 (weights 1/a, 1/b, 1/c) and total
    degree at most 5; returns the germ and (a, b, c)."""
    rng = random.Random(seed)
    a, b, c = (rng.randint(2, 4) for _ in range(3))
    x, y, z = R.variables()
    above = [(i, j, k) for i in range(6) for j in range(6) for k in range(6 - i - j)
             if i * b * c + j * a * c + k * a * b > a * b * c]
    f = x ** a + y ** b + z ** c
    for i, j, k in rng.sample(above, 3):
        f = f + rng.choice([-3, -2, -1, 1, 2, 3]) * x ** i * y ** j * z ** k
    return FunctionGerm(f), (a, b, c)


@pytest.mark.parametrize("seed", [3, 5])
def test_teissier_formula_on_random_semi_quasi_homogeneous_germs(R3, seed):
    """A semi-quasi-homogeneous germ has an isolated singularity with the
    Milnor number of its principal part, (a-1)(b-1)(c-1), and e_3 of its
    contact tangent ideal is Teissier's sum C(3, i) mu^(i)."""
    f, (a, b, c) = _semi_quasi_homogeneous(R3, seed)
    mu = milnor_sequence(f.poly)
    assert mu[3] == (a - 1) * (b - 1) * (c - 1)
    prof = segre_profile(make_germ(R3), contact_tangent_ideal(f), GenericityConfig(seed=7))
    assert prof.e[2] == sum(math.comb(3, i) * mu[i] for i in range(4))
