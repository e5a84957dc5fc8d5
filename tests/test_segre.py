import itertools
import json
import math
import random
from fractions import Fraction
from functools import partial

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
    ideal_product,
    make_germ,
    mixed_multiplicity_primary,
    mixed_segre,
    polar_chain,
    segre_on_subspace,
    segre_profile,
    truncation_check,
)
from segrenum.errors import (
    DimensionAnomalyError,
    GenericityError,
    PreconditionError,
)
from segrenum.groebner import ENGINE_STATS, clear_caches
from segrenum.equising import FunctionGerm, contact_tangent_ideal, jacobian_ideal
from segrenum.multiplicity import passes_through_origin
from segrenum.parser import parse_input
from segrenum.rings import format_polynomial
from segrenum.segre import derive_seed

from conftest import GOLDEN, certified_spy, replay_corpus, saturate_spy, semi_quasi_homogeneous
from oracles import macaulay_colength_stable, milnor_sequence, vanishing_order


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
        skipped = segre._polar_stages(germ, I, cfg, seed, codim=0)[1]
        assert skipped[-1].polar_ideal is None
        top += full[-1].e > 0
    assert top >= 24  # of 36 cases: the skipped stage carries a Segre number


def test_only_a_saturator_vanishing_at_0_skips_the_last_stage(germ2, germ3, R2, divisor_pair,
                                                              cfg, monkeypatch):
    """A number-only round saturates stage n only when its source ideal
    does not lie in m, so its saturator may have a constant term, and
    every stage from the codimension of the source's zero set on;
    `polar_chain`'s rerun over QQ and `truncation_check` saturate every
    stage."""
    x, y = R2.variables()
    I1, I2 = divisor_pair
    rounds = cfg.verification_rounds
    calls = saturate_spy(monkeypatch)

    def saturations(run, *args):
        calls.clear()
        result = run(*args, cfg)
        return len(calls), result

    # (x + 1, y) has codimension 2, so stage 1 stays unsaturated
    n, prof = saturations(segre_profile, germ2, ideal(R2, x + 1, y))
    assert (n, prof.e) == (rounds, (0, 0))
    n, prof = saturations(segre_profile, germ3, I2)
    assert (n, prof.e) == (rounds * 2, (1, 1, 2))
    n, chain = saturations(polar_chain, germ3, I2)
    assert n == rounds * 2 + 3 and chain.stages[3].polar_ideal is not None
    m2 = ideal(R2, x ** 2, x * y, y ** 2)
    assert saturations(truncation_check, germ2, m2, 2) == (rounds * 4, True)
    assert saturations(mixed_segre, germ3, I1, I2, 2, 1, 1) == (rounds * 2, 0)
    # both sources are m-primary: the rounds read the colength of two cuts
    assert saturations(mixed_segre, germ2, ideal(R2, x ** 2, y ** 2), m2, 2, 1, 1) == (0, 4)


def _run_stages_spy(monkeypatch):
    """Record the `codim` of each `_run_stages` call."""
    calls = []
    real = segre._run_stages

    def spy(germ, cuts, source, draw_saturator, codim=None):
        calls.append(codim)
        return real(germ, cuts, source, draw_saturator, codim)

    monkeypatch.setattr(segre, "_run_stages", spy)
    return calls


@pytest.mark.parametrize("rational", [False, True])
def test_certified_saturations_are_exact(R3, rational, monkeypatch):
    """On seeded random C^3 ideals of codimension at least 2 and the D4
    contact tangent ideal, a number-only round keeps each stage k below
    the codimension c as its cut, unsaturated, with e_k = 0, and gives
    the (m, e) of the same seed with every stage saturated, over GF(p)
    and over QQ."""
    x, y, z = R3.variables()
    rng = random.Random(21)
    ideals = []
    while len(ideals) < 4:
        I = _random_ideal_in_m(R3, rng)
        if segre.dimension(I) <= 1:
            ideals.append(I)
    ideals.append(contact_tangent_ideal(FunctionGerm(x ** 2 * y + y ** 3 + z ** 2)))
    cfg = GenericityConfig()
    calls = saturate_spy(monkeypatch)
    codims = []
    for case, I in enumerate(ideals):
        germ = make_germ(R3)
        codim = segre._check_cosupport(germ, I)
        seed = derive_seed(cfg.seed, case)
        if not rational:
            p = segre._round_prime(seed)
            germ, I = germ.over(p), I.over(p)
        calls.clear()
        stages = segre._polar_stages(germ, I, cfg, seed, codim=codim)[1]
        assert calls == [s.cut_ideal for s in stages[codim:-1]]
        for s in stages[1:codim]:
            assert s.polar_ideal == s.cut_ideal and s.e == 0
        saturated = segre._polar_stages(germ, I, cfg, seed, codim=0)[1]
        assert [(s.m, s.e) for s in stages] == [(s.m, s.e) for s in saturated]
        codims.append(codim)
    assert codims == [2, 3, 3, 2, 3]  # the last, D4's, keeps stages 1 .. n - 1


def test_certificate_gate_and_fallback(germ3, R3, cfg, monkeypatch):
    """A germ with an ambient keeps no stage unsaturated, even below the
    codimension; the corpus's codimension-1 sources saturate every stage
    and keep their golden engine counters; and `polar_chain`'s rerun
    over QQ and `chain_condition`, which read polar ideals, saturate
    every stage, while the chain's own rounds keep stages 1 .. n - 1."""
    x, y, z = R3.variables()
    saturated = saturate_spy(monkeypatch)
    plane = make_germ(R3, ideal(R3, z))
    assert segre._check_cosupport(plane, ideal(R3, x, y)) == 2
    assert segre_profile(plane, ideal(R3, x, y), cfg).e == (0, 1)
    assert len(saturated) == cfg.verification_rounds  # stage 1 of each round

    runs = replay_corpus(inputs=("codim1_pair.ideal", "axis_pair.ideal"))
    assert len(runs) == 6
    for entry, code, out in runs:
        golden = json.loads((GOLDEN / entry["golden"]).read_text(encoding="utf-8"))
        assert json.loads(out)["engine"] == golden["engine"], entry["golden"]

    codims = _run_stages_spy(monkeypatch)
    D4 = contact_tangent_ideal(FunctionGerm(x ** 2 * y + y ** 3 + z ** 2))
    saturated.clear()
    chain = polar_chain(germ3, D4, cfg)
    assert codims == [3] * cfg.verification_rounds + [None]
    assert saturated == [s.cut_ideal for s in chain.stages[1:]]
    codims.clear()
    assert chain_condition(germ3, D4, cfg)
    assert codims == [None] * cfg.verification_rounds


def test_degenerate_saturator_leaves_certified_stages_exact(germ3, R3, cfg, monkeypatch):
    """A stage below the codimension rests on the local lemma, which does
    not look at g, so a saturator that is no generic element of S, here
    the round's own first cut f_1, changes none of them: m^2 on C^3 keeps
    its true numbers, where saturating by (f_1) would give stage 1
    multiplicity 0.  With every stage kept or skipped, the round does not
    even draw g."""
    x, y, z = R3.variables()
    m2 = ideal_power(ideal(R3, x, y, z), 2)
    drawn = []

    def first_cut(S, cfg, seed, *where):
        drawn.append(S)
        return Ideal(S.ring, generic_tuple(S, germ3.n, cfg, seed=seed).combinations[:1])

    monkeypatch.setattr(segre, "_saturator", first_cut)
    saturated = saturate_spy(monkeypatch)
    stages = segre._polar_stages(germ3, m2, cfg, cfg.seed, codim=3)[1]
    assert [(s.m, s.e) for s in stages] == [(1, None), (2, 0), (4, 0), (0, 8)]
    assert saturated == [] and drawn == []


def _mixed_rounds(germ, I1, I2, k, i, j, cfg):
    """e_k^{i,j}(I1, I2) from certified rounds, even where `mixed_segre`
    answers without them."""
    codim = max(segre._check_cosupport(germ, I1), segre._check_cosupport(germ, I2))
    run = partial(segre._mixed_round, k=k, i=i, j=j, codim=codim)
    return segre._certified(cfg, run, germ, I1, I2)[0]


def test_mixed_certificate_is_exact(germ3, R3, cfg, monkeypatch):
    """On seeded C^3 pairs whose sources have codimension at least 2,
    mixed rounds, which keep stages below c = max(c1, c2) unsaturated,
    give the numbers of rounds on the same seeds that saturate every
    stage (codim 0), over GF(p) and over QQ.  The (2, 1, 1) column lies
    below the codimension, where `mixed_segre` runs no round, so it is
    taken from the rounds directly."""
    rng = random.Random(22)
    pairs = []
    while len(pairs) < 3:
        I1, I2 = _random_ideal_in_m(R3, rng), _random_ideal_in_m(R3, rng)
        if segre.dimension(I1) <= 1 and segre.dimension(I2) <= 1:
            pairs.append((I1, I2))
    requests = [(2, 1, 1), (3, 2, 1), (3, 1, 2)]
    calls = saturate_spy(monkeypatch)
    for case, (I1, I2) in enumerate(pairs):
        codim = max(segre._check_cosupport(germ3, I1), segre._check_cosupport(germ3, I2))
        assert codim >= 2
        for rational in (False, True):
            seed = derive_seed(cfg.seed, case)
            p = 0 if rational else segre._round_prime(seed)
            args = germ3.over(p), I1.over(p), I2.over(p)
            for k, i, j in requests:
                calls.clear()
                kept = segre._mixed_round(seed, cfg, 0, *args, k, i, j, codim=codim)
                # stages codim .. k are saturated, but for a skipped stage 3
                assert len(calls) == min(k, 2) - codim + 1
                assert kept == segre._mixed_round(seed, cfg, 0, *args, k, i, j, codim=0)
        rounds = [_mixed_rounds(germ3, I1, I2, *r, cfg) for r in requests]
        assert [mixed_segre(germ3, I1, I2, *r, cfg) for r in requests] == rounds


def _random_ideal_of_codim(germ, rng, c):
    """A seeded random ideal inside m whose zero set has codimension c on
    C^n; codimension 1 multiplies every generator by one linear form."""
    R = germ.ring
    while True:
        I = _random_ideal_in_m(R, rng)
        if c == 1:
            h = sum((rng.choice([-2, -1, 1, 2]) * v for v in R.variables()), R.zero())
            I = Ideal(R, [h * g for g in I.generators])
        if segre._check_cosupport(germ, I) == c:
            return I


def test_mixed_numbers_below_the_codimension_are_zero(germ3, cfg, monkeypatch):
    """Every mixed request e_k^{i,j} with i, j >= 1 and k below
    c = max(c1, c2) gets 0 from its certified rounds: on seeded C^3 pairs
    of each unequal codimension mix, and on the quadric cone
    xy - z^2 in C^4 with I1 = m and I2 = (x, z, w) (c1 = 3, c2 = 2).
    `mixed_segre` answers the same requests without a round."""
    rng = random.Random(23)
    mixes = [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]
    cases = [(germ3, _random_ideal_of_codim(germ3, rng, a), _random_ideal_of_codim(germ3, rng, b))
             for a, b in mixes + mixes]
    R4 = PolynomialRing(["x", "y", "z", "w"])
    x, y, z, w = R4.variables()
    cases.append((make_germ(R4, ideal(R4, x * y - z ** 2)), ideal(R4, x, y, z, w),
                  ideal(R4, x, z, w)))
    rounds = certified_spy(monkeypatch)
    for germ, I1, I2 in cases:
        c1, c2 = segre._check_cosupport(germ, I1), segre._check_cosupport(germ, I2)
        assert c1 != c2
        requests = [(k, i, j) for k in range(1, max(c1, c2))
                    for i in range(1, k + 1) for j in range(1, k + 1) if k <= i + j <= k + 1]
        assert [_mixed_rounds(germ, I1, I2, *r, cfg) for r in requests] == [0] * len(requests)
        rounds.clear()
        assert [mixed_segre(germ, I1, I2, *r, cfg) for r in requests] == [0] * len(requests)
        assert rounds == []


def test_boundary_conventions_precede_the_codimension_rule(germ3, R3, cfg):
    """(z) has codimension 1 and m codimension 3 on C^3, yet the boundary
    requests below 3 stay plain Segre numbers: e_1^{0,1}(m, (z)) is
    e_1((z)) = 1 and e_1^{1,0} is e_1(m) = 0."""
    x, y, z = R3.variables()
    m, Z = ideal(R3, x, y, z), ideal(R3, z)
    assert mixed_segre(germ3, m, Z, 1, 0, 1, cfg) == 1
    assert mixed_segre(germ3, m, Z, 1, 1, 0, cfg) == 0


def _colength_rounds(rounds):
    """Whether each recorded `_certified` call ran top-level colength
    rounds."""
    return [getattr(r, "func", r) is segre._colength_round for r in rounds]


def _random_m_primary(germ, rng, low, high=3):
    """A seeded random m-primary ideal on C^n: n or n + 1 generators,
    each a sum of 2-3 monomials of degree `low` to `high`."""
    R = germ.ring
    while True:
        gens = []
        for _ in range(rng.randint(germ.n, germ.n + 1)):
            g = R.zero()
            for _ in range(rng.randint(2, 3)):
                term = R.one() * rng.choice([-3, -2, -1, 1, 2, 3])
                for _ in range(rng.randint(low, high)):
                    term = term * rng.choice(R.variables())
                g = g + term
            gens.append(g)
        I = Ideal(R, gens)
        if segre._check_cosupport(germ, I) == germ.n:
            return I


def test_top_level_mixed_numbers_of_m_primary_pairs_are_colengths(monkeypatch):
    """On seeded pairs of m-primary ideals on C^2 and C^3, and one on
    C^4, every request (n, i, j) with i + j >= n reads the colength of
    its n cuts, and gives the number of the stage chain on the same
    seeds; for i + j = n it is Teissier's mixed multiplicity.  Five
    requests with i + j = n, where one side is generated in one degree
    and folds into n - 1 linear forms, take the order rule and run no
    round."""
    cfg = GenericityConfig()
    rng = random.Random(24)
    cases = []
    for names in (["x", "y"], ["x", "y", "z"]):
        germ = make_germ(PolynomialRing(names))
        cases += [(germ, _random_m_primary(germ, rng, a), _random_m_primary(germ, rng, b))
                  for a, b in ((1, 2), (2, 1), (2, 3), (3, 2))]
    R4 = PolynomialRing(["x", "y", "z", "w"])
    x, y, z, w = R4.variables()
    cases.append((make_germ(R4), ideal(R4, x ** 2 + y * z, y ** 2, z ** 2 - x * w, w ** 2),
                  ideal(R4, x + y * w, y + z ** 2, z, w)))
    rounds = certified_spy(monkeypatch)
    by_rule = 0
    for germ, I1, I2 in cases:
        n = germ.n
        requests = [(n, i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i + j >= n]
        folded = [segre._fold(germ, ((I1, i), (I2, j)), (n, n))[1] for _, i, j in requests]
        by_rule += folded.count(())
        rounds.clear()
        values = [mixed_segre(germ, I1, I2, *r, cfg) for r in requests]
        assert _colength_rounds(rounds) == [True] * (len(requests) - folded.count(()))
        assert values == [_mixed_rounds(germ, I1, I2, *r, cfg) for r in requests]
        for (_, i, j), v in zip(requests, values):
            if i + j == n:
                assert v == mixed_multiplicity_primary(germ, I1, I2, i, cfg)
    assert by_rule == 5


def test_top_level_colength_keeps_the_chains_anomaly(germ3, R3, cfg, monkeypatch):
    """A colength round whose cuts are not 0-dimensional at the origin
    raises its own dimension anomaly, which `_certified` retries, and
    never runs the stage chain.  m and (x) on C^3 give cuts
    (h_1, h_2, h_3) inside (l, x), l linear, of local dimension 1 for
    every seed; (x) and m on C^4 with (k, i, j) = (4, 3, 1) give cuts
    inside (x, l), of local dimension 2.  On the A1 cone xy - z^2, a pool
    of m and m drawn from (x, z) for every seed cuts out the y-axis,
    which lies on the cone: `mixed_multiplicity_primary` fails as well."""
    x, y, z = R3.variables()
    R4 = PolynomialRing(["x", "y", "z", "w"])
    cases = [(germ3, ideal(R3, x, y, z), ideal(R3, x), (3, 1, 2), 1),
             (make_germ(R4), ideal(R4, R4.variable("x")), ideal(R4, *R4.variables()),
              (4, 3, 1), 2)]
    rounds = certified_spy(monkeypatch)
    monkeypatch.setattr(segre, "_mixed_round", None)

    def anomaly(dim):
        return f"persistent dimension anomaly: top-level cuts: local dimension {dim}, expected 0"

    for germ, I1, I2, request, dim in cases:
        rounds.clear()
        with pytest.raises(GenericityError, match=anomaly(dim)):
            mixed_segre(germ, I1, I2, *request, cfg)
        assert _colength_rounds(rounds) == [True]

    real = segre.generic_tuple

    def in_x_and_z(I, count, cfg, seed=None):
        I = Ideal(I.ring, [g for g in I.generators if all(e[0] or e[2] for _, e in g.terms())])
        return real(I, count, cfg, seed)

    monkeypatch.setattr(segre, "generic_tuple", in_x_and_z)
    cone, m = make_germ(R3, ideal(R3, x * y - z ** 2)), ideal(R3, x, y, z)
    rounds.clear()
    with pytest.raises(GenericityError, match=anomaly(1)):
        mixed_multiplicity_primary(cone, m, m, 1, cfg)
    assert _colength_rounds(rounds) == [True]


def test_top_level_colength_gate(germ3, R3, cfg, monkeypatch):
    """The stage chain still runs on a germ with an ambient (the cone
    xy - z^2), at k < n, when the larger codimension is below n (the
    corpus's axis pair) and when an ideal does not lie in m."""
    x, y, z = R3.variables()
    m = ideal(R3, x, y, z)
    cases = [
        (make_germ(R3, ideal(R3, x * y - z ** 2)), m, ideal(R3, x, y, z ** 2), (2, 1, 1)),
        (germ3, ideal(R3, x, y), ideal(R3, x, z), (2, 1, 1)),
        (germ3, ideal(R3, x * z, y * z), ideal(R3, x * z, y * z, z ** 2), (3, 2, 1)),
        (germ3, m, ideal(R3, x - 1, y, z), (3, 1, 2)),
    ]
    rounds = certified_spy(monkeypatch)
    for germ, I1, I2, request in cases:
        rounds.clear()
        assert mixed_segre(germ, I1, I2, *request, cfg) == \
            _mixed_rounds(germ, I1, I2, *request, cfg)
        assert _colength_rounds(rounds) == [False, False]


def test_teissier_multiplicities_read_the_colength_round(R3, cfg, monkeypatch):
    """On the A1 cone xy - z^2 (n = 2, multiplicity 2) the mixed
    multiplicities run `_colength_round` with the cone's ideal added,
    also at i = 0 and i = n, where one side draws nothing:
    e(m^[i] | m^[2-i]) = 2 and e((m^2)^[i] | m^[2-i]) = 2^(i+1).  Every
    round reads its colength, and none runs the stage chain."""
    x, y, z = R3.variables()
    germ = make_germ(R3, ideal(R3, x * y - z ** 2))
    m = ideal(R3, x, y, z)
    m2 = ideal_power(m, 2)
    rounds = certified_spy(monkeypatch)
    monkeypatch.setattr(segre, "_mixed_round", None)
    for i in range(3):
        rounds.clear()
        assert mixed_multiplicity_primary(germ, m, m, i, cfg) == 2
        assert mixed_multiplicity_primary(germ, m2, m, i, cfg) == 2 ** (i + 1)
        assert _colength_rounds(rounds) == [True, True]


def _stages_spy(monkeypatch):
    """Record whether each `_polar_stages` call is a number-only run, one
    given an integer `codim`."""
    calls = []
    real = segre._polar_stages

    def spy(germ, I, cfg, seed, codim=None):
        calls.append(codim is not None)
        return real(germ, I, cfg, seed, codim)

    monkeypatch.setattr(segre, "_polar_stages", spy)
    return calls


def _equigenerated_cases():
    """(germ, I, d): m-primary ideals on C^2, C^3 and C^4 generated by
    forms of one degree d."""
    rng = random.Random(25)
    cases = []
    for names, degrees in ((["x", "y"], (2, 3, 4)), (["x", "y", "z"], (2, 3)),
                           (["x", "y", "z", "w"], (2,))):
        R = PolynomialRing(names)
        germ = make_germ(R)
        m = ideal(R, *R.variables())
        for d in degrees:
            cases.append((germ, ideal(R, *(v ** d for v in R.variables())), d))
            cases.append((germ, ideal_power(m, d), d))
            cases.append((germ, _random_m_primary(germ, rng, d, d), d))
    R3 = PolynomialRing(["x", "y", "z"])
    x, y, z = R3.variables()
    cases.append((make_germ(R3), contact_tangent_ideal(FunctionGerm(x ** 3 + y ** 3 + z ** 3)), 3))
    return cases


def test_equigenerated_m_primary_rounds_are_exact(monkeypatch):
    """On monomial ideals (x^d, y^d, ...), powers m^d, random forms of
    one degree d and the tangent ideal of x^3 + y^3 + z^3, on C^2, C^3
    and C^4, `_one_degree` reads d over QQ, and the stage chain's rounds
    give the numbers of m^d, m_k = d^k and e = (0, ..., 0, d^n), on each
    seed over GF(p) and certified.  `segre_profile` draws nothing and
    gives that profile; `polar_chain` runs two number-only chain rounds
    and its rerun of round 0 over QQ, and agrees."""
    cfg = GenericityConfig()
    stages = _stages_spy(monkeypatch)
    for case, (germ, I, d) in enumerate(_equigenerated_cases()):
        n = germ.n
        assert segre._one_degree(germ, I, n) == d
        expected = ((1, None),) + tuple((d ** k, 0) for k in range(1, n)) + ((0, d ** n),)
        for r in range(3):
            seed = derive_seed(cfg.seed, case, r)
            p = segre._round_prime(seed)
            assert segre._chain_round(seed, cfg, 0, germ.over(p), I.over(p), codim=n) == expected
        assert segre._certified(cfg, partial(segre._chain_round, codim=n), germ, I)[0] == expected
        stages.clear()
        profile = segre_profile(germ, I, cfg)
        assert stages == []
        assert profile == SegreProfile(tuple(e for _, e in expected[1:]),
                                       tuple(m for m, _ in expected[:-1]))
        stages.clear()
        chain = polar_chain(germ, I, cfg)
        assert (chain.e, chain.m) == (profile.e, profile.m)
        assert stages == [True, True, False]


def _one_degree_pairs():
    """(germ, I1, I2, d1, d2): pairs of m-primary ideals generated in one
    degree each, on C^2, C^3 and C^4, with d1 != d2 and with d1 == d2."""
    rng = random.Random(29)
    cases = []
    for names in (["x", "y"], ["x", "y", "z"], ["x", "y", "z", "w"]):
        R = PolynomialRing(names)
        germ = make_germ(R)
        m = ideal(R, *R.variables())
        squares = ideal(R, *(v ** 2 for v in R.variables()))
        cases += [(germ, squares, m, 2, 1), (germ, squares, ideal_power(m, 2), 2, 2)]
        if len(names) < 4:
            cases += [(germ, squares, ideal_power(m, 3), 2, 3),
                      (germ, _random_m_primary(germ, rng, 2, 2), squares, 2, 2)]
    return cases


def test_one_degree_mixed_numbers_match_colength_rounds(monkeypatch):
    """For m-primary ideals generated in degrees d1 and d2, each top-level
    mixed number e_n^{i,n-i} and each Teissier multiplicity
    e(I1^[i] | I2^[n-i]) is d1^i d2^(n-i), with no round, and equals the
    number that certified colength rounds give over GF(p)."""
    cfg = GenericityConfig()
    rounds = certified_spy(monkeypatch)
    for germ, I1, I2, d1, d2 in _one_degree_pairs():
        n = germ.n
        for i in range(n + 1):
            run = partial(segre._colength_round, counts=(i, n - i))
            assert segre._certified(cfg, run, germ, I1, I2)[0] == d1 ** i * d2 ** (n - i)
            rounds.clear()
            assert mixed_multiplicity_primary(germ, I1, I2, i, cfg) == d1 ** i * d2 ** (n - i)
            if 0 < i < n:
                assert mixed_segre(germ, I1, I2, n, i, n - i, cfg) == d1 ** i * d2 ** (n - i)
            assert rounds == []


def _compositions(n, parts):
    """Every tuple of `parts` nonnegative counts summing to n."""
    return [c for c in itertools.product(range(n + 1), repeat=parts) if sum(c) == n]


def test_colength_rounds_take_any_number_of_sides():
    """A certified colength round on the three sides m, I and J of
    seeded m-primary ideals on C^3, for every split of the three cuts
    among them, 0 included, gives one number in every order of its
    sides; and two sides that draw from one ideal give the number of a
    single side with both counts."""
    cfg = GenericityConfig()
    R = PolynomialRing(["x", "y", "z"])
    germ = make_germ(R)
    rng = random.Random(31)
    m = ideal(R, *R.variables())
    I, J = _random_m_primary(germ, rng, 1, 2), _random_m_primary(germ, rng, 2, 3)
    for counts in _compositions(3, 3):
        sides = tuple(zip((m, I, J), counts))
        values = {segre._colength(germ, cfg, order) for order in itertools.permutations(sides)}
        assert len(values) == 1, counts
        a, b, c = counts
        assert segre._colength(germ, cfg, ((I, a), (J, b), (J, c))) == \
            segre._colength(germ, cfg, ((I, a), (J, b + c)))


def test_colength_rounds_are_multilinear_in_products():
    """Teissier's product formula on the Jacobian ideals J0 of D4 and J1
    of E6 on C^3: e((J0 J1)^[1] | m^[2]) = e(J0^[1] | m^[2]) +
    e(J1^[1] | m^[2]), and e((J0 J1)^[2] | m^[1]) is e(J0^[2] | m^[1]) +
    2 e(J0^[1] | J1^[1] | m^[1]) + e(J1^[2] | m^[1]), whose middle term
    is a three-side round."""
    cfg = GenericityConfig()
    R = PolynomialRing(["x", "y", "z"])
    x, y, z = R.variables()
    germ = make_germ(R)
    m = ideal(R, x, y, z)
    J0 = jacobian_ideal(FunctionGerm(x ** 2 * y + y ** 3 + z ** 2))
    J1 = jacobian_ideal(FunctionGerm(x ** 3 + y ** 4 + z ** 2))
    product = ideal_product(J0, J1)

    def e(*sides):
        return segre._colength(germ, cfg, sides)

    assert e((product, 1), (m, 2)) == e((J0, 1), (m, 2)) + e((J1, 1), (m, 2)) == 2
    mixed = e((J0, 1), (J1, 1), (m, 1))
    assert e((product, 2), (m, 1)) == e((J0, 2), (m, 1)) + 2 * mixed + e((J1, 2), (m, 1))


def test_the_fold_matches_a_three_side_round(monkeypatch):
    """On C^3 a side generated in one degree d folds into m:
    e(m^[a] | I^[b] | J^[c]) is d^b times a round without I, equal to the
    certified three-side round that draws from I, for I = (x^2, y^2, z^2)
    and m^3 and J the Jacobian ideal of D4 or a seeded m-primary ideal of
    mixed degrees.  When J folds too, no round runs; when J is left
    alone with one element, the order rule gives ord(J) = 1 and no round
    runs either."""
    cfg = GenericityConfig()
    R = PolynomialRing(["x", "y", "z"])
    x, y, z = R.variables()
    germ = make_germ(R)
    m = ideal(R, x, y, z)
    rounds = certified_spy(monkeypatch)
    others = [jacobian_ideal(FunctionGerm(x ** 2 * y + y ** 3 + z ** 2)),
              _random_m_primary(germ, random.Random(32), 1, 2)]
    for I, d in ((ideal(R, x ** 2, y ** 2, z ** 2), 2), (ideal_power(m, 3), 3)):
        for J in others:
            for a, b, c in _compositions(3, 3):
                sides = ((m, a), (I, b), (J, c))
                factor, folded = segre._fold(germ, sides, (3, 3, 3))
                order = segre._order(J) if c == 1 else 1
                assert factor == d ** b * order and I not in [side for side, _ in folded]
                assert factor * segre._colength(germ, cfg, folded) == \
                    segre._colength(germ, cfg, sides)
        rounds.clear()
        assert segre._fold(germ, ((m, 1), (I, 1), (m, 1)), (3, 3, 3)) == (d, ())
        assert rounds == []


def _random_of_mixed_orders(R, rng):
    """2 to n + 1 generators inside m on C^n: each one term of a seeded
    order 1-3 plus 1-2 terms of degree up to two above it, so that the
    generators' orders differ."""
    gens = []
    for _ in range(rng.randint(2, R.nvars + 1)):
        low = rng.randint(1, 3)
        g = R.zero()
        for degree in [low] + [rng.randint(low + 1, low + 2) for _ in range(rng.randint(1, 2))]:
            term = R.one() * rng.choice([-3, -2, -1, 1, 2, 3])
            for _ in range(degree):
                term = term * rng.choice(R.variables())
            g = g + term
        if not g.is_zero:
            gens.append(g)
    return Ideal(R, gens)


@pytest.mark.parametrize("names", [["x", "y"], ["x", "y", "z"], ["x", "y", "z", "w"]])
def test_the_order_rule_matches_a_colength_round(names, monkeypatch):
    """e(m^[n-1] | I^[1]) = ord(I): on seeded ideals with generators of
    orders 1 to 3 on C^2, C^3 and C^4, m-primary or not, `_fold` answers
    it with no round, and it equals the certified colength round on the
    same sides and the least `vanishing_order` of a generator (every
    other ideal gets the fourth powers of the variables, which makes it
    m-primary and keeps its order).  A side
    generated in one degree d that fills the n - 1 slots gives
    d^(n-1) ord(I): e_n^{n-1,1}(I1, I2) with I1 = (x^2, y^2, ...) and I2
    not m-primary reads 2^(n-1) ord(I2), as the stage chain does (on C^2
    and C^3); for an m-primary I, `mixed_multiplicity_primary` and m_1 of
    the profile (on C^2 and C^3) read ord(I) with no round."""
    cfg = GenericityConfig()
    R = PolynomialRing(names)
    germ, n = make_germ(R), len(names)
    m, squares = ideal(R, *R.variables()), ideal(R, *(v ** 2 for v in R.variables()))
    fourth_powers = [v ** 4 for v in R.variables()]
    rng = random.Random(33 + n)
    rounds = certified_spy(monkeypatch)
    seen = set()
    for case in range(8):
        I = _random_of_mixed_orders(R, rng)
        if case % 2:  # m-primary, of the same order
            I = Ideal(R, I.generators + tuple(fourth_powers))
        order = min(vanishing_order(g) for g in I.generators)
        codim = segre._check_cosupport(germ, I)
        seen.add((order, codim == n))
        rounds.clear()
        assert segre._fold(germ, ((m, n - 1), (I, 1)), (n, codim)) == (order, ())
        assert segre._fold(germ, ((I, 1), (squares, n - 1)), (codim, n)) == \
            (2 ** (n - 1) * order, ())
        if codim == n:
            assert mixed_multiplicity_primary(germ, I, m, 1, cfg) == order
            assert rounds == []
            if n < 4:  # e(I) of the fourth powers' ideals on C^4 takes seconds
                assert segre_profile(germ, I, cfg).m[:2] == (1, order)
                assert _colength_rounds(rounds) == [True] * (n - 1)
        else:
            assert mixed_segre(germ, squares, I, n, n - 1, 1, cfg) == 2 ** (n - 1) * order
            assert rounds == []
            if n < 4:
                assert _mixed_rounds(germ, squares, I, n, n - 1, 1, cfg) == 2 ** (n - 1) * order
        assert segre._colength(germ, cfg, ((m, n - 1), (I, 1))) == order
    assert {o for o, _ in seen} != {1} and {p for _, p in seen} == {False, True}


def test_the_order_rule_needs_c_n(R2, cfg):
    """On the cusp y^2 - x^3, a curve germ (n = 1), e(m^[1]) is the
    curve's multiplicity 2, read by a colength round, not ord(m) = 1: the
    order rule reads the order on a generic line of C^n, and a germ with
    an ambient has no such line."""
    x, y = R2.variables()
    cusp = make_germ(R2, ideal(R2, y ** 2 - x ** 3))
    m = ideal(R2, x, y)
    assert segre._fold(cusp, ((m, 1),), (1,)) == (1, ((m, 1),))
    assert [mixed_multiplicity_primary(cusp, m, m, i, cfg) for i in (0, 1)] == [2, 2]


@pytest.mark.parametrize("names,low", [(["x", "y", "z"], 1), (["x", "y", "z"], 2),
                                       (["x", "y", "z", "w"], 1), (["x", "y", "z", "w"], 2)])
def test_m_primary_profiles_match_the_stage_chain(names, low, monkeypatch):
    """On seeded m-primary ideals with terms of degree `low` to 3, the
    profile read as
    the Teissier sequence m_k = e(m^[n-k] | I^[k]), e = (0, ..., 0, e(I)),
    equals the numbers of the certified number-only stage chain, with
    every round over GF(p) and again with every round over QQ."""
    cfg = GenericityConfig()
    germ = make_germ(PolynomialRing(names))
    n = germ.n
    rng = random.Random(34 + n + low)
    ideals = [_random_m_primary(germ, rng, low) for _ in range(3)]
    stages = _stages_spy(monkeypatch)
    for rational in (False, True):
        if rational:
            monkeypatch.setattr(segre, "_round_prime", _rational_rounds)
        for I in ideals:
            stages.clear()
            profile = segre_profile(germ, I, cfg)
            assert stages == []
            numbers = segre._certified(cfg, partial(segre._chain_round, codim=n), germ, I)[0]
            assert profile == SegreProfile(tuple(e for _, e in numbers[1:]),
                                           tuple(m for m, _ in numbers[:-1]))
            assert profile.e[:-1] == (0,) * (n - 1)


def test_a_special_linear_form_raises_its_number(R3, cfg, monkeypatch):
    """m_2 of I = (x^2, y^2, z^3) on C^3 is e(m^[1] | I^[2]) = 4.  The
    tangent cone of a cut of two generic elements of I is the z-axis, so
    the linear form x, which vanishes on it, is special: the colength of
    (x, h_1, h_2) is that of (y^2, z^3), 6.  Forced into round 0 of m_2's
    rounds in place of a generic linear form, it raises that round's
    number, the rounds disagree under both coefficient bounds, and the
    profile refuses."""
    x, y, z = R3.variables()
    I = ideal(R3, x ** 2, y ** 2, z ** 3)
    germ = make_germ(R3)
    assert segre_profile(germ, I, cfg) == SegreProfile((0, 0, 12), (1, 2, 4))
    real = segre._colength_round
    values = []

    def special_in_round_0(seed, cfg, round_idx, germ, *ideals, counts):
        if round_idx == 0 and counts[0]:
            ideals = (Ideal(germ.ring, (germ.ring.variable("x"),)),) + ideals[1:]
        values.append(real(seed, cfg, round_idx, germ, *ideals, counts=counts))
        return values[-1]

    monkeypatch.setattr(segre, "_colength_round", special_in_round_0)
    with pytest.raises(GenericityError, match=r"seed disagreement persists .*\[6, 4\]"):
        segre_profile(germ, I, cfg)
    assert values == [6, 4, 6, 4]


def test_equigenerated_rounds_gate_and_fallback(R2, R3, cfg, monkeypatch):
    """Rounds still run for a tangent ideal that is not homogeneous and
    for generators of two degrees (colength rounds for m_2 .. m_n, as
    both are m-primary on C^n), for an ideal of one degree that is not
    m-primary, on the cone xy - z^2 and for a chain round with codim 0
    (the stage chain); and, for mixed numbers, when only one side of a
    top-level pair is m-primary and at k = n with i + j > n.  A draw
    whose n forms share a zero line, which fails the stage chain, leaves
    the profile of m^2 unchanged, as no round draws."""
    x, y, z = R3.variables()
    a, b = R2.variables()
    m = ideal(R3, x, y, z)
    m2 = ideal_power(m, 2)
    stages = _stages_spy(monkeypatch)
    rounds = certified_spy(monkeypatch)
    cases = [
        (make_germ(R3), contact_tangent_ideal(FunctionGerm(x ** 2 + y ** 2 + z ** 3)), True),
        (make_germ(R2), ideal(R2, a ** 2, b ** 3), True),
        (make_germ(R3), ideal(R3, x * z, y * z), False),
        (make_germ(R3, ideal(R3, x * y - z ** 2)), m, False),
    ]
    for germ, I, primary in cases:
        stages.clear()
        rounds.clear()
        segre_profile(germ, I, cfg)
        if primary:
            assert stages == [] and _colength_rounds(rounds) == [True] * (germ.n - 1)
        else:
            assert stages and all(stages) and _colength_rounds(rounds) == [False]
    stages.clear()
    assert segre._chain_round(cfg.seed, cfg, 0, make_germ(R3), m2) == \
        ((1, None), (2, 0), (4, 0), (0, 8))
    assert stages == [True]

    # (a^2) is not m-primary: with m^2 folded into one linear form, the
    # order rule reads e_2^{1,1} = 2 ord(a^2) and only the reference chain
    # runs; drawing two elements of (x^2, y^2) it takes a round
    mixed = [(make_germ(R2), ideal(R2, a ** 2), ideal_power(ideal(R2, a, b), 2), (2, 1, 1),
              [False]),
             (make_germ(R3), ideal(R3, x ** 2, y ** 2), m2, (3, 2, 1), [True, False]),
             (make_germ(R3), ideal(R3, *(v ** 2 for v in (x, y, z))), m2, (3, 2, 2),
              [True, False])]
    for germ, I1, I2, request, kinds in mixed:
        rounds.clear()
        assert mixed_segre(germ, I1, I2, *request, cfg) == \
            _mixed_rounds(germ, I1, I2, *request, cfg)
        assert _colength_rounds(rounds) == kinds

    # the three cuts are drawn from the generators in (x, y) only, so
    # they share the z-axis
    real = segre.generic_tuple

    def on_the_z_axis(I, count, cfg, seed=None):
        if count == 3:
            I = Ideal(I.ring, [g for g in I.generators if all(e[0] or e[1] for _, e in g.terms())])
        return real(I, count, cfg, seed)

    monkeypatch.setattr(segre, "generic_tuple", on_the_z_axis)
    with pytest.raises(GenericityError, match="stage 3 cut: local dimension 1, expected 0"):
        segre._certified(cfg, partial(segre._chain_round, codim=3), make_germ(R3), m2)
    stages.clear()
    assert segre_profile(make_germ(R3), m2, cfg) == SegreProfile((0, 0, 8), (1, 2, 4))
    assert stages == []


def test_one_degree_rerun_retries_a_degenerate_draw(R3, cfg, monkeypatch):
    """When round 0's attempt-0 seed draws three cuts of m^2 on C^3 that
    share the z-axis, its chain round over GF(p) fails its stage-3
    dimension check, `_certified` moves on to round 0's next attempt
    seed, and `polar_chain` reruns that seed over QQ and certifies
    e = (0, 0, 8) with it; when every seed's cuts do, it ends in
    `GenericityError`."""
    m2 = ideal_power(ideal(R3, *R3.variables()), 2)
    real = segre.generic_tuple
    first = derive_seed(cfg.seed, 0, 0, 0)  # bound step 0, round 0, attempt 0
    bad = {first}

    def on_the_z_axis(I, count, cfg, seed=None):
        if count == 3 and (seed in bad or bad == {None}):
            I = Ideal(I.ring, [g for g in I.generators if all(e[0] or e[1] for _, e in g.terms())])
        return real(I, count, cfg, seed)

    monkeypatch.setattr(segre, "generic_tuple", on_the_z_axis)
    germ = make_germ(R3)
    with pytest.raises(DimensionAnomalyError, match="stage 3 cut: local dimension 1"):
        segre._polar_stages(germ, m2, cfg, first)
    chain = polar_chain(germ, m2, cfg)
    assert (chain.e, chain.m) == ((0, 0, 8), (1, 2, 4))
    assert chain.seeds_used[0] == derive_seed(cfg.seed, 0, 0, 1)
    assert first not in chain.seeds_used
    bad = {None}
    with pytest.raises(GenericityError,
                       match="persistent dimension anomaly: stage 3 cut: local dimension 1"):
        polar_chain(germ, m2, cfg)


def test_bounded_colengths_match_plain_ones(monkeypatch):
    """On seeded m-primary ideals on C^2, C^3 and C^4, of mixed degrees
    and of one degree, and on the tangent ideal of x^2 + y^2 + z^3,
    `_colength_round` (every top-level request, both orientations) and
    `_chain_round` give the same numbers over each round's GF(p) with
    their Hilbert bounds as with every prefix dropped, and the bounds
    never add an S-pair."""
    cfg = GenericityConfig()
    rng = random.Random(27)
    cases = []
    for names, pairs in ((["x", "y"], ((1, 2), (2, 3), (2, 2))),
                         (["x", "y", "z"], ((1, 2), (2, 3), (2, 2))),
                         (["x", "y", "z", "w"], ((1, 2), (2, 2)))):
        germ = make_germ(PolynomialRing(names))
        for low, high in pairs:
            cases.append((germ, _random_m_primary(germ, rng, low, high),
                          _random_m_primary(germ, rng, high, high)))
    R3 = PolynomialRing(["x", "y", "z"])
    x, y, z = R3.variables()
    cases.append((make_germ(R3), contact_tangent_ideal(FunctionGerm(x ** 2 + y ** 2 + z ** 3)),
                  ideal(R3, x, y, z)))
    real = segre.multiplicity_at_origin

    def numbers(case, germ, I1, I2):
        seed = derive_seed(cfg.seed, case)
        p = segre._round_prime(seed)
        germ, I1, I2 = germ.over(p), I1.over(p), I2.over(p)
        n = germ.n
        out = [segre._chain_round(seed, cfg, 0, germ, I, codim=n) for I in (I1, I2)]
        out += [segre._colength_round(seed, cfg, r, germ, I1, I2, counts=(i, j))
                for r in (0, 1) for i in range(1, n + 1) for j in range(1, n + 1) if i + j >= n]
        clear_caches()
        return out, ENGINE_STATS.spairs_reduced

    saved = 0
    for case, (germ, I1, I2) in enumerate(cases):
        clear_caches()
        ENGINE_STATS.reset()
        bounded, bounded_pairs = numbers(case, germ, I1, I2)
        with monkeypatch.context() as patch:
            patch.setattr(segre, "multiplicity_at_origin", lambda I, prefix=None: real(I))
            ENGINE_STATS.reset()
            plain, plain_pairs = numbers(case, germ, I1, I2)
        assert bounded == plain, (case, I1, I2)
        assert bounded_pairs <= plain_pairs, case
        saved += plain_pairs - bounded_pairs
    assert saved


def test_a_germ_with_an_ambient_completes_no_ambient_for_a_bound(R3, cfg):
    """Stage 1's cut takes the zero ideal as its prefix, so its bound is
    the product over the ambient's generators and f_1, and no round
    completes the ambient over its GF(p).  From cold caches, `make_germ`,
    `segre_profile` and `polar_chain` run 12 completions on the cone
    xy - z^2 with I = (x, z), against 15 when the bound was the ambient's
    series times (1 - z^deg f_1), and 15 on x^2 + y^3 + z^5 with
    I = (x, y), against 18.  Teissier's multiplicities of (m, (x^2, y, z))
    on the cone, i = 0..2, read colengths bounded by the product over the
    cone's generator and the two cuts: 9 completions reducing 14
    S-pairs, against 9 and 31 with no bound.  The numbers are those of
    the unbounded runs."""
    x, y, z = R3.variables()

    def work(run):
        clear_caches()
        ENGINE_STATS.reset()
        out = run()
        return out, ENGINE_STATS.buchberger_runs, ENGINE_STATS.spairs_reduced

    def chain(ambient, I):
        germ = make_germ(R3, ideal(R3, ambient))
        return segre_profile(germ, I, cfg).e, polar_chain(germ, I, cfg).m

    assert work(lambda: chain(x * y - z ** 2, ideal(R3, x, z)))[:2] == (((1, 1), (2, 1)), 12)
    assert work(lambda: chain(x ** 2 + y ** 3 + z ** 5, ideal(R3, x, y)))[:2] == \
        (((0, 5), (2, 2)), 15)

    def teissier():
        germ = make_germ(R3, ideal(R3, x * y - z ** 2))
        m = ideal(R3, x, y, z)
        return [mixed_multiplicity_primary(germ, m, ideal(R3, x ** 2, y, z), i, cfg)
                for i in range(3)]

    assert work(teissier) == ([3, 2, 2], 9, 14)


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


def test_exact_rerun_catches_a_prime_bad_for_every_round(R2, monkeypatch):
    """Every round forced onto GF(3), where (x^3, y^3, 3xy) becomes
    (x^3, y^3) and every cut keeps its dimension: the rounds agree on
    e = (0, 9), and `polar_chain`'s rerun of round 0 over QQ, which gives
    the true e = (0, 6), refuses them.  The ideal has two degrees over QQ,
    so its rounds run the stage chain, although GF(3) leaves one."""
    x, y = R2.variables()
    I = ideal(R2, x ** 3, y ** 3, 3 * x * y)
    germ = make_germ(R2)
    assert (segre._one_degree(germ, I, 2), segre._one_degree(germ, I.over(3), 2)) == (None, 3)
    stages = _stages_spy(monkeypatch)
    monkeypatch.setattr(segre, "_round_prime", lambda seed, den=1: 3)
    with pytest.raises(GenericityError, match=r"\(0, 6\)\) over QQ but .*\(0, 9\)\) over GF"):
        polar_chain(germ, I, GenericityConfig())
    assert stages.count(True) == GenericityConfig().verification_rounds


def test_a_prime_bad_for_every_round_fails_the_profile(R3, monkeypatch):
    """Over GF(3) the tangent ideal T of x^3 + y^3 + z^3 + z^4 is
    (xz^3, yz^3, z^4, f), of dimension 1 against 0 over QQ.  With every
    round on GF(3) the three cuts of e(T)'s colength round keep that
    dimension and `segre_profile` refuses, rather than read the numbers
    of an m-primary ideal that GF(3) does not have; the true profile is
    e = (0, 0, 27).  The
    tangent ideal of x^3 + y^3 + z^3, generated in degree 3 over QQ, gets
    its true profile under the same patch, as its degree is read over QQ
    and `segre_profile` runs no round; GF(3) leaves only (f), on which
    the stage chain's rounds fail."""
    x, y, z = R3.variables()
    T = contact_tangent_ideal(FunctionGerm(x ** 3 + y ** 3 + z ** 3 + z ** 4))
    assert (segre.dimension(T), segre.dimension(T.over(3))) == (0, 1)
    germ, cfg = make_germ(R3), GenericityConfig()
    assert segre_profile(germ, T, cfg) == SegreProfile((0, 0, 27), (1, 3, 9))
    monkeypatch.setattr(segre, "_round_prime", lambda seed, den=1: 3)
    with pytest.raises(GenericityError, match="top-level cuts: local dimension 1, expected 0"):
        segre_profile(germ, T, cfg)
    cubes = contact_tangent_ideal(FunctionGerm(x ** 3 + y ** 3 + z ** 3))
    assert segre_profile(germ, cubes, cfg) == SegreProfile((0, 0, 27), (1, 3, 9))
    assert segre._one_degree(germ, cubes, 3) == 3
    assert len(cubes.over(3).generators) == 1
    with pytest.raises(GenericityError, match="could not draw a full-rank coefficient matrix"):
        segre._certified(cfg, partial(segre._chain_round, codim=3), germ, cubes)


def test_unlucky_prime_is_caught_by_certification(R3, monkeypatch):
    """Round 1 forced onto GF(3), where the tangent ideal of
    x^3 + y^3 + z^3 + z^4 has dimension 1: the round's stage-3 cut keeps
    that dimension, so the round retries under its next seed, and the
    certified numbers are the clean ones.  (`polar_chain` would rerun
    round 0 over QQ, which takes seconds on this input.)"""
    x, y, z = R3.variables()
    T = contact_tangent_ideal(FunctionGerm(x ** 3 + y ** 3 + z ** 3 + z ** 4))
    germ = make_germ(R3)
    cfg = GenericityConfig()
    run = partial(segre._chain_round, codim=segre._check_cosupport(germ, T))
    clean, seeds, _ = segre._certified(cfg, run, germ, T)
    bad_seed = derive_seed(cfg.seed, 0, 1, 0)  # bound step 0, round 1, attempt 0
    assert bad_seed in seeds
    real = segre._round_prime
    forced = []

    def unlucky(seed, den=1):
        if seed == bad_seed:
            forced.append(seed)
            return 3
        return real(seed, den)

    monkeypatch.setattr(segre, "_round_prime", unlucky)
    numbers, seeds, _ = segre._certified(cfg, run, germ, T)
    assert forced
    assert numbers == clean == ((1, None), (3, 0), (9, 0), (0, 27))
    assert bad_seed not in seeds


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
    """When P : g^inf = P for the generic g of I, the precondition check
    makes one saturation and no intersection of saturations by the
    generators of I."""
    _, I2 = divisor_pair
    P = polar_chain(germ3, I2, cfg).stages[1].polar_ideal
    meets = []
    real = segre.intersect

    def spy(A, B):
        meets.append(B)
        return real(A, B)

    monkeypatch.setattr(segre, "intersect", spy)
    saturations = saturate_spy(monkeypatch)
    segre_on_subspace(germ3, I2, P, cfg)
    assert meets == []
    assert saturations[0] == P


def test_subspace_precondition_falls_back_to_every_generator(germ3, R3, cfg,
                                                             monkeypatch):
    """X = (xy) on C^3 and I = (x, y): with the precondition's g forced to
    x, X : x^inf = (y) is not X, and the check goes on to
    X : I^inf = (y) cap (x) = X, which passes; the profile is the one the
    generic g gives.  No per-generator saturation equals X here, so a
    check that asked that of each would refuse."""
    x, y, _ = R3.variables()
    X, I = ideal(R3, x * y), ideal(R3, x, y)
    unforced = segre_on_subspace(germ3, I, X, cfg)
    real = segre._saturator

    def forced(S, cfg_b, seed, *where):
        if S.ring.modulus:
            return real(S, cfg_b, seed, *where)
        return ideal(S.ring, x)

    monkeypatch.setattr(segre, "_saturator", forced)
    meets = []
    real_intersect = segre.intersect

    def spy(A, B):
        meets.append((A, B))
        return real_intersect(A, B)

    monkeypatch.setattr(segre, "intersect", spy)
    forced_profile = segre_on_subspace(germ3, I, X, cfg)
    assert meets == [(ideal(R3, y), ideal(R3, x))]
    assert (forced_profile.e, forced_profile.m) == (unforced.e, unforced.m) == ((2, 0), (2, 0))
    assert segre.saturate(X, ideal(R3, y)) != X


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


@pytest.mark.parametrize("seed", [3, 5])
def test_teissier_formula_on_random_semi_quasi_homogeneous_germs(R3, seed):
    """A semi-quasi-homogeneous germ has an isolated singularity with the
    Milnor number of its principal part, (a-1)(b-1)(c-1), and e_3 of its
    contact tangent ideal is Teissier's sum C(3, i) mu^(i)."""
    f, (a, b, c) = semi_quasi_homogeneous(R3, seed)
    mu = milnor_sequence(f.poly)
    assert mu[3] == (a - 1) * (b - 1) * (c - 1)
    prof = segre_profile(make_germ(R3), contact_tangent_ideal(f), GenericityConfig(seed=7))
    assert prof.e[2] == sum(math.comb(3, i) * mu[i] for i in range(4))
