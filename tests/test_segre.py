import pytest

from segrenum import (
    GenericityConfig,
    Ideal,
    chain_condition,
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
from segrenum.errors import PreconditionError

from oracles import macaulay_colength_stable


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


def test_closure_invariant_profiles(germ2, R2, cfg):
    x, y = R2.variables()
    a = segre_profile(germ2, ideal(R2, x ** 2, y ** 2), cfg)
    b = segre_profile(germ2, ideal(R2, x ** 2, x * y, y ** 2), cfg)
    assert a.e == b.e == (0, 4)


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


def test_cosupport_precondition(R3, cfg):
    x, y, z = R3.variables()
    germ_surface = make_germ(R3, ideal(R3, z))
    assert germ_surface.n == 2
    with pytest.raises(PreconditionError):
        polar_chain(germ_surface, ideal(R3, z), cfg)


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


def test_profile_oracle_consistency(germ2, R2, cfg):
    # top Segre number of an m-primary ideal = colength of n generic
    # combinations, checked against the dense Macaulay oracle
    x, y = R2.variables()
    I = ideal(R2, x ** 2, y ** 2)
    tup = generic_tuple(I, 2, cfg)
    combo_ideal = Ideal(R2, tup.combinations)
    assert macaulay_colength_stable(combo_ideal) == segre_profile(germ2, I, cfg).e[-1]
