import random

import pytest

from segrenum import (
    GREVLEX,
    Ideal,
    buchberger,
    hilbert_samuel,
    ideal,
    ideal_power,
    ideal_sum,
    multiplicity_at_origin,
    passes_through_origin,
    saturate,
    colength,
    dimension,
)
from segrenum.errors import ConsistencyError, PreconditionError
from segrenum.groebner import (
    ENGINE_STATS,
    _buchberger_raw,
    _global_series,
    _normalise,
    clear_caches,
    hilbert_function,
    hilbert_series,
)
from segrenum.multiplicity import _cut_bound, _homogenize
from segrenum.rings import LEX, TANGENT_CONE, PolynomialRing, _memo_key

from oracles import macaulay_colength_stable, vanishing_order

P31 = 2147483629  # a prime just below 2^31


def power_of_maximal(ring, N):
    return ideal_power(Ideal(ring, ring.variables()), N)


def test_hilbert_samuel_hyperplane(R3):
    x, y, z = R3.variables()
    I = ideal(R3, z)
    assert hilbert_samuel(I, 4) == 10
    for N in range(1, 11):
        assert hilbert_samuel(I, N) == N * (N + 1) // 2


def test_hilbert_samuel_point(R3):
    x, y, z = R3.variables()
    I = ideal(R3, x, y, z)
    for N in (1, 2, 5):
        assert hilbert_samuel(I, N) == 1


def test_hilbert_samuel_cusp(R2):
    x, y = R2.variables()
    cusp = ideal(R2, x ** 2 - y ** 3)
    assert hilbert_samuel(cusp, 5) == 9
    # same number through the straight colength route and the oracle
    truncated = ideal_sum(cusp, power_of_maximal(R2, 5))
    assert colength(truncated) == 9
    assert macaulay_colength_stable(truncated) == 9


def test_fast_path_matches_plain_colength(R2, R3):
    x, y = R2.variables()
    x3, y3, z3 = R3.variables()
    graded = [
        ideal(R3, x3 * z3, y3 * z3, z3 ** 2),
        ideal(R2, x ** 2, y ** 3),
        ideal(R3, z3),
    ]
    for I in graded:
        for N in (2, 4, 6):
            direct = colength(ideal_sum(I, power_of_maximal(I.ring, N)))
            assert hilbert_samuel(I, N) == direct
    # non-homogeneous generators go through the tangent-cone basis; the
    # dense Macaulay oracle shares none of its code
    ungraded = [
        (ideal(R2, x ** 2 - y ** 3), (2, 4, 6)),
        (ideal(R2, x ** 2 * (x - 1), y), (2, 5, 8)),  # plus a point off the origin
        (ideal(R3, x3 * y3 - z3 ** 2, x3 ** 2 + y3 * z3 + z3), (3, 4)),
        (ideal(R3, x3 * z3 - y3 ** 3, y3 ** 2 + z3 ** 3 - x3 * z3 ** 2), (3, 4, 5)),
    ]
    for I, Ns in ungraded:
        for N in Ns:
            truncated = ideal_sum(I, power_of_maximal(I.ring, N))
            assert hilbert_samuel(I, N) == macaulay_colength_stable(truncated)
    hypersurfaces = [
        x ** 3 + y ** 4 + x * y ** 3,
        x3 * y3 * z3 + x3 ** 4 + y3 ** 5 + z3 ** 6,
        x3 ** 2 + y3 ** 2 + z3 ** 3,
    ]
    for f in hypersurfaces:
        res = multiplicity_at_origin(ideal(f.ring, f))
        assert res.local_dimension == f.ring.nvars - 1
        assert res.multiplicity == vanishing_order(f)


def test_monotonicity(R2, R3):
    x, y = R2.variables()
    samples = [ideal(R2, x ** 2 - y ** 3), ideal(R2, x * y), ideal(R3.variables()[2].ring, R3.variables()[2])]
    for I in samples:
        values = [hilbert_samuel(I, N) for N in range(1, 9)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_multiplicity_examples(R2, R3):
    x, y = R2.variables()
    z = R3.variables()[2]

    res = multiplicity_at_origin(ideal(R3, z))
    assert (res.multiplicity, res.local_dimension) == (1, 2)

    cusp = ideal(R2, x ** 2 - y ** 3)
    res = multiplicity_at_origin(cusp)
    assert (res.multiplicity, res.local_dimension) == (2, 1)
    assert res.multiplicity == vanishing_order(cusp.generators[0])

    res = multiplicity_at_origin(ideal(R2, x ** 2, y ** 2))
    assert (res.multiplicity, res.local_dimension) == (4, 0)


def test_degree_detection_is_sound(R2):
    x, y = R2.variables()
    res = multiplicity_at_origin(ideal(R2, x ** 2 - y ** 3))
    d = res.local_dimension
    diffs = res.samples
    for _ in range(d + 1):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    assert diffs[-2:] == [0, 0]


def test_local_colength_ignores_points_off_origin(R2):
    x, y = R2.variables()
    # V = {0} with multiplicity 2, plus a reduced point at x = 1
    I = ideal(R2, x ** 2 * (x - 1), y)
    res = multiplicity_at_origin(I)
    assert (res.multiplicity, res.local_dimension) == (2, 0)
    assert colength(I) == 3


def test_multiplicity_scales_with_length(R2, R3):
    x, y = R2.variables()
    z = R3.variables()[2]
    # a length-3 structure on a smooth plane: 3 * 1
    res = multiplicity_at_origin(ideal(R3, z ** 3))
    assert (res.multiplicity, res.local_dimension) == (3, 2)
    # a double smooth line in the plane: 2 * 1
    res = multiplicity_at_origin(ideal(R2, (x + y) ** 2))
    assert (res.multiplicity, res.local_dimension) == (2, 1)


def test_local_colength_equals_global_when_origin_only(R2):
    x, y = R2.variables()
    only_origin = [
        ideal(R2, x ** 2, y ** 3),
        ideal(R2, x ** 2, y ** 2),
        ideal(R2, x ** 2 + y ** 2, x * y),
    ]
    for I in only_origin:
        res = multiplicity_at_origin(I)
        assert res.local_dimension == 0
        assert res.multiplicity == colength(I)


def test_misses_origin(R2):
    x, y = R2.variables()
    res = multiplicity_at_origin(ideal(R2, x - 1))
    assert res.misses_origin and res.multiplicity == 0
    assert multiplicity_at_origin(ideal(R2, R2.one())).misses_origin


def test_passes_through_origin(R2):
    x, y = R2.variables()
    assert not passes_through_origin(ideal(R2, x - 1))
    assert passes_through_origin(ideal(R2, x, y))
    assert passes_through_origin(ideal(R2, x * (x - 1)))


# -- the Hilbert bound of a cut ----------------------------------------------

def _random_form(rng, ring, homogeneous, degree=None):
    """Two to four terms with small coefficients: all of `degree` (drawn
    from 1 to 3 when not given), or each of its own degree from 1 to
    `degree` (3 when not given)."""
    n = ring.nvars
    top = 3 if degree is None else degree
    if degree is None:
        degree = rng.randint(1, 3)
    coeffs = {}
    for _ in range(rng.randint(2, 4)):
        e = [0] * n
        for _ in range(degree if homogeneous else rng.randint(1, top)):
            e[rng.randrange(n)] += 1
        coeffs[tuple(e)] = rng.choice((-7, -3, -2, -1, 1, 2, 5, 11))
    return ring.poly(coeffs)


def _completion_series(J, homogeneous):
    """The ideal and order of the completion that reads J's series, and
    that series."""
    H, order = (J, GREVLEX) if homogeneous else (_homogenize(J), TANGENT_CONE)
    gb = buchberger(H, order)
    return H, order, hilbert_series(gb.leading_exponents(), H.ring.nvars)


def _coefficients(series, top):
    return [hilbert_function(*series, D) for D in range(top)]


def _bounded_completion(J, prefix, homogeneous, case):
    """Check the bound of the cut J after `prefix` against the series its
    completion reads, and the bounded completion against the plain one:
    the same rows and leads, no more S-pairs, and the same multiplicity
    when `multiplicity_at_origin` runs it.  Returns the S-pairs saved
    and whether the bound equals the series."""
    ring = J.ring
    P, d = _cut_bound(J, prefix)
    bound = (P, d if homogeneous else d + 1)
    H, order, series = _completion_series(J, homogeneous)
    top = max(len(series[0]), len(P)) + 4
    below = _coefficients(bound, top)
    assert all(b <= s for b, s in zip(below, _coefficients(series, top))), case

    key = _memo_key(order, H.ring.nvars)
    gens = [_normalise(g.coeffs, key, ring.modulus) for g in H.generators]
    runs = []
    for b in (None, bound):
        ENGINE_STATS.reset()
        runs.append((_buchberger_raw(gens, key, modulus=ring.modulus, bound=b),
                     ENGINE_STATS.spairs_reduced))
    (plain, plain_pairs), (bounded, bounded_pairs) = runs
    assert bounded == plain, case
    assert bounded_pairs <= plain_pairs, case

    clear_caches()
    _global_series(prefix)
    ENGINE_STATS.reset()
    cut = multiplicity_at_origin(J, prefix=prefix)
    assert ENGINE_STATS.spairs_reduced == bounded_pairs, case
    clear_caches()
    assert cut == multiplicity_at_origin(J), case
    return plain_pairs - bounded_pairs, below == _coefficients(series, top)


@pytest.mark.parametrize("homogeneous", [True, False], ids=["grevlex", "tangent-cone"])
def test_hilbert_bound_keeps_every_row(homogeneous):
    """On 24 seeded cuts Q + (f) on C^3 and C^4, over QQ and GF(p), with
    Q given by its reduced grevlex basis (as a polar ideal is) or by two
    random generators: the bound is at most the series the completion
    reads, and equal to it when f is a nonzerodivisor modulo Q (on the
    tangent-cone path, for Q given by its basis); the bounded and the
    plain completion give the same rows and leads, and the bounded one
    never reduces more S-pairs, also when `multiplicity_at_origin` runs
    it.  The same holds for the zero prefix with r = 1 .. n + 1 cuts on
    C^2, C^3 and C^4, their degrees drawn from 1 to 3 or alternating
    between 2 and 5, so that the degrees of the pairs jump; there the
    bound is exact when the cuts are a regular sequence."""
    rng = random.Random(5)
    saved = exact = 0
    for case in range(24):
        ring = PolynomialRing(["x", "y", "z", "w"][:3 + case % 2]).over((0, P31)[case // 2 % 2])
        Q = ideal(ring, *(_random_form(rng, ring, homogeneous) for _ in range(2)))
        polar = case // 4 % 2
        if polar:
            Q = Ideal(ring, buchberger(Q, GREVLEX).basis)
        f = _random_form(rng, ring, homogeneous)
        J = ideal_sum(Q, ideal(ring, f))
        fewer, equal = _bounded_completion(J, Q, homogeneous, case)
        saved += fewer
        if (homogeneous or polar) and saturate(Q, ideal(ring, f)) == Q:
            assert equal, case
            exact += 1
    assert saved and exact >= 6

    saved = exact = 0
    for n in (2, 3, 4):
        for r in range(1, n + 2):
            for modulus in (0, P31):
                ring = PolynomialRing(["x", "y", "z", "w"][:n]).over(modulus)
                degree_lists = [(None,) * r]
                if r > 1:
                    degree_lists.append(((2, 5) * n)[:r])
                for degrees in degree_lists:
                    case = n, r, modulus, degrees
                    J = ideal(ring, *(_random_form(rng, ring, homogeneous, d) for d in degrees))
                    fewer, equal = _bounded_completion(J, Ideal(ring, ()), homogeneous, case)
                    saved += fewer
                    H = J if homogeneous else _homogenize(J)
                    if dimension(H) == H.ring.nvars - r:
                        assert equal, case
                        exact += 1
    assert saved and exact >= 6


def test_cut_bound_is_exact_for_a_nonzerodivisor(R2, R3):
    """The bound equals the series when f is a nonzerodivisor modulo Q,
    and stays below it when f = x is a zero divisor modulo (xy); for a
    polar ideal (Q's generators its grevlex basis) the bound of Q itself
    is its series on both paths."""
    x, y = R2.variables()
    Q = ideal(R2, x * y)
    zero_divisor = ideal_sum(Q, ideal(R2, x))
    assert _coefficients(_cut_bound(zero_divisor, Q), 6) == [1, 1, 0, 0, 0, 0]
    assert _coefficients(_global_series(zero_divisor), 6) == [1, 1, 1, 1, 1, 1]
    regular = ideal_sum(Q, ideal(R2, x + y))
    assert _coefficients(_cut_bound(regular, Q), 6) == _coefficients(_global_series(regular), 6)

    a, b, c = R3.variables()
    polar = Ideal(R3, buchberger(ideal(R3, a * b - c ** 3, a * c - b ** 2), GREVLEX).basis)
    cut = ideal_sum(polar, ideal(R3, a + b ** 2 + c))
    for J, Q in ((cut, polar), (polar, polar)):
        P, d = _cut_bound(J, Q)
        assert _coefficients((P, d + 1), 12) == _coefficients(_completion_series(J, False)[2], 12)


def test_a_bound_above_the_series_raises():
    """A twisted cubic cut by a hyperplane: its leads reach the bound in
    degree 3 before any pair of that degree, so the exact bound reduces
    neither of the two pairs and keeps the basis, and a bound one higher
    in degree 3 is refused."""
    R = PolynomialRing(["x", "y", "z", "w"])
    x, y, z, w = R.variables()
    Q = ideal(R, x * z - y ** 2, x * w - y * z, y * w - z ** 2)
    J = ideal_sum(Q, ideal(R, x + y + z + w))
    P, d = _cut_bound(J, Q)
    assert _coefficients((P, d), 6) == [1, 3, 3, 3, 3, 3]
    key = _memo_key(GREVLEX, 4)
    gens = [_normalise(g.coeffs, key) for g in J.generators]
    ENGINE_STATS.reset()
    plain = _buchberger_raw(gens, key)
    assert ENGINE_STATS.spairs_reduced == 2
    ENGINE_STATS.reset()
    assert _buchberger_raw(gens, key, bound=(P, d)) == plain
    assert ENGINE_STATS.spairs_reduced == 0
    assert d == 2  # P(z) = (1 + 2z)(1 - z): the bound is not reduced
    high = tuple(a + b for a, b in zip(P + (0,) * 3, (0, 0, 0, 1, -2, 1)))
    assert _coefficients((high, d), 6) == [1, 3, 3, 4, 3, 3]
    with pytest.raises(ConsistencyError,
                       match="Hilbert bound exceeds the leads' function in degree 3"):
        _buchberger_raw(gens, key, bound=(high, d))


def test_bound_preconditions(R2):
    """A bound needs homogeneous generators and a degree order, and a
    prefix must begin the cut's generators.  No bound is given where the
    product is not proven one: two cuts after a prefix other than the
    zero ideal, or n + 2 after the zero ideal on C^n."""
    x, y = R2.variables()
    needs = "a Hilbert bound needs homogeneous generators and a degree order"
    with pytest.raises(PreconditionError, match=needs):
        buchberger(ideal(R2, x ** 2 - y ** 3), GREVLEX, bound=((1,), 2))
    with pytest.raises(PreconditionError, match=needs):
        buchberger(ideal(R2, x * y), LEX, bound=((1,), 2))
    with pytest.raises(PreconditionError, match="a cut's generators begin with its prefix's"):
        multiplicity_at_origin(ideal(R2, x, y), prefix=ideal(R2, y))
    zero = Ideal(R2, ())
    assert _cut_bound(ideal(R2, x, y, x * y), zero) == ((1, -2, 0, 2, -1), 2)
    for J, Q in ((ideal(R2, x, y, x * y), ideal(R2, x)),
                 (ideal(R2, x, y, x * y, y ** 3), zero)):
        assert _cut_bound(J, Q) is None
        assert multiplicity_at_origin(J, prefix=Q) == multiplicity_at_origin(J)


def test_series_memo_hands_out_immutable_answers():
    """Equal lead sets in any order share one memo entry, and a returned
    series cannot be changed in place, so no caller sees another's edit."""
    leads = [(2, 0, 0), (0, 2, 0), (0, 0, 2)]
    first = hilbert_series(leads, 3)
    assert first == ((1, 3, 3, 1), 0)
    with pytest.raises(TypeError):
        first[0][0] += 1
    P, d = first
    P += (5,)  # rebinds the caller's name only
    assert hilbert_series(reversed(leads), 3) is first
    assert first == ((1, 3, 3, 1), 0)
