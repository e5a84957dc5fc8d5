from segrenum import (
    Ideal,
    hilbert_samuel,
    ideal,
    ideal_power,
    ideal_sum,
    multiplicity_at_origin,
    passes_through_origin,
    colength,
)

from oracles import macaulay_colength_stable, vanishing_order


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

