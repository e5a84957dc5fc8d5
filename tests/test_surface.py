import contextlib
import io
import json
import random
from fractions import Fraction

import pytest

from segrenum import cli, surface
from segrenum import (
    SurfaceResolutionData,
    e2_from_orders,
    lemma32_verify,
    negdef_check,
    pairing,
    total_transform,
)
from segrenum.errors import PreconditionError
from segrenum.surface import posdef_check

from conftest import CORPUS


def chain_matrix(n):
    """A_n chain: -2 on the diagonal, 1 on the off-diagonals."""
    return [
        [-2 if i == j else (1 if abs(i - j) == 1 else 0) for j in range(n)]
        for i in range(n)
    ]


def test_negdef_examples():
    assert negdef_check([[-2]])
    assert negdef_check([[-2, 1], [1, -2]])
    assert not negdef_check([[-1, 2], [2, -1]])
    with pytest.raises(PreconditionError):
        negdef_check([[-2, 1], [0, -2]])


def _det(m):
    """Determinant by cofactor expansion along the first row: the reference."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def test_posdef_matches_sylvester_minors():
    """posdef_check agrees with the signs of the leading principal minors,
    each by cofactor expansion, on seeded symmetric integer matrices up to
    5 x 5: Gram matrices plus a positive diagonal (definite), Gram
    matrices of fewer vectors than the size (semidefinite, singular), and
    unconstrained symmetric ones (mostly indefinite)."""
    rng = random.Random(8)
    verdicts = []
    for case in range(300):
        n = rng.randint(1, 5)
        kind = case % 3
        if kind == 2:
            G = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    G[i][j] = G[j][i] = rng.randint(-5, 5)
        else:
            rows = n + 1 if kind == 0 else rng.randint(0, n - 1)
            B = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rows)]
            G = [[sum(b[i] * b[j] for b in B) for j in range(n)] for i in range(n)]
            if kind == 0:
                for i in range(n):
                    G[i][i] += rng.randint(1, 3)
        expected = all(_det([row[:k] for row in G[:k]]) > 0 for k in range(1, n + 1))
        assert posdef_check(G) == expected, G
        assert negdef_check([[-x for x in row] for row in G]) == expected, G
        verdicts.append((kind, expected))
    assert (0, False) not in verdicts and (1, True) not in verdicts
    assert (2, True) in verdicts and (2, False) in verdicts


def test_negdef_chains():
    for n in range(1, 9):
        assert negdef_check(chain_matrix(n))


def test_total_transform_examples():
    assert total_transform([[-2]], [1]) == [Fraction(1, 2)]
    assert total_transform([[-2, 1], [1, -2]], [1, 0]) == [Fraction(2, 3), Fraction(1, 3)]
    with pytest.raises(PreconditionError):
        total_transform([[-2]], [0])


@pytest.mark.parametrize("matrix, c, message", [
    ([[-1, 2], [2, -1]], [1, 0], "matrix must be negative definite"),
    ([[-1, 2], [2, -1]], [1], "matrix must be negative definite"),
    ([[-2, 1], [0, -2]], [1, 0], "intersection matrix must be symmetric"),
    ([[-2]], [1, 0], "vector/matrix dimensions differ"),
    ([[-2, 1], [1, -2]], [1, -1], "intersection numbers must be nonnegative"),
    ([[-2, 1], [1, -2]], [0, 0], "the zero vector is rejected"),
    ([[-2, -1], [-1, -2]], [1, 0], "solution is not entrywise positive: invalid input data"),
], ids=["not-negdef", "not-negdef-before-length", "not-symmetric", "length",
        "negative-entry", "zero-vector", "not-positive"])
def test_total_transform_refusals(matrix, c, message):
    """Each refusal, with its message; a matrix that is not negative
    definite is named before a vector of the wrong length."""
    with pytest.raises(PreconditionError) as err:
        total_transform(matrix, c)
    assert str(err.value) == message


def test_total_transform_positivity_on_chains():
    rng = random.Random(3307)
    for n in range(1, 9):
        M = chain_matrix(n)
        for trial in range(6):
            c = [rng.randint(0, 4) for _ in range(n)]
            if not any(c):
                c[rng.randrange(n)] = 1
            a = total_transform(M, c)
            assert all(x > 0 for x in a)


def test_pairing_examples():
    assert pairing([[-2]], [1], [1]) == 2
    assert pairing([[-2]], [2], [1]) == 2 * pairing([[-2]], [1], [1])
    assert pairing([[-2, 1], [1, -2]], [1, 0], [0, 1]) == -1


def test_pairing_positive_definite_fuzz():
    rng = random.Random(90125)
    for n in range(1, 5):
        M = chain_matrix(n)
        for _ in range(50):
            x = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
            if all(v == 0 for v in x):
                continue
            assert pairing(M, x, x) > 0


def test_e2_from_orders_examples():
    data = SurfaceResolutionData(((-2,),), (Fraction(1),), (Fraction(1),), (Fraction(1),))
    r = e2_from_orders(data)
    assert (r.e2_I1, r.e2_I2, r.e2_mixed) == (4, 4, 4)
    assert r.inequality_holds  # the equality case

    u = (Fraction(1), Fraction(2))
    data = SurfaceResolutionData(tuple(map(tuple, chain_matrix(2))), u, u,
                                 (Fraction(0), Fraction(0)))
    r = e2_from_orders(data)
    assert r.e2_I1 == r.e2_I2 == r.e2_mixed

    data = SurfaceResolutionData(
        tuple(map(tuple, chain_matrix(2))),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(1)),
    )
    r = e2_from_orders(data)
    assert r.e2_mixed ** 2 <= r.e2_I1 * r.e2_I2


def test_lemma32_examples():
    identity = [[1, 0], [0, 1]]
    v = lemma32_verify(identity, [2, 0], [1, 0], [1, 1])
    assert v.hypothesis_ok and v.conclusion_holds
    assert (v.lhs, v.rhs) == (9, 12)

    v = lemma32_verify(identity, [2, 1], [2, 1], [0, 0])
    assert v.hypothesis_ok and v.conclusion_holds and v.w_is_zero
    assert v.lhs == v.rhs

    with pytest.raises(PreconditionError):
        lemma32_verify([[1, 2], [2, 1]], [1, 0], [0, 1], [1, 1])


def _random_gram(rng, n):
    """B^T B + diag of positive entries: positive definite, nonnegative."""
    B = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
    G = [[sum(B[k][i] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    for i in range(n):
        G[i][i] += rng.randint(1, 3)
    return G


def _random_vec(rng, n):
    return [Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(n)]


def test_lemma32_fuzz_thousand():
    rng = random.Random(55221)
    checked = 0
    while checked < 1000:
        n = rng.randint(1, 4)
        G = _random_gram(rng, n)
        assert posdef_check(G)
        u, v, w = _random_vec(rng, n), _random_vec(rng, n), _random_vec(rng, n)

        def form(a, b):
            return sum(
                Fraction(a[i]) * Fraction(b[j]) * G[i][j]
                for i in range(n) for j in range(n)
            )

        if form(u, w) < form(v, w):
            u, v = v, u
        # nonnegative data on a nonnegative Gram matrix: hypothesis holds
        verdict = lemma32_verify(G, u, v, w)
        assert verdict.hypothesis_ok
        assert verdict.conclusion_holds
        checked += 1


def test_cauchy_schwarz_baseline():
    rng = random.Random(777)
    for _ in range(300):
        n = rng.randint(1, 4)
        G = _random_gram(rng, n)

        def form(a, b):
            return sum(
                Fraction(a[i]) * Fraction(b[j]) * G[i][j]
                for i in range(n) for j in range(n)
            )

        x = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
        y = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
        assert form(x, y) ** 2 <= form(x, x) * form(y, y)


def test_total_transform_cusp_resolution():
    """The cusp x^2 = y^3 is resolved by three blowups; its strict
    transform meets only the last exceptional curve, and the total
    transform carries the classical multiplicities 2, 3, 6."""
    M = [[-3, 0, 1], [0, -2, 1], [1, 1, -1]]
    assert negdef_check(M)
    a = total_transform(M, [0, 0, 1])
    assert a == [Fraction(2), Fraction(3), Fraction(6)]


def test_order_formulas_match_engine_on_smooth_plane(R2, germ2, cfg):
    """One blowup of the smooth plane: a single (-1)-curve, along which
    m^a pulls back with order a.  The order formulas then reproduce the
    engine's multiplicities of m^2 and m^3 and their mixed number."""
    from segrenum import ideal, mixed_multiplicity_primary, segre_profile

    x, y = R2.variables()
    m2 = ideal(R2, x ** 2, x * y, y ** 2)
    m3 = ideal(R2, x ** 3, x ** 2 * y, x * y ** 2, y ** 3)
    data = SurfaceResolutionData(((-1,),), (Fraction(2),), (Fraction(3),), (Fraction(0),))
    r = e2_from_orders(data)
    assert r.e2_I1 == segre_profile(germ2, m2, cfg).e[-1] == 4
    assert r.e2_I2 == segre_profile(germ2, m3, cfg).e[-1] == 9
    assert r.e2_mixed == mixed_multiplicity_primary(germ2, m2, m3, 1, cfg) == 6


def test_resolution_data_validation():
    with pytest.raises(PreconditionError):
        SurfaceResolutionData(((2,),), (Fraction(1),), (Fraction(1),), (Fraction(1),))
    with pytest.raises(PreconditionError):
        SurfaceResolutionData(((-2,),), (Fraction(-1),), (Fraction(1),), (Fraction(1),))
    with pytest.raises(PreconditionError):
        SurfaceResolutionData(((-2,),), (Fraction(1), Fraction(1)), (Fraction(1),), (Fraction(1),))


def test_surface_command_eliminates_once_per_check(monkeypatch, tmp_path):
    """One `surface` command runs Sylvester's elimination once for the
    resolution data, once for Lemma 3.2's form and once for the total
    transform when the block gives c; negative definiteness is read from
    the first."""
    calls = []
    sylvester = surface._sylvester
    monkeypatch.setattr(surface, "_sylvester", lambda rows: calls.append(1) or sylvester(rows))
    no_c = tmp_path / "no_c.ideal"
    no_c.write_text("[surface]\n-2 1\n1 -2\nu = 1, 0\nv = 0, 1\nw = 1, 1\n")
    for path, expected in ((CORPUS / "surface_a2.ideal", 3), (no_c, 2)):
        calls.clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["surface", str(path)]) == 0
        assert len(calls) == expected, path.name
        assert json.loads(out.getvalue())["results"]["negative_definite"] is True
