"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import random
import time
from fractions import Fraction
from math import isqrt

from segrenum import (
    TupleTriple,
    closure_battery,
    colength,
    hilbert_samuel,
    ideal,
    ideal_power,
    ideal_product,
    lemma32_verify,
    minkowski_check,
    mixed_segre,
    multiplicity_at_origin,
    polar_chain,
    product_formula_check,
    rees_test,
    segre_on_subspace,
    segre_profile,
    teissier_criterion,
    total_transform,
    tuple_lemma,
)
from segrenum.surface import posdef_check

from conftest import replay_corpus
from oracles import macaulay_colength_stable, newton_covolume_2d, staircase_colength


def _record(number, description, ok):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2}: {status} - {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def test_acceptance_01_golden_example(germ3, divisor_pair, cfg):
    started = time.monotonic()
    I1, I2 = divisor_pair
    p1 = segre_profile(germ3, I1, cfg)
    p2 = segre_profile(germ3, I2, cfg)
    e111 = mixed_segre(germ3, I1, I2, 1, 1, 1, cfg)
    battery = closure_battery(germ3, I1, I2, cfg)
    by_id = {v.criterion_id: v for v in battery.verdicts}
    elapsed = time.monotonic() - started
    ok = (
        p1.e[0] == p2.e[0] == e111 == 1
        and p1.e[1] == 0
        and p2.e[1] == 1
        and by_id["j=1"].holds
        and not by_id["j=2 left"].holds
        and not battery.holds
        and elapsed < 30.0
    )
    _record(1, f"golden example battery fails at j=2 ({elapsed:.1f}s)", ok)


def test_acceptance_02_product_formula(germ2, R2, cfg):
    x, y = R2.variables()
    I1 = ideal(R2, x, y)
    I2 = ideal(R2, x ** 2, y ** 3)
    res = product_formula_check(germ2, I1, I2, 2, cfg)
    # independent oracles, frozen before the engine values are trusted
    prod_points = [max(m for _, m in g.terms())
                   for g in ideal_product(I1, I2).generators]
    covolume = newton_covolume_2d(prod_points)
    stair_e_I2 = staircase_colength([(2, 0), (0, 3)], 2)
    ok = (
        covolume == Fraction(11, 2)
        and 2 * covolume == 11
        and stair_e_I2 == 6
        and res.lhs == 11
        and res.binomial_sum == 11
        and res.terms == (6, 2, 1)
        and res.plain_sum == 9
        and res.verdict == "binomial"
    )
    _record(2, "e((x,y)(x^2,y^3)) = 11 binomial, plain sum 9 reported", ok)


def test_acceptance_03_minkowski(germ2, R2, corpus_ideals, cfg):
    x, y = R2.variables()
    res = minkowski_check(germ2, ideal(R2, x, y), ideal(R2, x ** 2, y ** 3), 2, cfg)
    ok = res.comparison == "lt" and res.holds
    equality_cases = 0
    for germ, I in corpus_ideals:
        merged = segre_profile(germ, I, cfg)
        if merged.e[-1] == 0:
            continue  # not m-primary at the origin
        sq = minkowski_check(germ, I, I, germ.n, cfg)
        ok = ok and sq.comparison == "eq"
        equality_cases += 1
    ok = ok and equality_cases >= 4
    _record(3, f"11^(1/2) <= 1 + 6^(1/2) strict; {equality_cases} exact equality cases", ok)


def test_acceptance_04_squaring_law(corpus_ideals, cfg):
    ok = True
    for germ, I in corpus_ideals:
        base = segre_profile(germ, I, cfg)
        squared = segre_profile(germ, ideal_power(I, 2), cfg)
        for k in range(1, germ.n + 1):
            ok = ok and squared.e[k - 1] == 2 ** k * base.e[k - 1]
    _record(4, "e_k(I^2) = 2^k e_k(I) on the whole corpus", ok)


def test_acceptance_05_property_one(corpus_ideals, cfg):
    from segrenum import passes_through_origin

    ok = True
    checked = 0
    for germ, I in corpus_ideals:
        chain = polar_chain(germ, I, cfg)
        for j in range(1, germ.n):
            P = chain.stages[j].polar_ideal
            if not passes_through_origin(P):
                continue
            sub = segre_on_subspace(germ, I, P, cfg)
            for i in range(1, germ.n - j + 1):
                ok = ok and sub.e[i - 1] == chain.e[i + j - 1]
                checked += 1
    ok = ok and checked >= 6
    _record(5, f"e_(i+j)(I) = e_i(I, P_j(I)) exact at {checked} corpus points", ok)


def test_acceptance_06_rees(germ2, germ3, R2, R3, cfg):
    x, y = R2.variables()
    z = R3.variables()[2]
    good = rees_test(germ2, ideal(R2, x ** 2, y ** 2), ideal(R2, x ** 2, x * y, y ** 2), cfg)
    bad = rees_test(germ3, ideal(R3, z ** 2), ideal(R3, z), cfg)
    ok = (
        good.holds
        and good.left_profile.e == (0, 4)
        and good.right_profile.e == (0, 4)
        and not bad.holds
        and "e_1" in bad.verdicts[0].witness
    )
    _record(6, "Rees profiles: reduction pair equivalent, (z^2) in (z) not", ok)


def test_acceptance_07_teissier(germ2, R2, cfg):
    x, y = R2.variables()
    same = teissier_criterion(germ2, ideal(R2, x ** 2, y ** 2),
                              ideal(R2, x ** 2, x * y, y ** 2), cfg)
    diff = teissier_criterion(germ2, ideal(R2, x, y), ideal(R2, x ** 2, y ** 3), cfg)
    ok = (
        same.values["chain"] == (4, 4, 4) and same.holds
        and diff.values["chain"] == (1, 2, 6) and not diff.holds
    )
    _record(7, "Teissier chains (4,4,4) and (1,2,6) exact", ok)


def test_acceptance_08_colength_oracle(R2, R3):
    x, y = R2.variables()
    x3, y3, z3 = R3.variables()
    zero_dim = [
        ideal(R2, x ** 2, y ** 3),
        ideal(R2, x ** 2 - y, y ** 2 - x),
        ideal(R2, x ** 2 + y ** 2, x * y),
        ideal(R2, x ** 3, x * y, y ** 4),
        ideal(R2, (x + y) ** 2, y ** 3),
        ideal(R3, x3, y3 ** 2, z3 ** 3),
        ideal(R3, x3 ** 2 - z3, y3 - z3 ** 2, z3 ** 3),
        ideal(R3, x3 ** 2, y3 ** 2, z3 ** 2),
    ]
    ok = True
    for I in zero_dim:
        value = colength(I)
        ok = ok and value <= 30 and value == macaulay_colength_stable(I)
    _record(8, f"colength == Macaulay oracle on {len(zero_dim)} zero-dimensional ideals", ok)


def test_acceptance_09_hilbert_samuel(R2, R3):
    z = R3.variables()[2]
    x, y = R2.variables()
    plane = ideal(R3, z)
    ok = all(hilbert_samuel(plane, N) == N * (N + 1) // 2 for N in range(1, 11))
    res = multiplicity_at_origin(ideal(R2, x ** 2 - y ** 3))
    first_diffs = [b - a for a, b in zip(res.samples, res.samples[1:])]
    ok = ok and res.multiplicity == 2 and res.local_dimension == 1
    ok = ok and first_diffs[-3:] == [2, 2, 2]
    _record(9, "hilbert_samuel((z), N) = N(N+1)/2; cusp multiplicity 2, degree 1", ok)


def test_acceptance_10_fuzz_suites():
    rng = random.Random(60209)
    violations = 0
    for _ in range(10_000):
        k = rng.randint(1, 6)
        b = tuple(rng.randint(0, 25) for _ in range(k))
        c = tuple(rng.randint(0, 25) for _ in range(k))
        a = tuple(rng.randint(0, isqrt(bi * ci)) for bi, ci in zip(b, c))
        result = tuple_lemma(TupleTriple(a, b, c))  # raises on violation
        if result.hypothesis_ok and (result.sums_equal != result.componentwise_equal):
            violations += 1

    done = 0
    while done < 1000:
        n = rng.randint(1, 4)
        B = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
        G = [[sum(B[k][i] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        for i in range(n):
            G[i][i] += rng.randint(1, 3)
        if not posdef_check(G):
            continue

        def form(p, q):
            return sum(Fraction(p[i]) * Fraction(q[j]) * G[i][j]
                       for i in range(n) for j in range(n))

        u = [Fraction(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(n)]
        v = [Fraction(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(n)]
        w = [Fraction(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(n)]
        if form(u, w) < form(v, w):
            u, v = v, u
        verdict = lemma32_verify(G, u, v, w)  # raises on violation
        if verdict.hypothesis_ok and not verdict.conclusion_holds:
            violations += 1
        done += 1
    _record(10, "10^4 tuple-lemma and 10^3 bilinear-form instances, 0 violations",
            violations == 0)


def test_acceptance_11_surface_solve():
    ok = total_transform([[-2]], [1]) == [Fraction(1, 2)]
    ok = ok and total_transform([[-2, 1], [1, -2]], [1, 0]) == [Fraction(2, 3), Fraction(1, 3)]
    rng = random.Random(8)
    for n in range(1, 9):
        M = [[-2 if i == j else (1 if abs(i - j) == 1 else 0) for j in range(n)]
             for i in range(n)]
        for _ in range(4):
            c = [rng.randint(0, 3) for _ in range(n)]
            if not any(c):
                c[0] = 1
            ok = ok and all(a > 0 for a in total_transform(M, c))
    _record(11, "total transforms exact; positivity on chain matrices up to rank 8", ok)


def test_acceptance_12_determinism():
    first = replay_corpus()
    ok = replay_corpus() == first

    reseeded = replay_corpus("--seed", "777")
    for (_, _, text), (_, _, again) in zip(first, reseeded):
        a = json.loads(text)["results"]
        b = json.loads(again)["results"]
        for key in ("e", "m", "chain", "value", "lhs", "terms", "binomial_sum",
                    "product_number", "holds", "equivalent", "chain_condition",
                    "whitney_sufficient", "verdict", "comparison"):
            if key in a:
                ok = ok and a[key] == b[key]
    _record(12, "byte-identical reruns; certified numbers stable across seeds", ok)
