import random
from fractions import Fraction

from segrenum.linalg import rank


def _fraction_rank(matrix):
    """Rank by Gaussian elimination over Fractions: the reference."""
    m = [[Fraction(x) for x in row] for row in matrix]
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def test_rank_of_fixed_integer_matrices():
    assert rank([]) == 0
    assert rank([[0, 0, 0]]) == 0
    assert rank([[0, 2, 4], [0, 1, 2]]) == 1  # zero column before the first pivot
    assert rank([[0, 0, 3, 1], [0, 5, 0, 2], [0, 5, 3, 3]]) == 2
    assert rank([[2, 3], [4, 6], [1, -1]]) == 2
    assert rank([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == 3


def test_rank_matches_a_fraction_reference():
    """Fraction-free ranks equal rational ones on seeded integer matrices,
    1-4 by 1-20, with zero columns and dependent rows mixed in."""
    rng = random.Random(5)
    deficient = 0
    for _ in range(600):
        rows, cols = rng.randint(1, 4), rng.randint(1, 20)
        m = [[rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(cols)]
             for _ in range(rows)]
        if rows > 1 and rng.random() < 0.3:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            m[-1] = [a * u + b * v for u, v in zip(m[0], m[rows // 2])]
        if rng.random() < 0.3:
            for row in m:
                row[rng.randrange(cols)] = 0
        expected = _fraction_rank(m)
        assert rank(m) == expected, m
        deficient += expected < min(rows, cols)
    assert deficient > 50
