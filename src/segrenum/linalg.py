"""Small exact linear algebra helpers over the rationals; `rank` runs
fraction-free on integers."""

from __future__ import annotations

from fractions import Fraction


def rank(matrix) -> int:
    """Rank over QQ of an integer matrix, by fraction-free (Bareiss)
    elimination: every entry stays an integer minor of the matrix, and
    each division by the previous pivot is exact."""
    m = [list(row) for row in matrix]
    rows = len(m)
    r, prev = 0, 1
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        p = top[c]
        for i in range(r + 1, rows):
            a = m[i][c]
            m[i] = [(p * x - a * y) // prev for x, y in zip(m[i], top)]
        prev = p
        r += 1
        if r == rows:
            break
    return r


def solve(matrix, rhs):
    """Solve M x = rhs exactly; raises on singular M."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        m[c], m[pivot] = m[pivot], m[c]
        inv = Fraction(1) / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return [m[i][n] for i in range(n)]
