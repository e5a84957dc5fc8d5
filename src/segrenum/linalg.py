"""Exact rank of integer matrices, fraction-free."""

from __future__ import annotations


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

