"""Independent oracles for expected values.

These reimplement the quantities under test from first principles
(dense linear algebra on monomials, planar convex hulls, direct lattice
counting) so that the main engine is checked against arithmetic that
shares none of its code paths.  The one exception is
`saturation_by_generators`, the exact saturation by a whole ideal, which
is built from the engine's principal saturation and intersection.
"""

from fractions import Fraction
from itertools import product

from segrenum import Ideal, intersect, saturate


def _monomials_up_to(nvars, degree):
    out = []
    for exps in product(range(degree + 1), repeat=nvars):
        if sum(exps) <= degree:
            out.append(exps)
    out.sort()
    return out


def _row_rank(rows):
    """Gaussian elimination over Fraction, written independently."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while col < ncols and rank < len(rows):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def macaulay_colength(ideal_, low_degree, high_degree):
    """Quotient dimension in degrees <= low_degree, modulo the span of
    all generator multiples of degree <= high_degree.

    Columns are ordered high degree first, so echelon rows whose pivot
    falls in the low block span exactly the intersection of the row
    space with the low-degree polynomials; dimensions sitting near the
    degree cap (where membership certificates get truncated) never
    pollute the count.
    """
    nvars = ideal_.ring.nvars
    basis = _monomials_up_to(nvars, high_degree)
    basis.sort(key=lambda m: (-sum(m), m))
    index = {m: i for i, m in enumerate(basis)}
    low = [m for m in basis if sum(m) <= low_degree]
    rows = []
    for g in ideal_.generators:
        gdeg = g.total_degree
        for mu in _monomials_up_to(nvars, high_degree - gdeg):
            row = [Fraction(0)] * len(basis)
            for exps, coeff in g.coeffs.items():
                shifted = tuple(a + b for a, b in zip(exps, mu))
                row[index[shifted]] = coeff
            rows.append(row)
    rank = 0
    low_rank = 0
    ncols = len(basis)
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        if sum(basis[col]) <= low_degree:
            low_rank += 1
        rank += 1
        if rank == len(rows):
            break
    return len(low) - low_rank


def macaulay_colength_stable(ideal_, start=2, limit=10):
    """Grow both degree bounds until the low-block count stops moving."""
    maxdeg = max(g.total_degree for g in ideal_.generators)
    prev = None
    for t in range(start, limit + 1):
        value = macaulay_colength(ideal_, t, 2 * t + maxdeg)
        if prev is not None and value == prev:
            return value
        prev = value
    raise AssertionError(f"Macaulay oracle did not stabilize below degree {limit}")


def saturation_by_generators(I, J):
    """I : J^inf exactly, as the intersection over the generators g of J
    of the principal saturations I : g^inf; the reference for saturation
    by one generic element of J."""
    result = Ideal(I.ring, (I.ring.one(),))
    for g in J.generators:
        result = intersect(result, saturate(I, Ideal(I.ring, (g,))))
    return result


def newton_covolume_2d(points):
    """Area between the axes and the lower-left hull of the exponent set
    of a planar monomial ideal; finite only when pure powers exist."""
    pts = sorted(set(points))
    if not any(b == 0 for _, b in pts) or not any(a == 0 for a, b in pts):
        raise ValueError("covolume is infinite without pure powers")
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            cross = (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1)
            if cross <= 0:
                hull.pop()  # clockwise or collinear: middle point is not a vertex
            else:
                break
        hull.append(p)
    polygon = [(Fraction(0), Fraction(0))]
    polygon += [(Fraction(a), Fraction(b)) for a, b in sorted(hull, key=lambda q: q[1])]
    area = Fraction(0)
    for (x1, y1), (x2, y2) in zip(polygon, polygon[1:] + polygon[:1]):
        area += x1 * y2 - x2 * y1
    return abs(area) / 2


def staircase_colength(exponents, nvars):
    """Lattice points outside a monomial staircase, counted directly."""
    bounds = []
    for i in range(nvars):
        pure = [e[i] for e in exponents if all(x == 0 for j, x in enumerate(e) if j != i)]
        if not pure:
            return None
        bounds.append(min(pure))
    count = 0
    for point in product(*(range(b) for b in bounds)):
        if not any(all(p >= e for p, e in zip(point, exp)) for exp in exponents):
            count += 1
    return count


def vanishing_order(poly):
    """Order of the lowest-degree form; the multiplicity oracle for a
    plane curve defined by one equation."""
    return min(sum(e) for e in poly.coeffs)
