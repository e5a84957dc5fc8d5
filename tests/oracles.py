"""Independent oracles for expected values.

These reimplement the quantities under test from first principles
(linear algebra on monomials, planar convex hulls, direct lattice
counting) so that the main engine is checked against arithmetic that
shares none of its code paths.  The one exception is
`saturation_by_generators`, the exact saturation by a whole ideal, which
is built from the engine's principal saturation and intersection.
"""

import random
from fractions import Fraction
from itertools import combinations, product

from segrenum import Ideal, intersect, saturate


def _monomials_up_to(nvars, degree):
    out = []
    for exps in product(range(degree + 1), repeat=nvars):
        if sum(exps) <= degree:
            out.append(exps)
    out.sort()
    return out


def macaulay_colength(ideal_, low_degree, high_degree):
    """Quotient dimension in degrees <= low_degree, modulo the span of
    all generator multiples of degree <= high_degree.

    Columns are ordered high degree first, so echelon rows whose pivot
    falls in the low block span exactly the intersection of the row
    space with the low-degree polynomials; dimensions sitting near the
    degree cap (where membership certificates get truncated) never
    pollute the count.

    Row echelon form on sparse Fraction rows: each row is reduced only at
    its leading column, by the pivot row there, until it is zero or
    becomes a new pivot.  The pivot columns are the leading columns of
    the row space, so they are those of the reduced echelon form.
    """
    nvars = ideal_.ring.nvars
    basis = _monomials_up_to(nvars, high_degree)
    basis.sort(key=lambda m: (-sum(m), m))
    index = {m: i for i, m in enumerate(basis)}
    pivots = {}
    for g in ideal_.generators:
        for mu in _monomials_up_to(nvars, high_degree - g.total_degree):
            row = {index[tuple(a + b for a, b in zip(mono, mu))]: Fraction(coeff)
                   for coeff, mono in g.terms()}
            while row:
                col = min(row)
                pivot = pivots.get(col)
                if pivot is None:
                    pv = row[col]
                    pivots[col] = {c: x / pv for c, x in row.items()}
                    break
                f = row[col]
                for c, x in pivot.items():
                    s = row.get(c, 0) - f * x
                    if s:
                        row[c] = s
                    else:
                        del row[c]
    low = sum(1 for m in basis if sum(m) <= low_degree)
    return low - sum(1 for col in pivots if sum(basis[col]) <= low_degree)


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


def _det(rows):
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return Fraction(1)
    return sum((-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


def in_newton_polyhedron(point, exponents):
    """Whether `point` lies in the Newton polyhedron conv(exponents) + R_+^n
    of a monomial ideal, in exact `Fraction` arithmetic; for monomial
    ideals, x^point is integral over the ideal exactly when it does.

    The polyhedron is full-dimensional, so it is the intersection of its
    facet half-spaces.  A facet's hyperplane passes through r >= 1 of the
    exponents and contains n - r coordinate directions, which together
    span it, so every such hyperplane with a nonnegative normal w and all
    exponents on the side <w, x> >= c is tried: the point lies in the
    polyhedron iff it satisfies each of them.
    """
    n = len(point)
    pts = [tuple(map(Fraction, e)) for e in sorted(set(map(tuple, exponents)))]
    a = tuple(map(Fraction, point))
    units = [tuple(Fraction(int(i == k)) for i in range(n)) for k in range(n)]

    def dot(w, v):
        return sum(x * y for x, y in zip(w, v))

    for r in range(1, n + 1):
        for chosen in combinations(pts, r):
            p0 = chosen[0]
            for dirs in combinations(units, n - r):
                span = [tuple(q - b for q, b in zip(p, p0)) for p in chosen[1:]] + list(dirs)
                w = [(-1) ** k * _det([v[:k] + v[k + 1:] for v in span]) for k in range(n)]
                if all(c <= 0 for c in w):
                    w = [-c for c in w]
                if not any(w) or any(c < 0 for c in w):
                    continue
                c = dot(w, p0)
                if dot(w, a) < c and all(dot(w, p) >= c for p in pts):
                    return False
    return True


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
    return min(sum(mono) for _, mono in poly.terms())


# -- Teissier's sequence mu* of an isolated hypersurface singularity ----------

_P = 2 ** 61 - 1  # linear algebra of `_truncated_colength` runs mod this prime


def _mul(p, q):
    out = {}
    for a, c in p.items():
        for b, d in q.items():
            e = tuple(x + y for x, y in zip(a, b))
            out[e] = (out.get(e, 0) + c * d) % _P
    return {e: c for e, c in out.items() if c}


def _restrict(poly, matrix):
    """poly(x = A u) mod _P as {u exponents: residue}, row j of `matrix`
    writing x_j as a linear form in u."""
    i = len(matrix[0])
    forms = [{tuple(int(k == l) for l in range(i)): a % _P for k, a in enumerate(row)}
             for row in matrix]
    out = {}
    for c, mono in poly.terms():
        c = Fraction(c)
        term = {(0,) * i: c.numerator * pow(c.denominator, -1, _P) % _P}
        for form, k in zip(forms, mono):
            for _ in range(k):
                term = _mul(term, form)
        for e, v in term.items():
            out[e] = (out.get(e, 0) + v) % _P
    return {e: c for e, c in out.items() if c}


def _partial(p, k):
    return {e[:k] + (e[k] - 1,) + e[k + 1:]: c * e[k] % _P for e, c in p.items() if e[k]}


def _truncated_colength(gens, nvars, N):
    """dim k[u] / ((gens) + m^N): the monomials of degree < N minus the
    rank of every monomial multiple of a generator, truncated at degree N."""
    columns = {m: i for i, m in enumerate(_monomials_up_to(nvars, N - 1))}
    pivots = {}
    for g in gens:
        for mu in columns:
            row = {}
            for e, c in g.items():
                col = columns.get(tuple(a + b for a, b in zip(e, mu)))
                if col is not None:
                    row[col] = c
            while row:
                col = min(row)
                pivot = pivots.get(col)
                if pivot is None:
                    inv = pow(row[col], -1, _P)
                    pivots[col] = {c: x * inv % _P for c, x in row.items()}
                    break
                f = row[col]
                for c, x in pivot.items():
                    s = (row.get(c, 0) - f * x) % _P
                    if s:
                        row[c] = s
                    else:
                        del row[c]
    return len(columns) - len(pivots)


def _local_colength(gens, nvars):
    """dim O / (gens) at the origin, for gens primary to the maximal ideal
    there: colength((gens) + m^N) at the first N where it stops growing,
    since then m^N lies in (gens) + m^(N + 1), so in (gens) (Nakayama)."""
    previous, N = None, 1
    while True:
        value = _truncated_colength(gens, nvars, N)
        if value == previous:
            return value
        previous, N = value, N + 1


def milnor_sequence(f):
    """Teissier's (mu^(0), ..., mu^(n)) of a polynomial f with an isolated
    singularity at the origin: mu^(i) is the Milnor number of f restricted
    to a generic i-plane through 0, the local colength of the Jacobian
    ideal of the restriction, and mu^(0) = 1.

    A plane is the image of an n x i integer matrix with entries drawn
    from [-10^6, 10^6]; each mu^(i) is the least value over two seeded
    planes, since a special plane can only raise it.  The ranks are taken
    mod a 61-bit prime, which can only raise a value too.
    """
    rng = random.Random(0)
    n = f.ring.nvars
    mu = [1]
    for i in range(1, n + 1):
        values = []
        for _ in range(2):
            matrix = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(i)] for _ in range(n)]
            g = _restrict(f, matrix)
            values.append(_local_colength([_partial(g, k) for k in range(i)], i))
        mu.append(min(values))
    return tuple(mu)
