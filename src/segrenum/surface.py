"""Exact bilinear-form computations on surface resolution data:
negative-definite intersection matrices, total-transform coefficients,
the pairing <x,y> = -x^T M y, the codimension-two numbers from vanishing
orders, and the modified Cauchy-Schwarz inequality verifier.

Resolution data is user input; resolutions are never computed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError, PreconditionError


def _check_symmetric(matrix):
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise PreconditionError("intersection matrix must be square")
    for i in range(n):
        for j in range(n):
            if matrix[i][j] != matrix[j][i]:
                raise PreconditionError("intersection matrix must be symmetric")


def _sylvester(rows) -> bool:
    """Gaussian elimination of the leading square block of `rows`, in
    place and with no row exchanges; False at the first pivot that is not
    positive.  Pivot k is D_k / D_(k-1), the ratio of leading principal
    minors, so this is Sylvester's test.  Columns past the block, such as
    a right-hand side, are carried along."""
    for k, top in enumerate(rows):
        if top[k] <= 0:
            return False
        for row in rows[k + 1:]:
            f = row[k] / top[k]
            row[k:] = [a - f * b for a, b in zip(row[k:], top[k:])]
    return True


def posdef_check(matrix) -> bool:
    """True iff M is positive definite (Sylvester's test)."""
    _check_symmetric(matrix)
    return _sylvester([[Fraction(x) for x in row] for row in matrix])


def negdef_check(matrix) -> bool:
    """True iff -M is positive definite."""
    return posdef_check([[-x for x in row] for row in matrix])


@dataclass(frozen=True)
class SurfaceResolutionData:
    """Intersection matrix (E_i, E_j) with the order vectors u, v, w."""

    intersection_matrix: tuple[tuple[int, ...], ...]
    u: tuple[Fraction, ...]
    v: tuple[Fraction, ...]
    w: tuple[Fraction, ...]

    def __post_init__(self):
        m = self.intersection_matrix
        if not negdef_check(m):
            raise PreconditionError("intersection matrix is not negative definite")
        r = len(m)
        for name, vec in (("u", self.u), ("v", self.v), ("w", self.w)):
            if len(vec) != r:
                raise PreconditionError(f"vector {name} has wrong length")
            if any(x < 0 for x in vec):
                raise PreconditionError(f"vector {name} must be entrywise nonnegative")


def _form(gram, x, y) -> Fraction:
    """x^T G y, exactly."""
    n = len(gram)
    if len(x) != n or len(y) != n:
        raise PreconditionError("vector/matrix dimensions differ")
    total = Fraction(0)
    for i in range(n):
        xi = Fraction(x[i])
        if xi == 0:
            continue
        for j in range(n):
            if y[j] != 0 and gram[i][j] != 0:
                total += xi * Fraction(y[j]) * gram[i][j]
    return total


def pairing(matrix, x, y) -> Fraction:
    """<x, y> = -x^T M y, exactly."""
    return -_form(matrix, x, y)


def total_transform(matrix, c):
    """The unique positive rational a with c + M a = 0.

    c holds the intersection numbers of the strict transform against
    each exceptional component; positivity of the solution is asserted.
    One elimination of -M, with c carried as its last column, checks
    that M is negative definite and gives a by back-substitution.
    """
    _check_symmetric(matrix)
    n = len(matrix)
    rows = [[-Fraction(x) for x in row] for row in matrix]
    if len(c) == n:
        for row, x in zip(rows, c):
            row.append(Fraction(x))
    if not _sylvester(rows):
        raise PreconditionError("matrix must be negative definite")
    if len(c) != n:
        raise PreconditionError("vector/matrix dimensions differ")
    if any(Fraction(x) < 0 for x in c):
        raise PreconditionError("intersection numbers must be nonnegative")
    if all(Fraction(x) == 0 for x in c):
        raise PreconditionError("the zero vector is rejected")
    a = [Fraction(0)] * n
    for k in reversed(range(n)):
        row = rows[k]
        a[k] = (row[n] - sum(row[j] * a[j] for j in range(k + 1, n))) / row[k]
    if any(x <= 0 for x in a):
        raise PreconditionError("solution is not entrywise positive: invalid input data")
    return a


@dataclass(frozen=True)
class OrderFormulaResult:
    e2_I1: Fraction
    e2_I2: Fraction
    e2_mixed: Fraction

    @property
    def inequality_holds(self):
        return self.e2_mixed ** 2 <= self.e2_I1 * self.e2_I2


def e2_from_orders(data: SurfaceResolutionData) -> OrderFormulaResult:
    """Codimension-two numbers from vanishing orders:
    <u+w, u>, <v+w, v>, and the mixed term <v+w, u>."""
    m = data.intersection_matrix
    uw = [a + b for a, b in zip(data.u, data.w)]
    vw = [a + b for a, b in zip(data.v, data.w)]
    return OrderFormulaResult(
        e2_I1=pairing(m, uw, data.u),
        e2_I2=pairing(m, vw, data.v),
        e2_mixed=pairing(m, vw, data.u),
    )


@dataclass(frozen=True)
class Lemma32Verdict:
    hypothesis_ok: bool
    conclusion_holds: bool
    lhs: Fraction
    rhs: Fraction
    w_is_zero: bool


def lemma32_verify(gram, u, v, w) -> Lemma32Verdict:
    """Modified Cauchy-Schwarz check for a positive definite form:
    if <u,w> >= <v,w> >= 0 then <u+w, v>^2 <= <u+w, u> <v+w, v>.

    `gram` is the positive definite Gram matrix of the form itself (pass
    -M for resolution data).  A hypothesis-satisfying violation is a
    build-stopping inconsistency.  w = 0 is allowed but flagged: a first
    Segre cycle through the origin forces <v, w> > 0.
    """
    if not posdef_check(gram):
        raise PreconditionError("form is not positive definite")
    uw = _form(gram, u, w)
    vw = _form(gram, v, w)
    hypothesis = uw >= vw >= 0
    up = [Fraction(a) + Fraction(b) for a, b in zip(u, w)]
    vp = [Fraction(a) + Fraction(b) for a, b in zip(v, w)]
    lhs = _form(gram, up, v) ** 2
    rhs = _form(gram, up, u) * _form(gram, vp, v)
    conclusion = lhs <= rhs
    if hypothesis and not conclusion:
        raise ConsistencyError(
            f"modified Cauchy-Schwarz violated: {lhs} > {rhs} for u={u}, v={v}, w={w}"
        )
    return Lemma32Verdict(hypothesis, conclusion, lhs, rhs,
                          all(Fraction(x) == 0 for x in w))
