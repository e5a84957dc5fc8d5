"""Local invariants at the origin: the Hilbert-Samuel function
N -> colength(I + m^N) and the multiplicity it determines.

Both are read off one Hilbert series.  A standard basis of I for a local
degree order (Lazard: homogenize with t, take a Groebner basis for the
tangent-cone order on k[t, x], set t = 1) has as leading monomials the
initial ideal L of the tangent cone, and the associated graded ring of
the local ring at 0 has the Hilbert function of k[x]/L.  Its series
P(z) / (1 - z)^d gives the local dimension d and the multiplicity P(1)
exactly (Bayer-Stillman; Greuel-Pfister, sections 1.7 and 5.5).  For a
scheme that is zero-dimensional at the origin the multiplicity is the
local colength.

A cut J = Q + (f) of the polar recursion comes with a lower bound on
its series before its completion starts.  With A = k[x]/Q, the exact
sequence A(-deg f) -> A -> A/fA -> 0 (the first map multiplication by
f) gives HS(A/fA) >= (1 - z^deg f) HS(A), with equality when f is a
nonzerodivisor on A, as a generic cut of a saturated Q is.
`multiplicity_at_origin(J, prefix=Q)` hands the bound, divided by
(1 - z) on the tangent-cone path, to the completion, which then skips
the S-pairs it proves reduce to zero (see `groebner`).  A polar ideal,
given by its reduced grevlex basis, is its own prefix, and its bound is
exact.

With the zero ideal as prefix, J = (f_1, ..., f_r) on k[x_1..x_n] with
r <= n + 1 gets the complete-intersection bound
prod (1 - z^deg f_i) / (1 - z)^n, exact when the f are a regular
sequence: the colength cuts and the first cut on a germ with an
ambient take it.  In each degree D the
Hilbert function is dim k[x]_D minus the rank of
(g_i) -> sum g_i f_i, and a rank is largest on an open set of
coefficients, so the function is least for generic forms of those
degrees.  Generic forms of which the first min(r, n) are a regular
sequence have the product as their series up to r = n, and the one
exact-sequence step above bounds the (n + 1)-th.  Over GF(p) the same
holds over the algebraic closure, where the function is the same.

Assumption (classical, used throughout): the multiplicity of a cycle at
0 equals the Hilbert-Samuel multiplicity of the corresponding scheme
ideal, additively over top-dimensional components with their lengths
(associativity formula).  Nothing here requires primary decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError
from .groebner import Ideal, _global_series, buchberger, hilbert_function, hilbert_series
from .rings import MAX_EXPONENT, TANGENT_CONE, W, Polynomial, PolynomialRing, _overflow

_HOMOGENIZER = "@h"


def passes_through_origin(I: Ideal) -> bool:
    """True iff 0 in V(I), i.e. I lies inside the maximal ideal.

    I is contained in m exactly when every generator has zero constant
    term, so no basis computation is needed.
    """
    return not any(g.coeffs.get(0) for g in I.generators)


def _homogenize(I: Ideal) -> Ideal:
    """The generators of I homogenized with a new first variable t."""
    ring = PolynomialRing((_HOMOGENIZER,) + I.ring.variable_names, TANGENT_CONE,
                          I.ring.modulus)
    gens = []
    for g in I.generators:
        degrees = g.degrees()
        top = max(degrees)
        if top - min(degrees) > MAX_EXPONENT:
            raise _overflow((top - min(degrees),))
        gens.append(Polynomial(ring, {e << W | top - d: c
                                      for (e, c), d in zip(g.coeffs.items(), degrees)}))
    return Ideal(ring, gens)


def _cut_bound(I: Ideal, Q: Ideal):
    """A lower bound (P, d) on the Hilbert series a completion of I reads,
    for I generated by Q's generators and then f_1, ..., f_r: the series
    of k[x]/in_grevlex(Q) times each (1 - z^deg f_i), by the module
    docstring when I is homogeneous.  It is proven for r <= 1, and for
    r <= n + 1 when Q is the zero ideal; None (no bound) otherwise.

    On the tangent-cone path the homogenized generators of I lie in
    Q^h + (f^h), Q^h the homogenization of Q.  The homogenizing variable
    is a nonzerodivisor on k[t, x]/Q^h, with quotient k[x] modulo the
    top-degree forms of Q, whose series is that of k[x]/in_grevlex(Q),
    so the bound divided by (1 - z) bounds that series; for the zero
    prefix the f^h are r <= n + 1 forms on k[t, x].  It is exact when
    the f^h are a regular sequence modulo Q^h and Q's generators are a
    grevlex basis, whose homogenizations generate Q^h."""
    q = Q.generators
    if I.generators[:len(q)] != q:
        raise PreconditionError("a cut's generators begin with its prefix's")
    cuts = I.generators[len(q):]
    if len(cuts) > (1 if q else I.ring.nvars + 1):
        return None
    P, d = _global_series(Q)
    for f in cuts:
        shift = (0,) * f.total_degree
        P = tuple(a - b for a, b in zip(P + shift, shift + P))
    return P, d


def _local_series(I: Ideal, prefix: Ideal | None = None):
    """(P, d): the Hilbert series P(z) / (1 - z)^d of the tangent cone of
    I at the origin; ((), -1) when I misses the origin.

    When every generator is homogeneous, homogenizing changes nothing and
    the tangent-cone order restricts to grevlex, so the basis is the
    grevlex basis of I itself (shared with colength and dimension).
    With a `prefix` (see `_cut_bound`) the completion is given a lower
    bound on its series and skips pairs that reduce to zero.
    """
    if not passes_through_origin(I):
        return (), -1
    bound = None if prefix is None else _cut_bound(I, prefix)
    if all(g.is_homogeneous for g in I.generators):
        return _global_series(I, bound)
    if bound is not None:
        bound = (bound[0], bound[1] + 1)
    gb = buchberger(_homogenize(I), TANGENT_CONE, bound=bound)
    return hilbert_series([e[1:] for e in gb.leading_exponents()], I.ring.nvars)


def hilbert_samuel(I: Ideal, N: int) -> int:
    """colength(I + m^N) at the origin; always finite, 0 when I is not in m."""
    if N < 1:
        raise ValueError("hilbert_samuel needs N >= 1")
    P, d = _local_series(I)
    return hilbert_function(P, d + 1, N - 1)


@dataclass(frozen=True)
class LocalMultiplicityResult:
    multiplicity: int
    local_dimension: int
    samples: tuple[int, ...]

    @property
    def misses_origin(self):
        return self.local_dimension < 0


def multiplicity_at_origin(I: Ideal, *, prefix: Ideal | None = None) -> LocalMultiplicityResult:
    """Multiplicity and local dimension of the scheme of I at the origin.

    A scheme missing the origin reports multiplicity 0 with local
    dimension -1 and no samples.  Otherwise `samples` holds the exact
    Hilbert-Samuel values for N = 1 .. deg P + d + 2, which reach past
    the point where the function becomes a polynomial in N.

    `prefix`, an ideal Q whose generators begin I's, only saves work: it
    gives the completion a lower bound on its series (`_cut_bound`),
    with which it skips S-pairs that reduce to zero.
    """
    P, d = _local_series(I, prefix)
    if d < 0:
        return LocalMultiplicityResult(0, -1, ())
    samples = tuple(hilbert_function(P, d + 1, N - 1) for N in range(1, len(P) + d + 2))
    return LocalMultiplicityResult(sum(P), d, samples)
