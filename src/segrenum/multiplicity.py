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

Assumption (classical, used throughout): the multiplicity of a cycle at
0 equals the Hilbert-Samuel multiplicity of the corresponding scheme
ideal, additively over top-dimensional components with their lengths
(associativity formula).  Nothing here requires primary decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .groebner import Ideal, _global_series, buchberger, hilbert_series
from .rings import MAX_EXPONENT, TANGENT_CONE, W, Polynomial, PolynomialRing, _overflow

_HOMOGENIZER = "@h"


def passes_through_origin(I: Ideal) -> bool:
    """True iff 0 in V(I), i.e. I lies inside the maximal ideal.

    I is contained in m exactly when every generator has zero constant
    term, so no basis computation is needed.
    """
    return all(g.constant_term == 0 for g in I.generators)


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


def _local_series(I: Ideal):
    """(P, d): the Hilbert series P(z) / (1 - z)^d of the tangent cone of
    I at the origin; ([], -1) when I misses the origin.

    When every generator is homogeneous, homogenizing changes nothing and
    the tangent-cone order restricts to grevlex, so the basis is the
    grevlex basis of I itself (shared with colength and dimension).
    """
    if not passes_through_origin(I):
        return [], -1
    if all(g.is_homogeneous for g in I.generators):
        return _global_series(I)
    lead = [e[1:] for e in buchberger(_homogenize(I), TANGENT_CONE).leading_exponents()]
    return hilbert_series(lead, I.ring.nvars)


def _samuel_value(P, d, N):
    """Coefficient of z^(N-1) in P(z) / (1 - z)^(d+1)."""
    return sum(c * comb(N - 1 - j + d, d) for j, c in enumerate(P[:N]))


def hilbert_samuel(I: Ideal, N: int) -> int:
    """colength(I + m^N) at the origin; always finite, 0 when I is not in m."""
    if N < 1:
        raise ValueError("hilbert_samuel needs N >= 1")
    P, d = _local_series(I)
    return _samuel_value(P, d, N)


@dataclass(frozen=True)
class LocalMultiplicityResult:
    multiplicity: int
    local_dimension: int
    samples: tuple[int, ...]

    @property
    def misses_origin(self):
        return self.local_dimension < 0


def multiplicity_at_origin(I: Ideal) -> LocalMultiplicityResult:
    """Multiplicity and local dimension of the scheme of I at the origin.

    A scheme missing the origin reports multiplicity 0 with local
    dimension -1 and no samples.  Otherwise `samples` holds the exact
    Hilbert-Samuel values for N = 1 .. deg P + d + 2, which reach past
    the point where the function becomes a polynomial in N.
    """
    P, d = _local_series(I)
    if d < 0:
        return LocalMultiplicityResult(0, -1, ())
    samples = tuple(_samuel_value(P, d, N) for N in range(1, len(P) + d + 2))
    return LocalMultiplicityResult(sum(P), d, samples)
