"""Contact-tangent ideals of hypersurface germs and the Whitney-family
equality battery.

For a function germ f vanishing at 0, the contact tangent ideal is
generated by all products (variable) * (partial of f) together with f
itself.  Two germs whose contact tangent ideals satisfy the mixed-Segre
equality battery in every codimension from 2 up to the ambient
dimension belong to a family whose smooth part is Whitney regular along
the parameter axis near both members.  The battery is a sufficient
condition; a failing battery never asserts "not Whitney".

Reducedness of the hypersurfaces is a documented user obligation (it is
not verified here).

Two isolated singularities: Teissier's expansion.  When both Jacobian
ideals J0 = J(f0) and J1 = J(f1) are m-primary at the origin, every
number of the battery is a sum of mixed multiplicities of m, J0 and J1,
and nothing runs on the n^2 + 1 generators of a tangent ideal.

- T = m J(f) + (f) and m J(f) have one integral closure: f lies in the
  closure of m J(f) by the valuative criterion.  Along an arc g through
  0, (f o g)' = sum_i (d_i f)(g) g_i', so ord(f o g) = 1 + ord((f o g)')
  >= min_i ord((d_i f)(g)) + min_i ord(g_i), the order of m J(f) along g.
- Mixed multiplicities of m-primary ideals depend only on their
  closures (Rees; Teissier), and they are multilinear in products:
  e((IJ)^[1] | ...) = e(I^[1] | ...) + e(J^[1] | ...) (Teissier's
  product formula; Swanson-Huneke, ch. 17).
- So the profile of T is m_k = e(m^[n-k] | T^[k])
  = sum_{i <= k} C(k, i) mu^(i), with Teissier's sequence
  mu^(i) = e(m^[n-i] | J^[i]) (mu^(0) = 1), e_k = 0 for k < n and
  e_n = m_n = e(T); and each top entry, i + j = n, is
  e_n^{i,j}(T0, T1) = e(T0^[i] | T1^[j])
  = sum_{a <= i, b <= j} C(i, a) C(j, b) e(m^[n-a-b] | J0^[a] | J1^[b]).
- Every other entry, k < n, is 0: below the codimension n for i, j >= 1
  (see `segre`), and e_k(T) for the boundary ones.

Each term is one colength round on the sides m, J0 and J1 after the
fold (`segre._fold`); each distinct round runs once per battery.
mu^(1) = e(m^[n-1] | J^[1]) needs no round: by the order rule (see
`segre`) it is ord(J) = ord(f) - 1.  The Jacobian ideal of a
Brieskorn-Pham germ sum c_i x_i^(a_i) is the simplex ideal of
b = (a_i - 1), so by the simplex rule its mu^(i) is the product of the
i smallest b, with no round either.  The test of J, its local
dimension at the origin, is one completion on the n partials (none for
monomial partials), and it reads mu^(n) = e(J): J is generated by n
parameters, so e(J) is its colength, the Milnor number.
A germ whose Jacobian ideal is not m-primary there (a non-isolated
singularity, or a smooth point) keeps the general battery on T0 and T1,
as do `segre_profile` and `closure_battery` on a tangent ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .criteria import ComparisonReport, MixedNumberCache, _chain_verdict, _sides
from .errors import PreconditionError, RingMismatchError
from .groebner import Ideal
from .multiplicity import multiplicity_at_origin
from .rings import Polynomial
from .segre import GenericityConfig, SegreProfile, _maximal_ideal, _teissier, make_germ


@dataclass(frozen=True)
class FunctionGerm:
    """A nonzero polynomial vanishing at the origin."""

    poly: Polynomial

    def __post_init__(self):
        if self.poly.is_zero:
            raise PreconditionError("a function germ must be nonzero")
        if self.poly.constant_term != 0:
            raise PreconditionError("a function germ must vanish at the origin")

    @property
    def ring(self):
        return self.poly.ring


def jacobian_ideal(f: FunctionGerm) -> Ideal:
    """Ideal of all first partial derivatives."""
    ring = f.ring
    return Ideal(ring, [f.poly.derivative(i) for i in range(ring.nvars)])


def contact_tangent_ideal(f: FunctionGerm) -> Ideal:
    """m*J(f) + (f): every variable times every partial, plus f."""
    ring = f.ring
    partials = jacobian_ideal(f).generators
    gens = [d.times_variable(i) for i in range(ring.nvars) for d in partials]
    return Ideal(ring, gens + [f.poly])


def _milnor_number(J: Ideal) -> int | None:
    """The local colength of the Jacobian ideal J at the origin when J is
    m-primary there, else None.  It is the Milnor number, and e(J) = mu^(n),
    as J is generated by n parameters (Matsumura, Thm 17.11)."""
    res = multiplicity_at_origin(J)
    return res.multiplicity if res.local_dimension == 0 else None


class _TeissierNumbers(MixedNumberCache):
    """The battery's numbers for the tangent ideals T0, T1 of two germs
    whose Jacobian ideals J0, J1 are m-primary with Milnor numbers mu0,
    mu1, by Teissier's expansion (module docstring); `mixed` takes
    i + j = k."""

    def __init__(self, germ, T0: Ideal, T1: Ideal, J0: Ideal, J1: Ideal, mu0: int, mu1: int,
                 cfg):
        super().__init__(germ, T0, T1, cfg)
        self.J0, self.J1 = J0, J1
        self.m = _maximal_ideal(germ.ring)
        self._terms = {(germ.n, 0): mu0, (0, germ.n): mu1}
        self._rounds = {}

    def _term(self, a: int, b: int) -> int:
        """e(m^[n-a-b] | J0^[a] | J1^[b]); a round that two terms fold
        to runs once."""
        if (a, b) not in self._terms:
            n = self.germ.n
            self._terms[a, b] = _teissier(
                self.germ, self.cfg, ((self.m, n - a - b), (self.J0, a), (self.J1, b)),
                (n,) * 3, self._rounds)
        return self._terms[a, b]

    def _profile(self, which: int) -> SegreProfile:
        n = self.germ.n
        mu = [self._term(i, 0) if which == 1 else self._term(0, i) for i in range(n + 1)]
        m = [sum(comb(k, i) * mu[i] for i in range(k + 1)) for k in range(n + 1)]
        return SegreProfile((0,) * (n - 1) + (m[n],), tuple(m[:n]))

    def _number(self, k: int, i: int, j: int) -> int:
        if k < self.germ.n:
            return 0
        return sum(comb(i, a) * comb(j, b) * self._term(a, b)
                   for a in range(i + 1) for b in range(j + 1))


def whitney_battery(f0: FunctionGerm, f1: FunctionGerm,
                    cfg: GenericityConfig) -> ComparisonReport:
    """Evaluate the mixed-Segre equality battery on the contact tangent
    ideals of the two germs, in both orientations, for k = 2 up to the
    ambient dimension.  The verdict reads "Whitney-sufficient": passing
    certifies the family, failing certifies nothing.  Two isolated
    singularities take every number from Teissier's expansion (module
    docstring).
    """
    if f0.ring != f1.ring:
        raise RingMismatchError("both germs must live in the same ring")
    ring = f0.ring
    if ring.nvars < 2:
        raise PreconditionError("the battery needs at least two variables")
    germ = make_germ(ring)
    T0 = contact_tangent_ideal(f0)
    T1 = contact_tangent_ideal(f1)
    J0, J1 = jacobian_ideal(f0), jacobian_ideal(f1)
    mu0 = _milnor_number(J0)
    mu1 = mu0 and _milnor_number(J1)
    if mu1:
        cache = _TeissierNumbers(germ, T0, T1, J0, J1, mu0, mu1, cfg)
    else:
        cache = MixedNumberCache(germ, T0, T1, cfg)
    verdicts, keys = [], []
    for k in range(2, ring.nvars + 1):
        left, right = _sides(cache, k)
        fwd_labels = [f"e_{k}(T0)", f"e_{k}^{{{k - 1},1}}(T0,T1)", f"e_{k}^{{{k - 2},2}}(T0,T1)"]
        verdicts.append(_chain_verdict(f"k={k} forward", fwd_labels, left))
        rev_labels = [f"e_{k}(T1)", f"e_{k}^{{{k - 1},1}}(T1,T0)", f"e_{k}^{{{k - 2},2}}(T1,T0)"]
        verdicts.append(_chain_verdict(f"k={k} reverse", rev_labels, right[::-1]))
        keys += [(k, k - 1, 1), (k, k - 2, 2)]
    report = ComparisonReport(
        verdicts=tuple(verdicts),
        left_profile=cache.profile(1),
        right_profile=cache.profile(2),
        mixed=cache.table(keys),
        values={
            "tangent_ideal_0": T0,
            "tangent_ideal_1": T1,
        },
    )
    return report
