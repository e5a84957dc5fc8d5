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
"""

from __future__ import annotations

from dataclasses import dataclass

from .criteria import ComparisonReport, MixedNumberCache, _chain_verdict, _sides
from .errors import PreconditionError, RingMismatchError
from .groebner import Ideal
from .rings import Polynomial
from .segre import GenericityConfig, make_germ


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
    gens = [ring.variable(i) * d for i in range(ring.nvars) for d in partials]
    return Ideal(ring, gens + [f.poly])


def whitney_battery(f0: FunctionGerm, f1: FunctionGerm,
                    cfg: GenericityConfig) -> ComparisonReport:
    """Evaluate the mixed-Segre equality battery on the contact tangent
    ideals of the two germs, in both orientations, for k = 2 up to the
    ambient dimension.  The verdict reads "Whitney-sufficient": passing
    certifies the family, failing certifies nothing.
    """
    if f0.ring != f1.ring:
        raise RingMismatchError("both germs must live in the same ring")
    ring = f0.ring
    if ring.nvars < 2:
        raise PreconditionError("the battery needs at least two variables")
    germ = make_germ(ring)
    T0 = contact_tangent_ideal(f0)
    T1 = contact_tangent_ideal(f1)
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
