"""The integral-closure criteria as executable checks: the Teissier
chain for m-primary pairs, the mixed-Segre equality battery, the
Rees-type profile test, product formulas, Minkowski-type inequalities,
and power-equivalence probing.

All verdicts are exact: integer equalities, integer inequalities, and
k-th-root comparisons decided by integer root bracketing (never
floating point), with the equality case characterized algebraically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConsistencyError, PreconditionError
from .groebner import Ideal, buchberger, ideal_power, ideal_product, ideal_sum, normal_form
from .segre import (
    GenericityConfig,
    GermContext,
    MixedSegreTable,
    SegreProfile,
    mixed_multiplicity_primary,
    mixed_segre,
    require_m_primary,
    segre_profile,
)


@dataclass(frozen=True)
class TupleTriple:
    """Three equal-length tuples of nonnegative integers."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    c: tuple[int, ...]

    def __post_init__(self):
        if not (len(self.a) == len(self.b) == len(self.c)):
            raise PreconditionError("tuple lengths differ")
        if any(x < 0 for t in (self.a, self.b, self.c) for x in t):
            raise PreconditionError("entries must be nonnegative")


@dataclass(frozen=True)
class TupleLemmaResult:
    hypothesis_ok: bool
    sums_equal: bool
    componentwise_equal: bool


def tuple_lemma(t: TupleTriple) -> TupleLemmaResult:
    """Under the hypothesis a_i^2 <= b_i c_i, equal sums force
    componentwise equality; a counterexample is a build-stopping bug."""
    hypothesis = all(x * x <= y * z for x, y, z in zip(t.a, t.b, t.c))
    sums = sum(t.a) == sum(t.b) == sum(t.c)
    comp = all(x == y == z for x, y, z in zip(t.a, t.b, t.c))
    if hypothesis and sums != comp:
        raise ConsistencyError(f"tuple lemma violated on {t}")
    return TupleLemmaResult(hypothesis, sums, comp)


@dataclass(frozen=True)
class CriterionVerdict:
    criterion_id: str
    holds: bool
    witness: str | None = None


@dataclass(frozen=True)
class ComparisonReport:
    verdicts: tuple[CriterionVerdict, ...]
    left_profile: SegreProfile | None = None
    right_profile: SegreProfile | None = None
    mixed: MixedSegreTable | None = None
    values: dict = field(default_factory=dict)

    @property
    def holds(self):
        return all(v.holds for v in self.verdicts)


class MixedNumberCache:
    """Memoizes profiles and mixed Segre numbers for one ideal pair."""

    def __init__(self, germ: GermContext, I1: Ideal, I2: Ideal, cfg: GenericityConfig):
        self.germ = germ
        self.I1 = I1
        self.I2 = I2
        self.cfg = cfg
        self._profiles = {}
        self._mixed = {}
        self._table = {}

    def profile(self, which: int) -> SegreProfile:
        if which not in self._profiles:
            ideal_ = self.I1 if which == 1 else self.I2
            self._profiles[which] = segre_profile(self.germ, ideal_, self.cfg)
        return self._profiles[which]

    def e(self, which: int, k: int) -> int:
        return self.profile(which).e[k - 1]

    def mixed(self, k: int, i: int, j: int, swap: bool = False) -> int:
        """e_k^{i,j} of (I1, I2), or of (I2, I1) when swapped.

        The definition is symmetric (i elements of I1, j of I2, saturated
        by I1 + I2), so e_k^{i,j}(I2, I1) is e_k^{j,i}(I1, I2); only the
        unswapped requests enter `table()`.
        """
        key = (k, j, i) if swap else (k, i, j)
        value = self._mixed.get(key)
        if value is None:
            if key[2] == 0:
                value = self.e(1, k)
            elif key[1] == 0:
                value = self.e(2, k)
            else:
                value = mixed_segre(self.germ, self.I1, self.I2, *key, self.cfg)
            self._mixed[key] = value
        if not swap:
            self._table[key] = value
        return value

    def table(self) -> MixedSegreTable:
        return MixedSegreTable(self.germ.n, dict(self._table))


def _chain_verdict(criterion_id: str, labels, values) -> CriterionVerdict:
    first = values[0]
    for label, v in zip(labels[1:], values[1:]):
        if v != first:
            return CriterionVerdict(
                criterion_id, False,
                f"{labels[0]}={first} differs from {label}={v}",
            )
    return CriterionVerdict(criterion_id, True)


def teissier_criterion(germ: GermContext, I1: Ideal, I2: Ideal,
                       cfg: GenericityConfig) -> ComparisonReport:
    """The full mixed-multiplicity chain e(I1), e_{n-1,1}, ..., e(I2);
    the ideals have the same integral closure iff the chain is constant.
    The first call to `mixed_multiplicity_primary` checks that both
    ideals are m-primary."""
    n = germ.n
    labels = [f"e_({i},{n - i})" for i in range(n, -1, -1)]
    chain = [mixed_multiplicity_primary(germ, I1, I2, i, cfg) for i in range(n, -1, -1)]
    verdict = _chain_verdict("teissier-chain", labels, chain)
    return ComparisonReport(
        verdicts=(verdict,),
        values={"chain": tuple(chain), "labels": tuple(labels)},
    )


def _sides(cache: MixedNumberCache, k: int):
    """Level k's chains e_k(I1), e_k^{k-1,1}, e_k^{k-2,2} and
    e_k^{2,k-2}, e_k^{1,k-1}, e_k(I2), for k >= 2."""
    left = [cache.e(1, k), cache.mixed(k, k - 1, 1), cache.mixed(k, k - 2, 2)]
    right = [cache.mixed(k, 2, k - 2), cache.mixed(k, 1, k - 1), cache.e(2, k)]
    return left, right


def _battery_levels(cache: MixedNumberCache, levels):
    """Per-level equality chains of the closure battery."""
    verdicts = []
    for j in levels:
        if j == 1:
            labels = ["e_1(I1)", "e_1^{1,1}", "e_1(I2)"]
            values = [cache.e(1, 1), cache.mixed(1, 1, 1), cache.e(2, 1)]
            verdicts.append(_chain_verdict("j=1", labels, values))
            continue
        left_labels = [f"e_{j}(I1)", f"e_{j}^{{{j - 1},1}}", f"e_{j}^{{{j - 2},2}}"]
        right_labels = [f"e_{j}^{{2,{j - 2}}}", f"e_{j}^{{1,{j - 1}}}", f"e_{j}(I2)"]
        left, right = _sides(cache, j)
        verdicts.append(_chain_verdict(f"j={j} left", left_labels, left))
        verdicts.append(_chain_verdict(f"j={j} right", right_labels, right))
    return verdicts


def closure_battery(germ: GermContext, I1: Ideal, I2: Ideal,
                    cfg: GenericityConfig) -> ComparisonReport:
    """Equality battery deciding whether the integral closures coincide:
    e_1(I1) = e_1^{1,1} = e_1(I2), and for j = 2..n the two chains
    e_j(I1) = e_j^{j-1,1} = e_j^{j-2,2} and e_j^{2,j-2} = e_j^{1,j-1} = e_j(I2)."""
    cache = MixedNumberCache(germ, I1, I2, cfg)
    verdicts = _battery_levels(cache, range(1, germ.n + 1))
    return ComparisonReport(
        verdicts=tuple(verdicts),
        left_profile=cache.profile(1),
        right_profile=cache.profile(2),
        mixed=cache.table(),
    )


def rees_test(germ: GermContext, I1: Ideal, I2: Ideal,
              cfg: GenericityConfig) -> ComparisonReport:
    """For I1 contained in I2: equal Segre profiles iff equal closures.

    A containment violation is a precondition failure, not a negative
    verdict.
    """
    gb2 = buchberger(ideal_sum(I2, germ.ambient))
    for g in I1.generators:
        if not normal_form(g, gb2).is_zero:
            raise PreconditionError("I1 is not contained in I2 on the germ")
    p1 = segre_profile(germ, I1, cfg)
    p2 = segre_profile(germ, I2, cfg)
    witness = None
    for k, (a, b) in enumerate(zip(p1.e, p2.e), start=1):
        if a != b:
            witness = f"e_{k}(I1)={a} differs from e_{k}(I2)={b}"
            break
    verdict = CriterionVerdict("rees-profiles", witness is None, witness)
    return ComparisonReport(verdicts=(verdict,), left_profile=p1, right_profile=p2)


def _lower_codim_hypothesis(cache: MixedNumberCache, k: int) -> bool:
    """Lower-codimension equalities required before the codim-k
    inequalities and product/Minkowski formulas apply (k >= 2)."""
    return all(v.holds for v in _battery_levels(cache, range(1, k)))


def _product_preamble(germ: GermContext, I1: Ideal, I2: Ideal, k: int,
                      cfg: GenericityConfig):
    """(cache, hypothesis, e_k(I1*I2)) for the product formula and the
    Minkowski check; the hypothesis is None at k = n."""
    if not 1 <= k <= germ.n:
        raise PreconditionError(f"k must be between 1 and {germ.n}")
    cache = MixedNumberCache(germ, I1, I2, cfg)
    hypothesis = _lower_codim_hypothesis(cache, k) if k < germ.n else None
    return cache, hypothesis, segre_profile(germ, ideal_product(I1, I2), cfg).e[k - 1]


@dataclass(frozen=True)
class ProductFormulaResult:
    k: int
    lhs: int
    terms: tuple[int, ...]
    binomial_sum: int
    plain_sum: int
    hypothesis_met: bool | None
    verdict: str


def product_formula_check(germ: GermContext, I1: Ideal, I2: Ideal, k: int,
                          cfg: GenericityConfig) -> ProductFormulaResult:
    """e_k(I1*I2) against the binomially weighted and the unweighted sum
    of the mixed numbers e_k^{i,k-i}.

    Both sums are always reported; the derived oracle example
    e((x,y)(x^2,y^3)) = 11 = 1 + 2*2 + 6 settles that the weighted form
    is the correct one, and the unweighted sum documents the discrepancy
    in the unweighted printed statement.
    """
    cache, hypothesis, lhs = _product_preamble(germ, I1, I2, k, cfg)
    terms = tuple(cache.mixed(k, i, k - i) for i in range(k + 1))
    binomial_sum = sum(math.comb(k, i) * t for i, t in enumerate(terms))
    plain_sum = sum(terms)
    if lhs == binomial_sum and lhs == plain_sum:
        verdict = "both"
    elif lhs == binomial_sum:
        verdict = "binomial"
    elif lhs == plain_sum:
        verdict = "plain"
    else:
        verdict = "neither"
    return ProductFormulaResult(k, lhs, terms, binomial_sum, plain_sum, hypothesis, verdict)


# -- exact k-th root comparison ----------------------------------------------

def integer_kth_root(x: int, k: int) -> int:
    """floor(x^(1/k)) for nonnegative integers, exactly."""
    if x < 0 or k < 1:
        raise ValueError("integer_kth_root needs x >= 0, k >= 1")
    if x in (0, 1) or k == 1:
        return x
    r = 1 << (-(-x.bit_length() // k))
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def _perfect_kth_power(x: int, k: int):
    r = integer_kth_root(x, k)
    return (r ** k == x), r


def radical_sum_compare(A: int, B: int, C: int, k: int) -> str:
    """Sign of A^(1/k) - (B^(1/k) + C^(1/k)), decided exactly.

    Equality holds iff B = p^k*d, C = q^k*d and A = (p+q)^k*d for
    integers p, q, d (real k-th roots with distinct k-th-power-free parts
    are linearly independent over QQ); otherwise the sides differ, and
    integer root brackets at increasing scale separate them.
    """
    if min(A, B, C) < 0 or k < 1:
        raise ValueError("radical comparison needs nonnegative integers")
    if B == 0 or C == 0:
        other = B + C
        return "eq" if A == other else ("lt" if A < other else "gt")
    if A == 0:
        return "lt" if (B or C) else "eq"
    g = math.gcd(B, C)
    ok_b, p = _perfect_kth_power(B // g, k)
    ok_c, q = _perfect_kth_power(C // g, k)
    if ok_b and ok_c and A == (p + q) ** k * g:
        return "eq"
    shift = 8
    while True:
        S = 1 << shift
        la = integer_kth_root(A * S ** k, k)
        lb = integer_kth_root(B * S ** k, k)
        lc = integer_kth_root(C * S ** k, k)
        if la + 1 <= lb + lc:
            return "lt"
        if la >= lb + lc + 2:
            return "gt"
        shift *= 2


@dataclass(frozen=True)
class MinkowskiResult:
    k: int
    product_number: int
    left_number: int
    right_number: int
    comparison: str           # "lt" strict, "eq" equality, "gt" violation
    holds: bool
    hypothesis_met: bool | None


def minkowski_check(germ: GermContext, I1: Ideal, I2: Ideal, k: int,
                    cfg: GenericityConfig) -> MinkowskiResult:
    """e_k(I1*I2)^(1/k) <= e_k(I1)^(1/k) + e_k(I2)^(1/k), exactly."""
    cache, hypothesis, A = _product_preamble(germ, I1, I2, k, cfg)
    B = cache.e(1, k)
    C = cache.e(2, k)
    cmp_ = radical_sum_compare(A, B, C, k)
    return MinkowskiResult(k, A, B, C, cmp_, cmp_ != "gt", hypothesis)


@dataclass(frozen=True)
class InequalityVerdict:
    statement: str
    applicable: bool
    holds: bool | None
    numbers: dict


def mixed_inequality_check(germ: GermContext, I1: Ideal, I2: Ideal,
                           cfg: GenericityConfig):
    """Exact verdicts for the mixed-multiplicity power inequality
    (m-primary pairs, normal germ is a documented hypothesis) and the
    codimension-k mixed-Segre inequalities under their lower-codimension
    equality hypotheses."""
    out = []
    n = germ.n
    primary = True
    try:
        require_m_primary(germ, I1, "first")
        require_m_primary(germ, I2, "second")
    except PreconditionError:
        primary = False
    if primary:
        eI1 = mixed_multiplicity_primary(germ, I1, I2, n, cfg)
        eI2 = mixed_multiplicity_primary(germ, I1, I2, 0, cfg)
        for i in range(1, n):
            m = mixed_multiplicity_primary(germ, I1, I2, i, cfg)
            holds = m ** n <= eI1 ** i * eI2 ** (n - i)
            out.append(InequalityVerdict(
                f"e_({i},{n - i})^n <= e(I1)^{i} * e(I2)^{n - i}",
                True, holds,
                {"mixed": m, "e(I1)": eI1, "e(I2)": eI2},
            ))
    cache = MixedNumberCache(germ, I1, I2, cfg)
    for k in range(2, n + 1):
        met = _lower_codim_hypothesis(cache, k)
        name_l = f"e_{k}^{{{k - 1},1}}^2 <= e_{k}(I1) * e_{k}^{{{k - 2},2}}"
        name_r = f"e_{k}^{{1,{k - 1}}}^2 <= e_{k}^{{2,{k - 2}}} * e_{k}(I2)"
        if not met:
            out.append(InequalityVerdict(name_l, False, None, {}))
            out.append(InequalityVerdict(name_r, False, None, {}))
            continue
        for name, (lo, mid, hi) in zip((name_l, name_r), _sides(cache, k)):
            out.append(InequalityVerdict(
                name, True, mid * mid <= lo * hi, {"lhs": mid, "factors": (lo, hi)}
            ))
    return out


def power_equivalence_probe(germ: GermContext, I1: Ideal, I2: Ideal,
                            a: int, b: int, cfg: GenericityConfig) -> ComparisonReport:
    """Closure battery on (I1^a, I2^b): probes the Minkowski equality
    case for user-supplied exponents."""
    if a < 1 or b < 1:
        raise PreconditionError("powers must be positive")
    return closure_battery(germ, ideal_power(I1, a), ideal_power(I2, b), cfg)
