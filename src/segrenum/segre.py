"""Polar chains, Segre numbers, mixed Segre numbers and mixed
multiplicities of ideals at the origin.

The polar recursion: Q_0 is the ambient scheme ideal; at stage k a
generic combination f_k of the source generators is added and the
result is saturated with respect to the source ideal, which removes the
components supported where the source vanishes (scheme-theoretic
"closure of the set difference").  The stage-k Segre number is

    e_k = mult_0(Q_{k-1} + (f_k)) - mult_0(Q_k),

both multiplicities taken in dimension n - k (a scheme that misses the
origin contributes 0) -- the cycle bookkeeping happens at the level of
multiplicities through the associativity formula, so no primary
decomposition is ever needed.  Polar stages are saturated scheme
ideals, not reduced varieties; for generic combinations the numbers
agree.

Saturation with respect to a source ideal S is saturation by one
generic element g of S, drawn like the cuts from the round seed: one
Rabinowitsch elimination, and Q : g^inf = Q : S^inf unless g lies in one
of finitely many proper subspaces.  A bad g only removes more
components, those where g vanishes; when one of them passes through the
origin the round's multiplicities drop, and the independent round, with
its own g, disagrees.

Genericity over the rationals is probabilistic: coefficients are drawn
from a seeded generator, every certified number is recomputed under
independent seeds and must agree exactly, and the coefficient bound is
escalated once on disagreement.

The one-codimensional "plane section off 0" evaluation of e_1 is
documented background only; it needs multiplicities at points away
from the origin and has no operation here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import (
    ConsistencyError,
    DimensionAnomalyError,
    GenericityError,
    PreconditionError,
)
from .groebner import (
    Ideal,
    dimension,
    groebner_fingerprint,
    ideal_quotient,
    ideal_sum,
    saturate,
)
from .linalg import rank
from .multiplicity import (
    LocalMultiplicityResult,
    multiplicity_at_origin,
    passes_through_origin,
)
from .rings import Polynomial, PolynomialRing

DEFAULT_SEED = 20260808
_MAX_ATTEMPTS = 3
_SATURATOR = 8  # derive_seed index of saturator draws; the cut draws use 0-7


# ---------------------------------------------------------------------------
# deterministic pseudo-randomness (splitmix64)
# ---------------------------------------------------------------------------

_M64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    x &= _M64
    x = (x + 0x9E3779B97F4A7C15) & _M64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


class DetRng:
    """Deterministic 64-bit stream, identical on every platform."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _M64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _M64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.next_u64() % (hi - lo + 1)


def derive_seed(base: int, *indices: int) -> int:
    x = base & _M64
    for i in indices:
        x = _mix64(x ^ _mix64(i + 1))
    return x


# ---------------------------------------------------------------------------
# configuration and domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GenericityConfig:
    """Seeded genericity: the base seed, the bound for the random integer
    coefficients, and the number of independent verification rounds."""

    seed: int = DEFAULT_SEED
    coefficient_bound: int = 997
    verification_rounds: int = 2

    def __post_init__(self):
        if self.coefficient_bound < 1:
            raise ValueError("coefficient bound must be positive")
        if self.verification_rounds < 1:
            raise ValueError("at least one round is required")


@dataclass(frozen=True)
class GermContext:
    """Ambient germ (X, 0): defining ideal, ring, and its dimension n at 0."""

    ring: PolynomialRing
    ambient: Ideal
    n: int


def make_germ(ring: PolynomialRing, ambient: Ideal | None = None,
              expected_dim: int | None = None) -> GermContext:
    """Build a germ context; n is the local dimension of the ambient
    ideal at the origin, checked against `expected_dim` when given.

    Equidimensionality of the ambient is a documented user obligation;
    the check performed is that the local dimension matches the
    declared dimension.
    """
    if ambient is None or ambient.is_zero:
        ambient = Ideal(ring, ())
        n = ring.nvars
    else:
        if not passes_through_origin(ambient):
            raise PreconditionError("ambient ideal does not pass through the origin")
        n = multiplicity_at_origin(ambient).local_dimension
    if expected_dim is not None and expected_dim != n:
        raise PreconditionError(
            f"declared dimension {expected_dim} but local dimension {n}"
        )
    if n < 1:
        raise PreconditionError("germ must have positive dimension")
    return GermContext(ring, ambient, n)


@dataclass(frozen=True)
class GenericTuple:
    """Recorded generic combinations: each row of `coefficients` gives
    one combination of the source generators (replayable by seed)."""

    source: Ideal
    combinations: tuple[Polynomial, ...]
    coefficients: tuple[tuple[int, ...], ...]
    seed_used: int


@dataclass(frozen=True)
class StageRecord:
    k: int
    cut_ideal: Ideal | None      # Q_{k-1} + (f_k); None for stage 0
    polar_ideal: Ideal           # saturated stage ideal Q_k
    m: int                       # multiplicity of the polar stage at 0
    e: int | None                # Segre number; None for stage 0


@dataclass(frozen=True)
class PolarChain:
    germ: GermContext
    source: Ideal
    tuple_used: GenericTuple
    stages: tuple[StageRecord, ...]
    seeds_used: tuple[int, ...]
    certified: bool

    @property
    def e(self):
        return tuple(s.e for s in self.stages[1:])

    @property
    def m(self):
        return tuple(s.m for s in self.stages[:-1])


@dataclass(frozen=True)
class SegreProfile:
    """e = (e_1..e_n), m = (m_0..m_{n-1}); all entries nonnegative."""

    e: tuple[int, ...]
    m: tuple[int, ...]


@dataclass(frozen=True)
class MixedSegreTable:
    """Entries (k, i, j) -> e_k^{i,j}; (k, k, 0) and (k, 0, k) are the
    boundary conventions (plain Segre numbers of each ideal)."""

    n: int
    entries: dict

    def __post_init__(self):
        for (k, i, j), v in self.entries.items():
            if not (1 <= k <= self.n) or v < 0:
                raise ConsistencyError(f"bad mixed table entry {(k, i, j)} -> {v}")


# ---------------------------------------------------------------------------
# generic combinations
# ---------------------------------------------------------------------------

def generic_tuple(I: Ideal, count: int, cfg: GenericityConfig,
                  seed: int | None = None) -> GenericTuple:
    """`count` combinations with seeded integer coefficients; the
    coefficient matrix has full rank min(count, #generators) and no zero
    rows."""
    if I.is_zero:
        raise PreconditionError("cannot draw combinations from the zero ideal")
    if count < 1:
        raise PreconditionError("count must be at least 1")
    gens = I.generators
    base = cfg.seed if seed is None else seed
    bound = cfg.coefficient_bound
    for attempt in range(8):
        rng = DetRng(derive_seed(base, attempt))
        matrix = tuple(
            tuple(rng.randint(-bound, bound) for _ in gens) for _ in range(count)
        )
        if any(not any(row) for row in matrix):
            continue
        if rank(matrix) != min(count, len(gens)):
            continue
        combos = []
        for row in matrix:
            p = I.ring.zero()
            for c, g in zip(row, gens):
                if c:
                    p = p + g * c
            combos.append(p)
        if any(p.is_zero for p in combos):
            continue
        return GenericTuple(I, tuple(combos), matrix, base)
    raise GenericityError(
        "could not draw a full-rank coefficient matrix; bound too small"
    )


# ---------------------------------------------------------------------------
# the chain engine
# ---------------------------------------------------------------------------

def _contribution(res: LocalMultiplicityResult, expected_dim: int, what: str) -> int:
    if res.misses_origin:
        return 0
    if res.local_dimension != expected_dim:
        raise DimensionAnomalyError(
            f"{what}: local dimension {res.local_dimension}, expected {expected_dim}"
        )
    return res.multiplicity


def _ambient_multiplicity(germ: GermContext) -> int:
    if germ.ambient.is_zero:
        return 1
    return multiplicity_at_origin(germ.ambient).multiplicity


def _saturator(S: Ideal, cfg: GenericityConfig, seed: int, *where: int) -> Ideal:
    """(g) for one generic element g of S, drawn from the round seed; the
    indices `where` tell apart the draws of one round."""
    tup = generic_tuple(S, 1, cfg, seed=derive_seed(seed, _SATURATOR, *where))
    return Ideal(S.ring, tup.combinations)


def _run_stages(germ: GermContext, cuts, saturator: Ideal):
    """The saturation-and-subtract recursion along the given cuts, each
    cut saturated by the principal `saturator`.

    Components through the origin of each cut scheme have dimension at
    least n - k, so a stage of any other local dimension is a genericity
    failure that triggers a seed retry."""
    ring = germ.ring
    stages = [StageRecord(0, None, germ.ambient, _ambient_multiplicity(germ), None)]
    Q = germ.ambient
    for k, f in enumerate(cuts, start=1):
        J = ideal_sum(Q, Ideal(ring, (f,)))
        m_j = _contribution(multiplicity_at_origin(J), germ.n - k, f"stage {k} cut")
        Qk = saturate(J, saturator)
        m_q = _contribution(multiplicity_at_origin(Qk), germ.n - k, f"stage {k} polar")
        e = m_j - m_q
        if e < 0:
            raise DimensionAnomalyError(f"negative Segre contribution at stage {k}")
        stages.append(StageRecord(k, J, Qk, m_q, e))
        Q = Qk
    return stages


def _certified(cfg: GenericityConfig, run_once):
    """Run `run_once(seed, cfg, round)` under verification_rounds
    independent seeds (with bounded retries on dimension anomalies),
    compare the numeric outputs exactly, and escalate the coefficient
    bound once on disagreement."""
    for bound_step in range(2):
        cfg_b = cfg if bound_step == 0 else replace(
            cfg, coefficient_bound=cfg.coefficient_bound * 8
        )
        results = []
        seeds = []
        try:
            for r in range(cfg_b.verification_rounds):
                last = None
                for attempt in range(_MAX_ATTEMPTS):
                    seed = derive_seed(cfg_b.seed, bound_step, r, attempt)
                    try:
                        results.append(run_once(seed, cfg_b, r))
                        seeds.append(seed)
                        last = None
                        break
                    except DimensionAnomalyError as exc:
                        last = exc
                if last is not None:
                    raise GenericityError(f"persistent dimension anomaly: {last}")
        except GenericityError:
            if bound_step == 0:
                continue
            raise
        numeric = [r[0] for r in results]
        if all(v == numeric[0] for v in numeric):
            certified = cfg_b.verification_rounds >= 2
            return results, seeds, certified
        if bound_step == 1:
            raise GenericityError(
                f"seed disagreement persists after bound escalation: {numeric}"
            )
    raise GenericityError("certification failed")


def _check_cosupport(germ: GermContext, I: Ideal):
    if I.is_zero:
        raise PreconditionError("the zero ideal has dense co-support")
    total = ideal_sum(I, germ.ambient)
    d = dimension(total)
    if d < 0 and dimension(I) < 0:
        raise PreconditionError("the unit ideal has no Segre data")
    if d >= germ.n:
        raise PreconditionError(
            "ideal does not have nowhere-dense co-support on the germ"
        )


def polar_chain(germ: GermContext, I: Ideal, cfg: GenericityConfig) -> PolarChain:
    """Certified polar chain of I on the germ: stages 0..n with polar
    multiplicities m_k and Segre numbers e_k."""
    _check_cosupport(germ, I)

    def run_once(seed, cfg_b, round_idx):
        tup = generic_tuple(I, germ.n, cfg_b, seed=seed)
        stages = _run_stages(germ, tup.combinations, _saturator(I, cfg_b, seed))
        numbers = tuple((s.m, s.e) for s in stages)
        return numbers, (tup, stages)

    results, seeds, certified = _certified(cfg, run_once)
    tup, stages = results[0][1]
    return PolarChain(germ, I, tup, tuple(stages), tuple(seeds), certified)


def segre_profile(germ: GermContext, I: Ideal, cfg: GenericityConfig) -> SegreProfile:
    chain = polar_chain(germ, I, cfg)
    return SegreProfile(chain.e, chain.m)


def segre_on_subspace(germ: GermContext, I: Ideal, P: Ideal,
                      cfg: GenericityConfig) -> SegreProfile:
    """Segre numbers of the ideal induced by I on the subgerm cut out by P.

    Precondition: no associated component of P lies inside V(I), checked
    exactly as P : I == P (which gives P : I^k == P for every k).
    """
    if P.is_zero:
        return segre_profile(germ, I, cfg)
    if ideal_quotient(P, I) != P:
        raise PreconditionError("a component of the subscheme lies inside V(I)")
    if not passes_through_origin(P):
        raise PreconditionError("subscheme misses the origin")
    subgerm = make_germ(germ.ring, P)
    return segre_profile(subgerm, I, cfg)


def mixed_segre(germ: GermContext, I1: Ideal, I2: Ideal, k: int, i: int, j: int,
                cfg: GenericityConfig) -> int:
    """The mixed Segre number e_k^{i,j}(I1, I2).

    The stage cuts are generic combinations of i generic elements of I1
    and j generic elements of I2; saturation is with respect to I1 + I2.
    Boundary conventions: e_k^{k,0} = e_k(I1) and e_k^{0,k} = e_k(I2).
    """
    if not 1 <= k <= germ.n:
        raise PreconditionError(f"k must be between 1 and {germ.n}")
    if i < 0 or j < 0 or (i == 0 and j == 0):
        raise PreconditionError("need i, j >= 0 and not both zero")
    if j == 0:
        if i != k:
            raise PreconditionError("the boundary convention needs i == k when j == 0")
        return segre_profile(germ, I1, cfg).e[k - 1]
    if i == 0:
        if j != k:
            raise PreconditionError("the boundary convention needs j == k when i == 0")
        return segre_profile(germ, I2, cfg).e[k - 1]
    if i + j < k:
        raise PreconditionError("need i + j >= k combinations to cut k times")
    _check_cosupport(germ, I1)
    _check_cosupport(germ, I2)
    sat = ideal_sum(I1, I2)

    def run_once(seed, cfg_b, round_idx):
        tup_f = generic_tuple(I1, i, cfg_b, seed=derive_seed(seed, 1))
        tup_g = generic_tuple(I2, j, cfg_b, seed=derive_seed(seed, 2))
        pool = Ideal(germ.ring, tup_f.combinations + tup_g.combinations)
        tup_h = generic_tuple(pool, k, cfg_b, seed=derive_seed(seed, 3))
        stages = _run_stages(germ, tup_h.combinations, _saturator(sat, cfg_b, seed))
        return (stages[k].e,), (tup_h, stages)

    results, seeds, certified = _certified(cfg, run_once)
    return results[0][0][0]


def mixed_multiplicity_primary(germ: GermContext, I1: Ideal, I2: Ideal, i: int,
                               cfg: GenericityConfig) -> int:
    """Teissier mixed multiplicity for m-primary ideals: the local
    colength of i generic elements of I1 with n-i generic elements of I2.

    Symmetry e_{i,n-i}(I1,I2) = e_{n-i,i}(I2,I1) is asserted by running
    odd verification rounds in the swapped orientation.
    """
    n = germ.n
    if not 0 <= i <= n:
        raise PreconditionError(f"i must be between 0 and {n}")
    for label, I in (("first", I1), ("second", I2)):
        merged = ideal_sum(I, germ.ambient)
        if not passes_through_origin(merged):
            raise PreconditionError(f"{label} ideal does not vanish at the origin")
        res = multiplicity_at_origin(merged)
        if res.local_dimension != 0:
            raise PreconditionError(f"{label} ideal is not m-primary on the germ")

    def run_once(seed, cfg_b, round_idx):
        swap = bool(round_idx & 1)
        A, B, ia = (I2, I1, n - i) if swap else (I1, I2, i)
        gens = []
        if ia:
            gens += list(generic_tuple(A, ia, cfg_b, seed=derive_seed(seed, 1)).combinations)
        if n - ia:
            gens += list(generic_tuple(B, n - ia, cfg_b, seed=derive_seed(seed, 2)).combinations)
        total = ideal_sum(germ.ambient, Ideal(germ.ring, gens))
        res = multiplicity_at_origin(total)
        if res.misses_origin or res.local_dimension != 0:
            raise DimensionAnomalyError("generic combinations are not a system of parameters")
        return (res.multiplicity,), None

    results, seeds, certified = _certified(cfg, run_once)
    return results[0][0][0]


def chain_condition(germ: GermContext, I: Ideal, cfg: GenericityConfig):
    """Whether the Segre-cycle supports form a chain at the origin:
    |L_k| contains |L_{k+1}| for k from the first nonempty level up to n.

    Each L_k support is the saturation residual (Q_{k-1}+(f_k)) : Q_k^inf;
    containment is decided as a germ condition: the closure of
    |L_{k+1}| minus |L_k| must miss the origin.
    """
    _check_cosupport(germ, I)

    def run_once(seed, cfg_b, round_idx):
        tup = generic_tuple(I, germ.n, cfg_b, seed=seed)
        stages = _run_stages(germ, tup.combinations, _saturator(I, cfg_b, seed))
        supports = [saturate(s.cut_ideal, _saturator(s.polar_ideal, cfg_b, seed, 1, s.k))
                    for s in stages[1:]]
        through = [passes_through_origin(a) for a in supports]
        first = next((idx for idx, t in enumerate(through) if t), None)
        holds = True
        witness = None
        if first is not None:
            for idx in range(first, len(supports) - 1):
                excess = saturate(supports[idx + 1],
                                  _saturator(supports[idx], cfg_b, seed, 2, idx))
                if passes_through_origin(excess):
                    holds = False
                    witness = idx + 2  # 1-based level that escapes its predecessor
                    break
        return (holds, first, witness), None

    results, seeds, certified = _certified(cfg, run_once)
    holds, first, witness = results[0][0]
    return holds


def truncation_check(germ: GermContext, I: Ideal, k: int, cfg: GenericityConfig) -> bool:
    """Stage-k polar data from I matches the data from the truncated
    ideal generated by the first k+1 combinations (same tuple, saturation
    taken with respect to the truncation).

    When I has at most k+1 generators the truncation generates I itself
    and the check is trivially true.
    """
    if not 1 <= k <= germ.n:
        raise PreconditionError(f"k must be between 1 and {germ.n}")
    _check_cosupport(germ, I)

    def run_once(seed, cfg_b, round_idx):
        tup = generic_tuple(I, k + 1, cfg_b, seed=seed)
        cuts = tup.combinations[:k]
        truncated = Ideal(germ.ring, tup.combinations)
        full_stages = _run_stages(germ, cuts, _saturator(I, cfg_b, seed))
        trunc_stages = _run_stages(germ, cuts, _saturator(truncated, cfg_b, seed, 1))
        same_ideal = groebner_fingerprint(full_stages[k].polar_ideal) == \
            groebner_fingerprint(trunc_stages[k].polar_ideal)
        same_e = full_stages[k].e == trunc_stages[k].e
        return (same_ideal and same_e,), None

    results, seeds, certified = _certified(cfg, run_once)
    return results[0][0][0]
