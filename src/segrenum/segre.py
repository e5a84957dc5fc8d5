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

The last stage needs no saturation for its numbers.  The cut
J = Q_{n-1} + (f_n) is 0-dimensional at the origin (or misses it), so a
saturator g with g(0) = 0 is nilpotent in the local ring of J at 0:
J : g^inf misses the origin, m_n = 0 and e_n = mult_0(J).  The rounds
that return only numbers use this whenever the source ideal lies in m,
so that every g drawn from it vanishes at 0; the paths that read Q_n,
and every round whose source ideal does not lie in m, still saturate
stage n.

Most other stages need no saturation either, and that is proven, not
computed.  On C^n, while every earlier stage was left unchanged, the cut
is J = (f_1, ..., f_k) exactly, and with S the source ideal:

    if dim J = n - k, J is a complete intersection of height k, so it is
    unmixed (Macaulay: Matsumura, Thm 17.6): every associated prime P
    has dim V(P) = n - k.  If also dim V(S) < n - k, S lies in no such P
    (else V(P) would lie in V(S)), so by prime avoidance some element of
    S is a nonzerodivisor on k[x]/J, and J : S^inf = J.

The argument holds over any field, GF(p) or QQ, and both dimensions are
taken over the round's own field: a prime can raise dim V(S) above its
value over QQ.  A stage that passes takes as Q_k J's reduced grevlex
basis, the bytes the elimination by a generic g returns, and
m_k = mult_0(J), so neither the elimination nor the polar completion
runs.  The proof does not look at g, so a degenerate g cannot spoil a
certified stage.  The test is tried only at k < c, c = n - dim V(S) over
QQ, the codimension of the source's zero set; this keeps sources of
codimension 1 from paying for it.  The first stage that fails, every
stage after it, and every stage on a germ with an ambient (whose
unmixedness would need the ambient to be Cohen-Macaulay) go to
`saturate`.

A mixed Segre number e_k^{i,j}(I1, I2) with i, j >= 1 and k below
c = max(c1, c2), the larger codimension of the two zero sets, needs no
round at all: it is 0.  Every component of a k-fold cut through the
origin has dimension at least n - k, more than dim V(I1 + I2) <= n - c,
so none lies in V(I1 + I2), saturation keeps each one, and the stage
multiplicity in dimension n - k is unchanged.  The closure criteria read
such numbers at every level below c.

At the top level of C^n the chain is not run either when c = n and
both ideals lie in m: then S = I1 + I2 is m-primary in the local ring
R = k[x]_m, and e_n^{i,j} is the colength l(R/(h_1, ..., h_n)) of the n
cuts, one completion per round.  The chain gives a number only when
every prefix (h_1, ..., h_k) has local dimension n - k; in the regular
ring R the h then form a regular sequence, each prefix is unmixed with
associated primes of dimension n - k >= 1 for k < n, the m-primary S
lies in none of them, and locally Q_k = (h_1, ..., h_k).  So
mult_0(Q_{n-1} + (h_n)) = l(R/(h)) and m_n = 0.  For i + j = n the
number is Teissier's mixed multiplicity e(I1^[i] | I2^[j]).

Saturation with respect to a source ideal S is saturation by one
generic element g of S, drawn like the cuts from the round seed: one
Rabinowitsch elimination, and Q : g^inf = Q : S^inf unless g lies in one
of finitely many proper subspaces.  The draw is lazy: a round whose
stages are all certified, or skipped as the last stage, draws no g.  A
bad g only removes more components, those where g vanishes; when one of
them passes through the origin the round's multiplicities drop, and the
independent round, with its own g, disagrees.

Genericity over the rationals is probabilistic: coefficients are drawn
from a seeded generator, every certified number is recomputed under
independent seeds and must agree exactly, and the coefficient bound is
escalated once on disagreement.

Each certification round runs over its own prime field GF(p), p a prime
just below 2^31 drawn from the round seed.  The numbers are read off
leading ideals, which agree with those over QQ for all but finitely many
p; a bad prime, like a bad cut, makes its round disagree and goes down
the same retry and escalation path.  One driver, `_certified`, runs the
rounds of every certified number and maps the germ and the ideals into
each round's field; a round returns only the numbers to agree on.  Work
outside the rounds stays over QQ: the germ, the co-support and m-primary
checks, and the subspace precondition.  `polar_chain` returns rational
stage ideals: it reruns round 0's seed once over QQ, and that exact run
must give the certified numbers.  With a single verification round a
number rests on one seed and one prime.

The one-codimensional "plane section off 0" evaluation of e_1 is
documented background only; it needs multiplicities at points away
from the origin and has no operation here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from math import lcm

from .errors import (
    ConsistencyError,
    DimensionAnomalyError,
    GenericityError,
    PreconditionError,
)
from .groebner import (
    GREVLEX,
    Ideal,
    _basis_ideal,
    buchberger,
    dimension,
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
_PRIME = 9      # derive_seed index of a round's prime


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
        z = _mix64(self.state)
        self.state = (self.state + 0x9E3779B97F4A7C15) & _M64
        return z

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.next_u64() % (hi - lo + 1)


def derive_seed(base: int, *indices: int) -> int:
    x = base & _M64
    for i in indices:
        x = _mix64(x ^ _mix64(i + 1))
    return x


# ---------------------------------------------------------------------------
# prime fields: one prime per round seed
# ---------------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7: deterministic below 3.2e9."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=256)
def _round_prime(seed: int, den: int = 1) -> int:
    """The prime of the round with this seed: the largest prime at most
    2^31 - 1 - (a 20-bit number drawn from the seed) that does not divide
    `den`, the lcm of the input's denominators.  Memoised: every
    certified number draws its rounds' primes from the same few seeds."""
    n = (1 << 31) - 1 - derive_seed(seed, _PRIME) % (1 << 20)
    while not (_is_prime(n) and den % n):
        n -= 1
    return n


def _denominator(*ideals) -> int:
    """The lcm of the denominators of the ideals' coefficients."""
    return lcm(1, *(c.denominator for I in ideals for g in I.generators
                    for c in g.coeffs.values()))


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
            raise PreconditionError("coefficient bound must be positive")
        if self.verification_rounds < 1:
            raise PreconditionError("at least one round is required")


@dataclass(frozen=True)
class GermContext:
    """Ambient germ (X, 0): defining ideal, ring, its dimension n at 0 and
    its multiplicity at 0; `make_germ` builds it."""

    ring: PolynomialRing
    ambient: Ideal
    n: int
    multiplicity: int = field(compare=False)

    def over(self, modulus: int) -> "GermContext":
        """The germ with its ideal mapped into GF(modulus); n and the
        multiplicity are those over QQ."""
        ring = self.ring.over(modulus)
        if ring is self.ring:
            return self
        return replace(self, ring=ring, ambient=self.ambient.over(modulus))


def make_germ(ring: PolynomialRing, ambient: Ideal | None = None) -> GermContext:
    """Build a germ context; n is the local dimension of the ambient
    ideal at the origin, which must be positive.

    Equidimensionality of the ambient is a documented user obligation and
    is not checked.
    """
    if ambient is None or ambient.is_zero:
        ambient = Ideal(ring, ())
        n, mult = ring.nvars, 1
    else:
        if not passes_through_origin(ambient):
            raise PreconditionError("ambient ideal does not pass through the origin")
        res = multiplicity_at_origin(ambient)
        n, mult = res.local_dimension, res.multiplicity
    if n < 1:
        raise PreconditionError("germ must have positive dimension")
    return GermContext(ring, ambient, n, mult)


@dataclass(frozen=True)
class GenericTuple:
    """Recorded generic combinations: each row of `coefficients` gives
    one combination of the source generators (replayable by seed)."""

    combinations: tuple[Polynomial, ...]
    coefficients: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class StageRecord:
    k: int
    cut_ideal: Ideal | None      # Q_{k-1} + (f_k); None for stage 0
    polar_ideal: Ideal | None    # saturated stage ideal Q_k; None if not built
    m: int                       # multiplicity of the polar stage at 0
    e: int | None                # Segre number; None for stage 0


@dataclass(frozen=True)
class PolarChain:
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

def _combination(ring: PolynomialRing, row, gens) -> Polynomial:
    """sum(c * g) over the row's integer coefficients c and the
    generators g, accumulated in one dict: Fractions over QQ, residues
    reduced once at the end over GF(p)."""
    out = {}
    for c, g in zip(row, gens):
        if c:
            for e, v in g.coeffs.items():
                out[e] = out.get(e, 0) + c * v
    m = ring.modulus
    if m:
        return Polynomial(ring, {e: v % m for e, v in out.items() if v % m})
    return Polynomial(ring, {e: v for e, v in out.items() if v})


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
        combos = [_combination(I.ring, row, gens) for row in matrix]
        if any(p.is_zero for p in combos):
            continue
        return GenericTuple(tuple(combos), matrix)
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


def _saturator(S: Ideal, cfg: GenericityConfig, seed: int, *where: int) -> Ideal:
    """(g) for one generic element g of S, drawn from the round seed; the
    indices `where` tell apart the draws of one round."""
    tup = generic_tuple(S, 1, cfg, seed=derive_seed(seed, _SATURATOR, *where))
    return Ideal(S.ring, tup.combinations)


def _saturation_is_trivial(J: Ideal, S: Ideal, k: int) -> bool:
    """Whether J : S^inf = J is proven for a cut J = (f_1, ..., f_k) of
    C^n: J has dimension n - k, so it is a complete intersection whose
    associated primes all have dimension n - k, and V(S) has smaller
    dimension, so S lies in none of them.  Both dimensions are taken
    over J's own field."""
    expected = J.ring.nvars - k
    return dimension(S) < expected and dimension(J) == expected


def _run_stages(germ: GermContext, cuts, source: Ideal, draw_saturator,
                numbers_only=False, codim=0):
    """The saturation-and-subtract recursion along the given cuts, each
    cut saturated with respect to the `source` ideal S, by a principal
    saturator (g) drawn from it.  `draw_saturator()` returns (g); it is
    called only when a stage first goes to `saturate`, and its ideal
    serves every later stage of the run, so a run whose stages are all
    certified or skipped draws no saturator.

    Components through the origin of each cut scheme have dimension at
    least n - k, so a stage of any other local dimension is a genericity
    failure that triggers a seed retry.

    On C^n, a stage k below `codim` is first offered to
    `_saturation_is_trivial`, with S.  While every stage so far passed,
    the cut is (f_1, ..., f_k) exactly; a stage that passes takes as Q_k
    the cut's reduced grevlex basis, which is J : S^inf and, for a
    generic g, the bytes `saturate` returns, and m_k = mult_0 of the cut,
    so e_k = 0.  The first stage that fails, and every stage after it, is
    saturated by g.  `codim` is at most n - dim V(S) over QQ, a cheap
    filter: from there on the test fails over QQ, and a codimension-1
    source runs no test at all; 0, the default, saturates every stage.

    With `numbers_only`, stage n is not saturated when S lies in m, which
    is exactly when every g drawn from S vanishes at 0: its cut J is
    0-dimensional at the origin (or misses it), so g is nilpotent in the
    local ring of J at 0, J : g^inf misses the origin and m_n = 0; the
    record's polar ideal is None.  When S does not lie in m the stage is
    saturated; a g that vanishes at 0 all the same gives m_n = 0 there
    too.

    Each multiplicity names its prefix: Q_{k-1} for the cut, Q_k itself
    for the polar stage, so its completion gets a lower bound on its
    Hilbert series (see `multiplicity`)."""
    ring = germ.ring
    stages = [StageRecord(0, None, germ.ambient, germ.multiplicity, None)]
    Q = germ.ambient
    skip_last = numbers_only and passes_through_origin(source)
    certify = germ.ambient.is_zero
    saturator = None
    for k, f in enumerate(cuts, start=1):
        J = ideal_sum(Q, Ideal(ring, (f,)))
        m_j = _contribution(multiplicity_at_origin(J, prefix=Q), germ.n - k, f"stage {k} cut")
        certify = certify and k < codim and _saturation_is_trivial(J, source, k)
        if skip_last and k == germ.n:
            Qk, m_q = None, 0
        elif certify:
            Qk, m_q = _basis_ideal(buchberger(J, GREVLEX)), m_j
        else:
            if saturator is None:
                saturator = draw_saturator()
            Qk = saturate(J, saturator)
            m_q = _contribution(multiplicity_at_origin(Qk, prefix=Qk), germ.n - k, f"stage {k} polar")
        e = m_j - m_q
        if e < 0:
            raise DimensionAnomalyError(f"negative Segre contribution at stage {k}")
        stages.append(StageRecord(k, J, Qk, m_q, e))
        Q = Qk
    return stages


def _certified(cfg: GenericityConfig, run_once, germ: GermContext, *ideals: Ideal):
    """(numbers, round seeds, config of the bound step that agreed): the
    numbers `run_once(seed, cfg, round, germ, *ideals)` returns exactly
    under verification_rounds independent seeds, with the germ and ideals
    mapped into GF(p) for the prime p drawn from the seed that divides no
    denominator of theirs.  A dimension anomaly retries its round; rounds
    that disagree or keep failing escalate the coefficient bound once."""
    den = _denominator(germ.ambient, *ideals)
    for bound_step in range(2):
        cfg_b = cfg if bound_step == 0 else replace(
            cfg, coefficient_bound=cfg.coefficient_bound * 8
        )
        results = []
        seeds = []
        try:
            for r in range(cfg_b.verification_rounds):
                for attempt in range(_MAX_ATTEMPTS):
                    seed = derive_seed(cfg_b.seed, bound_step, r, attempt)
                    p = _round_prime(seed, den)
                    try:
                        results.append(run_once(seed, cfg_b, r, germ.over(p),
                                                *[I.over(p) for I in ideals]))
                        seeds.append(seed)
                        break
                    except DimensionAnomalyError as exc:
                        anomaly = exc
                else:
                    raise GenericityError(f"persistent dimension anomaly: {anomaly}")
        except GenericityError:
            if bound_step == 0:
                continue
            raise
        if all(v == results[0] for v in results):
            return results[0], seeds, cfg_b
    raise GenericityError(f"seed disagreement persists after bound escalation: {results}")


def _check_cosupport(germ: GermContext, I: Ideal) -> int:
    """Refuse an ideal without Segre data on the germ; else return
    n - dim V(I + X), on C^n the codimension of V(I)."""
    if I.is_zero:
        raise PreconditionError("the zero ideal has dense co-support")
    total = ideal_sum(I, germ.ambient)
    d = dimension(total)
    if d < 0 and dimension(I) < 0:
        raise PreconditionError("the unit ideal has no Segre data")
    # A component away from the origin can lift the global dimension;
    # the local one, never larger, decides.
    if d >= germ.n and multiplicity_at_origin(total).local_dimension >= germ.n:
        raise PreconditionError(
            "ideal does not have nowhere-dense co-support on the germ"
        )
    return germ.n - d


def _polar_stages(germ: GermContext, I: Ideal, cfg: GenericityConfig, seed: int,
                  numbers_only=False, codim=0):
    """One run of the polar chain of I: the tuple of n combinations drawn
    from `seed`, and the stages it cuts, saturated by a generic element
    of I drawn from the same seed (`codim` as in `_run_stages`)."""
    tup = generic_tuple(I, germ.n, cfg, seed=seed)
    return tup, _run_stages(germ, tup.combinations, I, partial(_saturator, I, cfg, seed),
                            numbers_only, codim)


def _chain_round(seed, cfg, round_idx, germ, I, codim=0):
    """The numbers of a polar-chain round: (m_k, e_k) for each stage."""
    stages = _polar_stages(germ, I, cfg, seed, numbers_only=True, codim=codim)[1]
    return tuple((s.m, s.e) for s in stages)


def polar_chain(germ: GermContext, I: Ideal, cfg: GenericityConfig) -> PolarChain:
    """Certified polar chain of I on the germ: stages 0..n with polar
    multiplicities m_k and Segre numbers e_k, and the cut and polar
    ideals over QQ of one rerun of round 0's seed, which must give the
    certified numbers."""
    codim = _check_cosupport(germ, I)
    numbers, seeds, cfg_b = _certified(cfg, partial(_chain_round, codim=codim), germ, I)
    tup, stages = _polar_stages(germ, I, cfg_b, seeds[0], codim=codim)
    exact = tuple((s.m, s.e) for s in stages)
    if exact != numbers:
        raise GenericityError(
            f"round 0's seed gives {exact} over QQ but {numbers} over GF(p)")
    return PolarChain(tup, tuple(stages), tuple(seeds),
                      cfg.verification_rounds >= 2)


def segre_profile(germ: GermContext, I: Ideal, cfg: GenericityConfig) -> SegreProfile:
    """The certified Segre numbers and polar multiplicities of I; unlike
    `polar_chain`, it makes no rerun over QQ."""
    codim = _check_cosupport(germ, I)
    numbers, _, _ = _certified(cfg, partial(_chain_round, codim=codim), germ, I)
    return SegreProfile(tuple(e for _, e in numbers[1:]), tuple(m for m, _ in numbers[:-1]))


def segre_on_subspace(germ: GermContext, I: Ideal, P: Ideal,
                      cfg: GenericityConfig) -> SegreProfile:
    """Segre numbers of the ideal induced by I on the subgerm X cut out
    by P on the germ, whose ideal is the ambient plus P.

    Precondition: no associated component of X lies inside V(I), checked
    exactly as X : I == X (which gives X : I^k == X for every k).  For
    one generic g in I drawn from the seed, X <= X : I <= X : g, so
    X : g == X, one principal quotient, proves it; only otherwise is the
    quotient by all of I computed, to tell a bad g from a real failure.
    """
    if P.is_zero:
        return segre_profile(germ, I, cfg)
    X = ideal_sum(germ.ambient, P)
    if (ideal_quotient(X, _saturator(I, cfg, cfg.seed)) != X
            and ideal_quotient(X, I) != X):
        raise PreconditionError("a component of the subscheme lies inside V(I)")
    if not passes_through_origin(X):
        raise PreconditionError("subscheme misses the origin")
    return segre_profile(make_germ(germ.ring, X), I, cfg)


def _mixed_cuts(seed, cfg, germ, I1, I2, k, i, j):
    """The k cuts of a mixed round: generic combinations of i generic
    elements of I1 and j of I2, all drawn from the round seed."""
    tup_f = generic_tuple(I1, i, cfg, seed=derive_seed(seed, 1))
    tup_g = generic_tuple(I2, j, cfg, seed=derive_seed(seed, 2))
    pool = Ideal(germ.ring, tup_f.combinations + tup_g.combinations)
    return generic_tuple(pool, k, cfg, seed=derive_seed(seed, 3)).combinations


def _mixed_round(seed, cfg, round_idx, germ, I1, I2, k, i, j, codim):
    """The number of a mixed round: e_k of the round's k cuts, saturated
    with respect to S = I1 + I2 (`codim` as in `_run_stages`)."""
    S = ideal_sum(I1, I2)
    stages = _run_stages(germ, _mixed_cuts(seed, cfg, germ, I1, I2, k, i, j), S,
                         partial(_saturator, S, cfg, seed), numbers_only=True, codim=codim)
    return stages[k].e


def _colength_round(seed, cfg, round_idx, germ, I1, I2, i, j):
    """The number of a top-level mixed round on C^n with an m-primary
    source: the local colength of the ideal of the round's n cuts, the
    same cuts `_mixed_round` draws from the seed."""
    n = germ.n
    cuts = Ideal(germ.ring, _mixed_cuts(seed, cfg, germ, I1, I2, n, i, j))
    return _contribution(multiplicity_at_origin(cuts), 0, f"stage {n} cut")


def mixed_segre(germ: GermContext, I1: Ideal, I2: Ideal, k: int, i: int, j: int,
                cfg: GenericityConfig) -> int:
    """The mixed Segre number e_k^{i,j}(I1, I2).

    The stage cuts are generic combinations of i generic elements of I1
    and j generic elements of I2; saturation is with respect to I1 + I2.
    Boundary conventions: e_k^{k,0} = e_k(I1) and e_k^{0,k} = e_k(I2);
    both ideals must have Segre data there too.

    Off the boundary, a number below c = max(c1, c2), the larger
    codimension of the two zero sets on the germ, is 0 and runs no
    round: every component of a k-fold cut through the origin has
    dimension at least n - k > n - c >= dim V(I1 + I2), so it does not
    lie in V(I1 + I2), saturation keeps it, and the stage's multiplicity
    in dimension n - k does not drop.  The boundary conventions come
    first: e_k(I1) need not vanish below c2.

    On C^n with k == c == n and both ideals in m, the source I1 + I2 is
    m-primary and each round reads the local colength of its n cuts
    (`_colength_round`, the same cuts the chain draws): no stages
    1 .. n - 1, no dimension of the source and no certificate tests.  A
    cut that is not 0-dimensional at the origin raises a dimension
    anomaly named after stage n.  The chain raises the same one when its
    first n - 1 cuts have the expected dimensions; otherwise, as for
    ((x), m) and (k, i, j) = (4, 3, 1) on C^4, it names an earlier stage.
    """
    if not 1 <= k <= germ.n:
        raise PreconditionError(f"k must be between 1 and {germ.n}")
    if i < 0 or j < 0 or (i == 0 and j == 0):
        raise PreconditionError("need i, j >= 0 and not both zero")
    if j == 0 and i != k:
        raise PreconditionError("the boundary convention needs i == k when j == 0")
    if i == 0 and j != k:
        raise PreconditionError("the boundary convention needs j == k when i == 0")
    if i + j < k:
        raise PreconditionError("need i + j >= k combinations to cut k times")
    codim = max(_check_cosupport(germ, I1), _check_cosupport(germ, I2))
    if i == 0 or j == 0:
        return segre_profile(germ, I2 if i == 0 else I1, cfg).e[k - 1]
    if k < codim:
        return 0
    if (k == codim == germ.n and germ.ambient.is_zero
            and passes_through_origin(I1) and passes_through_origin(I2)):
        return _certified(cfg, partial(_colength_round, i=i, j=j), germ, I1, I2)[0]
    return _certified(cfg, partial(_mixed_round, k=k, i=i, j=j, codim=codim),
                      germ, I1, I2)[0]


def require_m_primary(germ: GermContext, I: Ideal, label: str):
    """Raise PreconditionError unless I is m-primary on the germ."""
    merged = ideal_sum(I, germ.ambient)
    if not passes_through_origin(merged):
        raise PreconditionError(f"{label} ideal does not vanish at the origin")
    if multiplicity_at_origin(merged).local_dimension != 0:
        raise PreconditionError(f"{label} ideal is not m-primary on the germ")


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
    require_m_primary(germ, I1, "first")
    require_m_primary(germ, I2, "second")

    def run_once(seed, cfg_b, round_idx, germ, I1, I2):
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
        return res.multiplicity

    return _certified(cfg, run_once, germ, I1, I2)[0]


def chain_condition(germ: GermContext, I: Ideal, cfg: GenericityConfig):
    """Whether the Segre-cycle supports form a chain at the origin:
    |L_k| contains |L_{k+1}| for k from the first nonempty level up to n.

    Each L_k support is the saturation residual (Q_{k-1}+(f_k)) : Q_k^inf;
    containment is decided as a germ condition: the closure of
    |L_{k+1}| minus |L_k| must miss the origin.
    """
    codim = _check_cosupport(germ, I)

    def run_once(seed, cfg_b, round_idx, germ, I):
        _, stages = _polar_stages(germ, I, cfg_b, seed, codim=codim)
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
        return holds, first, witness

    holds, _, _ = _certified(cfg, run_once, germ, I)[0]
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

    def run_once(seed, cfg_b, round_idx, germ, I):
        tup = generic_tuple(I, k + 1, cfg_b, seed=seed)
        cuts = tup.combinations[:k]
        truncated = Ideal(germ.ring, tup.combinations)
        full = _run_stages(germ, cuts, I, partial(_saturator, I, cfg_b, seed))[k]
        trunc = _run_stages(germ, cuts, truncated,
                            partial(_saturator, truncated, cfg_b, seed, 1))[k]
        return full.polar_ideal == trunc.polar_ideal and full.e == trunc.e

    return _certified(cfg, run_once, germ, I)[0]
