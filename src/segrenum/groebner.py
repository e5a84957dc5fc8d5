"""Groebner bases and the ideal toolbox: normal forms, elimination,
intersection, saturation, and the Hilbert series of a monomial ideal,
which colength and dimension read and which steers completions given a
lower bound.

Buchberger's algorithm with the Gebauer-Moeller pair update (the two
standard discarding criteria) and the normal selection strategy, over
the coefficient field of the ring (`PolynomialRing.modulus`).  All
arithmetic is exact.  The raw layer works on rows: coefficient vectors
{packed monomial: int}, with the packing, guard bits and memoized order
keys of `rings`.  A new term with an exponent past 2^15 - 1 raises
ResourceLimitError.  `_normalise` is the one place a coefficient dict
becomes a row: over QQ the primitive integer vector with a positive
leading entry, so the kernel runs fraction-free; over GF(p) the monic
vector of residues, each coefficient reduced mod p when it is next used,
so no number grows past a few machine words.  A completion normalises
only the rows it keeps.  A `GroebnerBasis` holds the reduced basis as
rows and as the monic polynomials they define; completions and their
checks reduce against the rows, and `normal_form` against the monic
polynomials, so its remainder is exact in either field.  Resource
budgets turn runaway computations into reported failures: `MAX_BASIS`
elements, and `MAX_DEGREE` for the leading degree of an element an
S-pair adds.

Within one completion the basis only grows by appending, so all its
reductions share a memo of the first divisor found for each exponent,
and the pending pairs wait in a heap ordered by their lcm.  Every
completion, saturations, intersections and multiplicities included, is
a `buchberger` call, which caches bases by ring, order and the
generators as given.  An elimination hands the basis elements free of
the eliminated variables to that cache as the reduced grevlex basis of
its result, so the multiplicity, dimension or colength of a saturation
starts no second completion; `_basis_ideal` is that one way to publish
a reduced grevlex basis as an ideal, which `segre` also takes for a
stage that saturation leaves unchanged at the origin.

A completion may start from a known reduced basis, which forms no pairs
within itself: the saturation of a homogeneous ideal starts from its
grevlex basis, cached when its multiplicity was read, plus t g - 1.

A completion of homogeneous rows under an order that compares total
degree first may be given a lower bound B on the Hilbert series of its
quotient.  Its pairs come in increasing degree, each new lead lowers the
leads' Hilbert function in its degree D by one, and that function never
falls below HF(I, D) >= B(D).  So once it reaches B(D), the leads span
the initial ideal in degree D and the remaining pairs of that degree
reduce to zero: they are dropped unreduced (Traverso, "Hilbert functions
and the Buchberger algorithm", JSC 22, 1996).  The basis is the same
unique reduced basis.  The leads' function is counted as the run goes,
from the set of degree-D monomials the leads divide, so no Hilbert
series is computed inside a completion.  Hilbert series of monomial
ideals are memoised by their sorted exponents beside the basis cache;
`clear_caches` empties both.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import comb, gcd, lcm

from .errors import (
    PreconditionError,
    ResourceLimitError,
    RingMismatchError,
    ConsistencyError,
)
from .rings import (
    GREVLEX,
    TANGENT_CONE,
    _KEY_MEMO,
    W,
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    _memo_key,
    _overflow,
    block_order,
    format_polynomial,
    mono_divides,
)


class _Infinite:
    """Distinguished 'infinite colength' value (not an error)."""

    __slots__ = ()

    def __repr__(self):
        return "infinite"


INFINITE = _Infinite()


# Budgets of every completion; exceeding one raises ResourceLimitError.
MAX_BASIS = 5000
MAX_DEGREE = 120


@dataclass(slots=True)
class EngineStats:
    """Deterministic per-run counters (no wall-clock), in report order."""

    buchberger_runs: int = 0
    spairs_reduced: int = 0
    max_basis_size: int = 0
    max_lt_degree: int = 0

    def reset(self):
        self.__init__()

    def snapshot(self):
        return asdict(self)


ENGINE_STATS = EngineStats()


class Ideal:
    """Finite generator list in a ring context.

    Zero generators are dropped; an ideal with no nonzero generators is
    the zero ideal (flagged via `is_zero`).
    """

    __slots__ = ("ring", "generators")

    def __init__(self, ring: PolynomialRing, generators):
        gens = []
        for g in generators:
            if not isinstance(g, Polynomial):
                raise TypeError("ideal generators must be polynomials")
            if g.ring != ring:
                raise RingMismatchError("generator ring differs from ideal ring")
            if not g.is_zero:
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)

    @property
    def is_zero(self):
        return not self.generators

    def __eq__(self, other):
        if not isinstance(other, Ideal) or self.ring != other.ring:
            return False
        if self.generators == other.generators:
            return True
        return groebner_fingerprint(self) == groebner_fingerprint(other)

    def __hash__(self):
        return hash((self.ring, groebner_fingerprint(self)))

    def __repr__(self):
        inner = ", ".join(format_polynomial(g) for g in self.generators) or "0"
        return f"Ideal({inner})"

    def over(self, modulus: int) -> "Ideal":
        """The image of this ideal of a QQ ring in GF(modulus) (itself for
        its own field)."""
        ring = self.ring.over(modulus)
        if ring is self.ring:
            return self
        return Ideal(ring, [ring.image(g) for g in self.generators])


def ideal(ring, *polys) -> Ideal:
    return Ideal(ring, polys)


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    if a.ring != b.ring:
        raise RingMismatchError("ideal sum needs a shared ring")
    return Ideal(a.ring, a.generators + b.generators)


def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    if a.ring != b.ring:
        raise RingMismatchError("ideal product needs a shared ring")
    if a.is_zero or b.is_zero:
        return Ideal(a.ring, ())
    return Ideal(a.ring, dict.fromkeys(f * g for f in a.generators for g in b.generators))


def ideal_power(a: Ideal, n: int) -> Ideal:
    if n < 1:
        raise ValueError("ideal powers start at 1")
    out = a
    for _ in range(n - 1):
        out = ideal_product(out, a)
    return out


@dataclass(frozen=True)
class GroebnerBasis:
    """The reduced basis, in descending order of leading terms: `rows[i]`
    is a row as `_normalise` makes it, with its lead at the packed
    monomial `leads[i]`, and `basis[i]` is the monic polynomial of that
    row.  Over GF(p) the row is monic already, and `basis[i]` holds it as
    is."""

    ring: PolynomialRing
    order: MonomialOrder
    basis: tuple[Polynomial, ...]
    rows: tuple[dict, ...] = field(compare=False, repr=False)
    leads: tuple[int, ...] = field(compare=False, repr=False)

    @property
    def is_unit(self):
        return len(self.basis) == 1 and self.basis[0].total_degree == 0

    def leading_exponents(self):
        """The leading exponent tuples, in the order of `basis`."""
        return tuple(map(self.ring._key.__self__.unpack, self.leads))


# ---------------------------------------------------------------------------
# raw machinery: polynomials as {packed exponent: int}
# ---------------------------------------------------------------------------

def _lcm(a, b, guard):
    """Field-wise max: `mask` is all ones in each field where a >= b."""
    m = ((a | guard) - b) & guard
    mask = m - (m >> (W - 1))
    return b ^ ((a ^ b) & mask)


def _normalise(d, key, modulus=0):
    """The kernel row of a nonzero coefficient dict: over GF(p) the monic
    vector of residues, over QQ the primitive integer vector with a
    positive leading entry, any Fraction denominators cleared first."""
    lead = d[max(d, key=key)]
    if modulus:
        inv = pow(lead, -1, modulus)
        return {e: c * inv % modulus for e, c in d.items()}
    denom = lcm(*(c.denominator for c in d.values()))
    d = {e: c.numerator * (denom // c.denominator) for e, c in d.items()}
    content = gcd(*d.values())
    if lead < 0:
        content = -content
    return d if content == 1 else {e: c // content for e, c in d.items()}


_UNSCANNED = (-1, 0)


def _reduce_raw(p, basis, lts, key, divisors=None, modulus=0):
    """The remainder of p against a basis of rows: no term of it is
    divisible by a lead in `lts`.

    Over QQ the reduction is fraction-free: a lead coefficient other than
    1 scales the remainder so far and the rest of the work by a positive
    integer, so the result is the exact remainder times a positive
    integer (the exact one for monic rows).  Over GF(p) the rows are
    monic, and a coefficient is reduced mod p when it is popped: updates
    in between add products of two residues, and a term whose sum is a
    nonzero multiple of p is dropped then.

    Each term is reduced by the first basis element whose lead divides
    it.  `divisors` memoizes that search, {exponent: (first divisor index
    or -1, leads scanned)}; calls may share it while `basis` and `lts`
    only grow by appending, because a first divisor then stays first and
    a miss needs only the leads appended since.
    """
    work = dict(p)
    remainder = {}
    nb = len(basis)
    if divisors is None:
        divisors = {}
    guard = key.__self__.guard
    heap = [(-key(e), e) for e in work]
    heapq.heapify(heap)
    while work:
        _, e = heapq.heappop(heap)
        if e not in work:
            continue  # lazily dropped entry
        c = work.pop(e)
        if modulus:
            c %= modulus
            if not c:
                continue
        hit, scanned = divisors.get(e, _UNSCANNED)
        if hit < 0:
            for i in range(scanned, nb):
                if not (e - lts[i]) & guard:
                    hit = i
                    break
            divisors[e] = (hit, nb)
            if hit < 0:
                remainder[e] = c
                continue
        g = basis[hit]
        if len(g) == 1:
            continue  # monomial divisor cancels the term exactly
        lt_hit = lts[hit]
        shift = e - lt_hit
        a = g[lt_hit]
        if a != 1:
            common = gcd(a, c)
            scale = a // common
            c = c // common
            if scale != 1:
                for er in remainder:
                    remainder[er] *= scale
                for ew in work:
                    work[ew] *= scale
        get = work.get
        for eg, cg in g.items():
            if eg == lt_hit:
                continue
            ee = eg + shift
            s = get(ee)
            if s is None:
                if ee & guard:
                    raise _overflow(key.__self__.unpack(ee))
                work[ee] = -c * cg
                heapq.heappush(heap, (-key(ee), ee))
            else:
                s = s - c * cg
                if s:
                    work[ee] = s
                else:
                    del work[ee]
    return remainder


def _spoly_raw(f, lt_f, g, lt_g, key):
    """The S-polynomial of two rows times the lcm of their leading
    coefficients, so its coefficients are integers."""
    guard = key.__self__.guard
    L = _lcm(lt_f, lt_g, guard)
    sf = L - lt_f
    sg = L - lt_g
    common = gcd(f[lt_f], g[lt_g])
    a_f = f[lt_f] // common
    a_g = g[lt_g] // common
    out = {e + sf: c * a_g for e, c in f.items()}
    for e, c in g.items():
        ee = e + sg
        s = out.get(ee)
        if s is None:
            out[ee] = -c * a_f
        else:
            s = s - c * a_f
            if s:
                out[ee] = s
            else:
                del out[ee]
    for e in out:
        if e & guard:
            raise _overflow(key.__self__.unpack(e))
    return out


def _update_pairs(lts, mono_flags, pairs, t, key):
    """Gebauer-Moeller update when generator index t joins the basis.

    `pairs` maps each pending pair (i, j) to the lcm of its leads; the
    pairs the new lead makes redundant are deleted from it, and the new
    pairs (i, t) are returned with their lcms.
    """
    guard = key.__self__.guard
    lt_t = lts[t]
    lcm_t = [_lcm(lt_i, lt_t, guard) for lt_i in lts[:t]]
    for (i, j), lij in list(pairs.items()):
        if not (lij - lt_t) & guard and lij != lcm_t[i] and lij != lcm_t[j]:
            del pairs[i, j]
    buckets: dict = {}
    for i, L in enumerate(lcm_t):
        buckets.setdefault(L, []).append(i)
    minimal = []
    for L in sorted(buckets, key=key):
        if all((L - M) & guard for M in minimal):
            minimal.append(L)
    new = []
    for L in minimal:
        bucket = buckets[L]
        if any(L == lts[i] + lt_t for i in bucket):
            continue  # coprime leading terms: S-poly reduces to zero
        i = bucket[0]  # the smallest index: buckets fill in index order
        if mono_flags[i] and mono_flags[t]:
            continue  # S-poly of two monomials is literally zero
        new.append(((i, t), L))
    return new


def _budget_check(G, deg):
    if deg > MAX_DEGREE:
        raise ResourceLimitError(
            f"leading degree {deg} exceeds budget {MAX_DEGREE}",
            stats={"basis_size": len(G), "degree": deg},
        )
    if len(G) + 1 > MAX_BASIS:
        raise ResourceLimitError(
            f"basis size {len(G) + 1} exceeds budget {MAX_BASIS}",
            stats={"basis_size": len(G) + 1},
        )


def _buchberger_raw(gens, key, *, modulus=0, known=0, bound=None):
    """Completion of rows (see `_normalise`) over QQ, or over GF(`modulus`):
    returns (rows, leads), the unique reduced basis as rows and their
    leading exponents, in descending order of leading terms.  Exponents
    are packed, and `key` is the `_memo_key` of the order.  Only the
    rows the run keeps are normalised.

    The first `known` vectors must be a reduced Groebner basis for the
    order: each pair among them already has a standard representation,
    so they form no pairs among themselves, only with later elements.

    Pairs are taken in increasing order of (key(lcm), (i, j)) from a
    heap; a pair the update deletes leaves its heap entry behind, which
    is skipped when it comes up.  G and lts only grow by appending, so
    every reduction of the run shares one divisor memo.

    `bound`, a series (P, d) as `hilbert_series` gives it, must be a
    lower bound on the Hilbert series of k[x] modulo the ideal, for
    homogeneous rows under an order that compares total degree first
    (`buchberger` checks both; see the module docstring).  At the first
    pair of each degree D the deficit HF(leads, D) - bound(D) is taken,
    each new lead lowers it by one, and at 0 the remaining pairs of
    degree D are dropped unreduced and uncounted in `spairs_reduced`.  A
    negative deficit means a bound above the true series:
    ConsistencyError.  HF(leads, D) is counted, not recomputed: the run
    keeps the set of degree-D monomials some lead divides, adds each new
    lead to it, and moves it up a degree by multiplying each member by
    each variable and adding the leads of the new degree.  The set is
    built from the leads once, at the run's first pair degree: under
    the precondition an S-pair's remainder has the pair's degree, and
    every pair it forms has at least that degree, so D never goes down.

    Every element counts against `MAX_BASIS`; the leads that S-pair
    reductions add also against `MAX_DEGREE`.
    """
    stats = ENGINE_STATS
    stats.buchberger_runs += 1
    unpack = key.__self__.unpack
    guard = key.__self__.guard
    G = []
    lts = []
    mono_flags = []
    pairs = {}
    queue = []
    divisors = {}

    def insert(r, paired=True, grown=False):
        lt = max(r, key=key)
        _budget_check(G, sum(unpack(lt)) if grown else 0)
        G.append(r)
        lts.append(lt)
        mono_flags.append(len(r) == 1)
        if paired:
            for pair, L in _update_pairs(lts, mono_flags, pairs, len(G) - 1, key):
                pairs[pair] = L
                heapq.heappush(queue, (key(L), pair))

    for d in gens[:known]:
        insert(d, paired=False)
    for d in gens[known:]:
        r = _reduce_raw(d, G, lts, key, divisors=divisors, modulus=modulus)
        if r:
            insert(_normalise(r, key, modulus))

    degree = deficit = None
    while queue:
        _, pair = heapq.heappop(queue)
        L = pairs.pop(pair, None)
        if L is None:
            continue  # deleted by a later update
        if bound is not None:
            D = sum(unpack(L))
            if D != degree:
                if degree is None:
                    nvars = len(unpack(L))
                    units = [1 << W * v for v in range(nvars)]
                    # `covered`: the monomials of degree `degree` that some lead
                    # divides; `tops`: the leads so far by degree (later ones
                    # join `covered` as they come)
                    tops = {}
                    for e in lts:
                        tops.setdefault(sum(unpack(e)), []).append(e)
                    degree, covered = min(tops) - 1, set()
                while degree < D:
                    degree += 1
                    covered = {e + u for e in covered for u in units}
                    covered.update(tops.get(degree, ()))
                deficit = (comb(D + nvars - 1, nvars - 1) - len(covered)
                           - hilbert_function(*bound, D))
                if deficit < 0:
                    raise ConsistencyError(f"Hilbert bound exceeds the leads' function in degree {D}")
            if not deficit:
                continue  # degree D is complete: the pair reduces to zero
        i, j = pair
        s = _spoly_raw(G[i], lts[i], G[j], lts[j], key)
        stats.spairs_reduced += 1
        r = _reduce_raw(s, G, lts, key, divisors=divisors, modulus=modulus)
        if r:
            insert(_normalise(r, key, modulus), grown=True)
            if deficit is not None:
                covered.add(lts[-1])
                deficit -= 1

    if len(G) > stats.max_basis_size:
        stats.max_basis_size = len(G)
    if lts:
        top = max(sum(unpack(e)) for e in lts)
        if top > stats.max_lt_degree:
            stats.max_lt_degree = top

    # minimalize: drop elements whose lead is divisible by another lead
    order_idx = sorted(range(len(G)), key=lambda i: key(lts[i]))
    keep = []
    for i in order_idx:
        if all((lts[i] - lts[j]) & guard for j in keep):
            keep.append(i)

    # interreduce in ascending lead order: a lead dividing a tail term of
    # a row is below the row's lead, so each row reduces against the rows
    # already reduced, which grow by appending and share a divisor memo.
    # No other lead divides the row's lead, so it stays the lead, and a
    # remainder with lead coefficient 1 is a normalised row already.
    rows, leads, divisors = [], [], {}
    for i in keep:
        r = _reduce_raw(G[i], rows, leads, key, divisors=divisors, modulus=modulus)
        if r[lts[i]] != 1:
            r = _normalise(r, key, modulus)
        rows.append(r)
        leads.append(lts[i])
    return tuple(reversed(rows)), tuple(reversed(leads))


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

_GB_CACHE: dict = {}
_GB_LOCK = threading.Lock()
_SERIES_MEMO: dict = {}  # hilbert_series by (sorted lead exponents, nvars)


def clear_caches():
    with _GB_LOCK:
        _GB_CACHE.clear()
        _SERIES_MEMO.clear()
    for memo in list(_KEY_MEMO.values()):
        memo.clear()  # live rings hold these memos too


def buchberger(I: Ideal, order: MonomialOrder | None = None, *, known: int = 0,
               bound=None) -> GroebnerBasis:
    """Reduced Groebner basis of I under the given order (the ring's by
    default), cached by ring, order and the generators as given.

    Every input generator is verified to reduce to zero against the
    result (ideal-membership sanity check).  Two expert arguments only
    save work (see `_buchberger_raw`): the first `known` generators of I
    are a reduced Groebner basis for the order, and `bound` is a lower
    bound on the Hilbert series of the quotient, which needs homogeneous
    generators and an order that compares total degree first.
    """
    order = order or I.ring.order
    ck = I.ring, order, I.generators
    with _GB_LOCK:
        hit = _GB_CACHE.get(ck)
    if hit is not None:
        return hit
    if bound is not None and (order not in (GREVLEX, TANGENT_CONE)
                              or not all(g.is_homogeneous for g in I.generators)):
        raise PreconditionError("a Hilbert bound needs homogeneous generators and a degree order")

    key = _memo_key(order, I.ring.nvars)
    m = I.ring.modulus
    gens = [_normalise(g.coeffs, key, m) for g in I.generators]
    rows, leads = _buchberger_raw(gens, key, modulus=m, known=known, bound=bound)
    divisors = {}
    for d in gens:
        if _reduce_raw(d, rows, leads, key, divisors=divisors, modulus=m):
            raise ConsistencyError("input generator fails membership in its own basis")
    gb = GroebnerBasis(I.ring, order, _monic(I.ring, rows, leads), rows, leads)

    with _GB_LOCK:
        _GB_CACHE[ck] = gb
    return gb


def _monic(ring, rows, leads):
    """The monic polynomials of a basis' rows, in `ring`."""
    if ring.modulus:
        return tuple(Polynomial(ring, r) for r in rows)
    return tuple(Polynomial(ring, {e: Fraction(c, r[lt]) for e, c in r.items()})
                 for r, lt in zip(rows, leads))


def normal_form(p: Polynomial, G: GroebnerBasis) -> Polynomial:
    """Remainder of p modulo G: no term is divisible by a basis lead.

    p is reduced against the monic polynomials of `G.basis`, so the
    remainder is exact in either field."""
    if p.ring != G.ring:
        raise RingMismatchError("polynomial and basis rings differ")
    key = _memo_key(G.order, G.ring.nvars)
    return Polynomial(p.ring, _reduce_raw(p.coeffs, [g.coeffs for g in G.basis], G.leads, key,
                                          modulus=G.ring.modulus))


def verify_basis(G: GroebnerBasis) -> bool:
    """Post-hoc Buchberger closure: all S-polynomials reduce to zero."""
    key = _memo_key(G.order, G.ring.nvars)
    m = G.ring.modulus
    rows, lts = G.rows, G.leads
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            s = _spoly_raw(rows[i], lts[i], rows[j], lts[j], key)
            if _reduce_raw(s, rows, lts, key, modulus=m):
                return False
    return True


def groebner_fingerprint(I: Ideal):
    """The reduced grevlex basis: two ideals of one ring are equal iff theirs are."""
    return buchberger(I, GREVLEX).basis


# -- one auxiliary variable t, eliminated first -----------------------------

_AUX = "@t"


def _extended_ring(ring: PolynomialRing) -> PolynomialRing:
    return PolynomialRing((_AUX,) + ring.variable_names, block_order(1), ring.modulus)


def _lift(p: Polynomial, ext: PolynomialRing) -> Polynomial:
    return Polynomial(ext, {e << W: c for e, c in p.coeffs.items()})


def eliminate(I: Ideal, keep_last: int) -> Ideal:
    """Generators of I intersected with the subring of the last variables."""
    n = I.ring.nvars
    if not 1 <= keep_last < n:
        raise PreconditionError(f"keep_last must be in [1, {n - 1}]")
    split = n - keep_last
    sub = PolynomialRing(I.ring.variable_names[split:], GREVLEX, I.ring.modulus)
    if I.is_zero:
        return Ideal(sub, ())
    return _eliminated(buchberger(I, block_order(split)), split, sub)


def _eliminated(gb: GroebnerBasis, split: int, ring: PolynomialRing) -> Ideal:
    """The elements of a basis for `block_order(split)` free of the first
    `split` variables, as an ideal of `ring` (the remaining variables).

    They are the reduced grevlex basis of that ideal, because the block
    order restricted to their monomials is grevlex.  That basis goes into
    the cache, so `buchberger(result, GREVLEX)` runs nothing.
    """
    shift = W * split
    free = [i for i, lt in enumerate(gb.leads) if not lt & ((1 << shift) - 1)]
    rows = tuple({e >> shift: c for e, c in gb.rows[i].items()} for i in free)
    leads = tuple(gb.leads[i] >> shift for i in free)
    return _basis_ideal(GroebnerBasis(ring, GREVLEX, _monic(ring, rows, leads), rows, leads))


def _basis_ideal(gb: GroebnerBasis) -> Ideal:
    """The ideal generated by a reduced grevlex basis, with `gb` cached as
    its own basis, so `buchberger(result, GREVLEX)` runs nothing."""
    result = Ideal(gb.ring, gb.basis)
    with _GB_LOCK:
        _GB_CACHE[gb.ring, GREVLEX, result.generators] = gb
    return result


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I cap J via the t/(1-t) trick in one auxiliary variable."""
    if I.ring != J.ring:
        raise RingMismatchError("intersection needs a shared ring")
    if I.is_zero or J.is_zero:
        return Ideal(I.ring, ())
    ext = _extended_ring(I.ring)
    t = ext.variable(0)
    gens = [t * _lift(f, ext) for f in I.generators]
    gens += [(ext.one() - t) * _lift(g, ext) for g in J.generators]
    return _eliminated(buchberger(Ideal(ext, gens)), 1, I.ring)


def saturate(I: Ideal, J: Ideal) -> Ideal:
    """(I : g^infinity) for a principal J = (g): removes the components
    of V(I) inside V(g), by one Rabinowitsch elimination of
    I + (t g - 1).

    For a homogeneous I it starts from I's reduced grevlex basis, still a
    Groebner basis for the block order, which is grevlex on t-free terms.

    To saturate by a non-principal ideal, pass the principal ideal of one
    generic element of it (see `segre`): the two saturations agree unless
    that element lies in one of finitely many proper subspaces.
    """
    if I.ring != J.ring:
        raise RingMismatchError("saturation needs a shared ring")
    if len(J.generators) > 1:
        raise PreconditionError("saturation needs a principal ideal")
    if J.is_zero:
        return Ideal(I.ring, (I.ring.one(),))
    (g,) = J.generators
    if I.is_zero or g.total_degree == 0:
        return I  # a unit saturator changes nothing
    if any(f.total_degree == 0 for f in I.generators):
        return Ideal(I.ring, (I.ring.one(),))  # so does any saturator of the unit ideal
    ext = _extended_ring(I.ring)
    known = ()
    if all(f.is_homogeneous for f in I.generators):
        known = buchberger(I, GREVLEX).basis
    gens = [_lift(f, ext) for f in known or I.generators]
    gens.append(ext.variable(0) * _lift(g, ext) - ext.one())
    return _eliminated(buchberger(Ideal(ext, gens), known=len(known)), 1, I.ring)


def _numerator(gens):
    """Numerator Q of the Hilbert series Q(z) / (1 - z)^n of k[x] modulo
    the monomial ideal with the given exponents, as a coefficient list.

    Bigatti's pivot recursion: for a variable x shared by several
    generators and e its least positive exponent among them,
    Q(L) = Q(L + (x^e)) + z^e Q(L : x^e).
    """
    gens = sorted(set(gens), key=sum)
    minimal = []
    for g in gens:
        if not any(mono_divides(h, g) for h in minimal):
            minimal.append(g)
    counts = [sum(1 for g in minimal if g[i]) for i in range(len(minimal[0]))]
    if all(c <= 1 for c in counts):
        out = [1]  # pairwise coprime: a product of (1 - z^deg g)
        for g in minimal:
            d = sum(g)
            shifted = [0] * d + [-c for c in out]
            out = [a + b for a, b in zip(out + [0] * d, shifted)]
        return out
    i = counts.index(max(counts))
    e = min(g[i] for g in minimal if g[i])
    pivot = tuple(e if j == i else 0 for j in range(len(counts)))
    plus = _numerator([g for g in minimal if not g[i]] + [pivot])
    colon = _numerator([tuple(max(a - b, 0) for a, b in zip(g, pivot)) for g in minimal])
    out = plus + [0] * max(0, e + len(colon) - len(plus))
    for k, c in enumerate(colon):
        out[e + k] += c
    return out


def hilbert_series(lead_exps, nvars):
    """(P, d) with Hilbert series P(z) / (1 - z)^d of k[x_1..x_nvars]
    modulo the monomial ideal of `lead_exps`, and P(1) != 0; P is a tuple.

    d is the Krull dimension of the quotient and P(1) its degree
    (Bayer-Stillman); the unit ideal gives ((), -1).  Answers are
    memoised by the sorted exponents and nvars until `clear_caches`.
    """
    mk = (tuple(sorted(map(tuple, lead_exps))), nvars)
    hit = _SERIES_MEMO.get(mk)
    if hit is not None:
        return hit
    P = _numerator(mk[0]) if mk[0] else [1]
    while P and not P[-1]:
        P.pop()
    d = nvars if P else -1
    while P and sum(P) == 0:
        # divide by (1 - z): the quotient's coefficients are prefix sums
        acc, quotient = 0, []
        for c in P[:-1]:
            acc += c
            quotient.append(acc)
        P, d = quotient, d - 1
    _SERIES_MEMO[mk] = out = (tuple(P), d)
    return out


def hilbert_function(P, d, D):
    """The coefficient of z^D in P(z) / (1 - z)^d for d >= 0, so the
    Hilbert function at D of a quotient with series (P, d); 0 for the
    unit ideal's ((), -1)."""
    if d <= 0:
        return P[D] if 0 <= D < len(P) else 0
    return sum(c * comb(D - j + d - 1, d - 1) for j, c in enumerate(P[:D + 1]))


def _global_series(I: Ideal, bound=None):
    """The Hilbert series of k[x]/in_grevlex(I); `bound`, a lower bound
    on it, may steer a completion that runs (see `_buchberger_raw`)."""
    if I.is_zero:
        return (1,), I.ring.nvars
    lead = buchberger(I, GREVLEX, bound=bound).leading_exponents()
    return hilbert_series(lead, I.ring.nvars)


def colength(I: Ideal):
    """Number of standard monomials, or INFINITE."""
    P, d = _global_series(I)
    return sum(P) if d <= 0 else INFINITE


def dimension(I: Ideal) -> int:
    """Krull dimension of V(I) in affine space; -1 for the unit ideal."""
    return _global_series(I)[1]
