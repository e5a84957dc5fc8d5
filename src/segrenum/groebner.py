"""Groebner bases and the ideal toolbox: normal forms, elimination,
saturation, quotients, radical membership, and the Hilbert series of a
monomial ideal, which colength and dimension read.

Buchberger's algorithm with the Gebauer-Moeller pair update (the two
standard discarding criteria) and the normal selection strategy.  All
arithmetic is exact over the rationals.  Resource budgets (basis size,
total degree) turn runaway computations into reported failures.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    PreconditionError,
    ResourceLimitError,
    RingMismatchError,
    ConsistencyError,
)
from .rings import (
    GREVLEX,
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    block_order,
    format_polynomial,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


class _Infinite:
    """Distinguished 'infinite colength' value (not an error)."""

    __slots__ = ()

    def __repr__(self):
        return "infinite"


INFINITE = _Infinite()


@dataclass
class EngineConfig:
    """Resource budgets; exceeding them raises ResourceLimitError."""

    max_basis: int = 5000
    max_degree: int = 120


DEFAULT_ENGINE_CONFIG = EngineConfig()


class EngineStats:
    """Deterministic per-run counters (no wall-clock)."""

    __slots__ = ("buchberger_runs", "spairs_reduced", "max_basis_size", "max_lt_degree")

    def __init__(self):
        self.reset()

    def reset(self):
        self.buchberger_runs = 0
        self.spairs_reduced = 0
        self.max_basis_size = 0
        self.max_lt_degree = 0

    def snapshot(self):
        return {
            "buchberger_runs": self.buchberger_runs,
            "spairs_reduced": self.spairs_reduced,
            "max_basis_size": self.max_basis_size,
            "max_lt_degree": self.max_lt_degree,
        }


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
    prods = []
    seen = set()
    for f in a.generators:
        for g in b.generators:
            p = f * g
            key = frozenset(p.coeffs.items())
            if key not in seen:
                seen.add(key)
                prods.append(p)
    return Ideal(a.ring, prods)


def ideal_power(a: Ideal, n: int) -> Ideal:
    if n < 1:
        raise ValueError("ideal powers start at 1")
    out = a
    for _ in range(n - 1):
        out = ideal_product(out, a)
    return out


@dataclass(frozen=True)
class GroebnerBasis:
    ring: PolynomialRing
    order: MonomialOrder
    basis: tuple[Polynomial, ...]
    reduced: bool = True

    @property
    def is_unit(self):
        return len(self.basis) == 1 and self.basis[0].total_degree == 0

    def leading_exponents(self):
        key = self.ring.monomial_key(self.order)
        return [max(g.coeffs, key=key) for g in self.basis]


# ---------------------------------------------------------------------------
# raw machinery: polynomials as {exponent tuple: Fraction}
# ---------------------------------------------------------------------------

_KEY_MEMO: dict = {}


def _memo_key(order: MonomialOrder, nvars: int):
    """Monomial key function with a per-order memo of computed keys."""
    base = order.key_function(nvars)
    memo = _KEY_MEMO.setdefault((order.kind, order.block_split, nvars), {})

    def key(e):
        k = memo.get(e)
        if k is None:
            k = base(e)
            memo[e] = k
        return k

    key.negkey = _memo_negkey(order, nvars)
    return key


def _negate_key(k):
    if isinstance(k, tuple):
        return tuple(_negate_key(x) for x in k)
    return -k


def _memo_negkey(order: MonomialOrder, nvars: int):
    """Negated order key (for min-heaps acting as max-heaps)."""
    base = order.key_function(nvars)
    memo = _KEY_MEMO.setdefault(("neg", order.kind, order.block_split, nvars), {})

    def negkey(e):
        k = memo.get(e)
        if k is None:
            k = _negate_key(base(e))
            memo[e] = k
        return k

    return negkey


def _primitive_int(d, key):
    """Integer coefficient vector, content 1, positive leading entry.

    The completion loop works fraction-free: every intermediate result
    equals the exact one up to a positive rational scalar, which the
    final monic normalization removes.
    """
    if not d:
        return {}
    denom = 1
    for c in d.values():
        denom = lcm(denom, Fraction(c).denominator)
    ints = {e: int(c * denom) for e, c in ((e, Fraction(c)) for e, c in d.items())}
    content = 0
    for c in ints.values():
        content = gcd(content, c)
    if ints[max(ints, key=key)] < 0:
        content = -content
    return {e: c // content for e, c in ints.items()}


def _strip_content(d, key):
    content = 0
    for c in d.values():
        content = gcd(content, c)
        if content == 1:
            break
    if d and d[max(d, key=key)] < 0:
        content = -content
    if content not in (0, 1):
        return {e: c // content for e, c in d.items()}
    return d


def _reduce_raw(p, basis, lts, key, track_multiplier=False):
    """Full pseudo-normal-form of p against an integer raw basis.

    The result is the exact normal form times a positive integer; with
    `track_multiplier` the scalar is returned so callers can undo it.
    """
    from operator import add as _add, le as _le

    work = dict(p)
    remainder = {}
    multiplier = 1
    nb = len(basis)
    negkey = key.negkey
    heap = [(negkey(e), e) for e in work]
    heapq.heapify(heap)
    while work:
        _, e = heapq.heappop(heap)
        if e not in work:
            continue  # lazily dropped entry
        c = work.pop(e)
        hit = -1
        for i in range(nb):
            if all(map(_le, lts[i], e)):
                hit = i
                break
        if hit < 0:
            remainder[e] = c
            continue
        g = basis[hit]
        if len(g) == 1:
            continue  # monomial divisor cancels the term exactly
        shift = mono_div(e, lts[hit])
        a = g[lts[hit]]
        if a != 1:
            common = gcd(a, c)
            scale = a // common
            c = c // common
            if scale != 1:
                multiplier *= scale
                for er in remainder:
                    remainder[er] *= scale
                for ew in work:
                    work[ew] *= scale
        lt_hit = lts[hit]
        get = work.get
        for eg, cg in g.items():
            if eg == lt_hit:
                continue
            ee = tuple(map(_add, eg, shift))
            s = get(ee)
            if s is None:
                work[ee] = -c * cg
                heapq.heappush(heap, (negkey(ee), ee))
            else:
                s = s - c * cg
                if s:
                    work[ee] = s
                else:
                    del work[ee]
    if track_multiplier:
        return remainder, multiplier
    return _strip_content(remainder, key) if remainder else remainder


def _spoly_raw(f, lt_f, g, lt_g, key):
    lcm = mono_lcm(lt_f, lt_g)
    sf = mono_div(lcm, lt_f)
    sg = mono_div(lcm, lt_g)
    a_f = f[lt_f]
    a_g = g[lt_g]
    out = {}
    for e, c in f.items():
        out[mono_mul(e, sf)] = c * a_g
    for e, c in g.items():
        ee = mono_mul(e, sg)
        s = out.get(ee)
        if s is None:
            out[ee] = -c * a_f
        else:
            s = s - c * a_f
            if s:
                out[ee] = s
            else:
                del out[ee]
    return _strip_content(out, key) if out else out


def _update_pairs(G, lts, mono_flags, pairs, t, key):
    """Gebauer-Moeller update when generator index t joins the basis."""
    lt_t = lts[t]
    kept = set()
    for (i, j) in pairs:
        lij = mono_lcm(lts[i], lts[j])
        if (
            not mono_divides(lt_t, lij)
            or lij == mono_lcm(lts[i], lt_t)
            or lij == mono_lcm(lts[j], lt_t)
        ):
            kept.add((i, j))
    buckets: dict = {}
    for i in range(t):
        buckets.setdefault(mono_lcm(lts[i], lt_t), []).append(i)
    minimal = []
    for L in sorted(buckets, key=key):
        if not any(mono_divides(M, L) for M in minimal):
            minimal.append(L)
    for L in minimal:
        bucket = buckets[L]
        if any(L == mono_mul(lts[i], lt_t) for i in bucket):
            continue  # coprime leading terms: S-poly reduces to zero
        i = min(bucket)
        if mono_flags[i] and mono_flags[t]:
            continue  # S-poly of two monomials is literally zero
        kept.add((i, t))
    return kept


def _budget_check(G, lt, config):
    deg = mono_degree(lt)
    if deg > config.max_degree:
        raise ResourceLimitError(
            f"leading degree {deg} exceeds budget {config.max_degree}",
            stats={"basis_size": len(G), "degree": deg},
        )
    if len(G) + 1 > config.max_basis:
        raise ResourceLimitError(
            f"basis size {len(G) + 1} exceeds budget {config.max_basis}",
            stats={"basis_size": len(G) + 1},
        )


def _buchberger_raw(raw_gens, key, config):
    """Completion over primitive integer vectors; returns the unique
    reduced basis as monic Fraction dicts."""
    stats = ENGINE_STATS
    stats.buchberger_runs += 1
    G = []
    lts = []
    mono_flags = []
    pairs = set()

    def insert(r):
        lt = max(r, key=key)
        _budget_check(G, lt, config)
        G.append(r)
        lts.append(lt)
        mono_flags.append(len(r) == 1)
        return _update_pairs(G, lts, mono_flags, pairs, len(G) - 1, key)

    for d in raw_gens:
        d = _primitive_int(d, key)
        if not d:
            continue
        r = _reduce_raw(d, G, lts, key) if G else d
        if r:
            pairs = insert(r)

    while pairs:
        pair = min(pairs, key=lambda ij: (key(mono_lcm(lts[ij[0]], lts[ij[1]])), ij))
        pairs.discard(pair)
        i, j = pair
        s = _spoly_raw(G[i], lts[i], G[j], lts[j], key)
        stats.spairs_reduced += 1
        r = _reduce_raw(s, G, lts, key)
        if r:
            pairs = insert(r)

    if len(G) > stats.max_basis_size:
        stats.max_basis_size = len(G)
    if lts:
        top = max(mono_degree(e) for e in lts)
        if top > stats.max_lt_degree:
            stats.max_lt_degree = top

    # minimalize: drop elements whose lead is divisible by another lead
    order_idx = sorted(range(len(G)), key=lambda i: key(lts[i]))
    keep = []
    for i in order_idx:
        if not any(mono_divides(lts[j], lts[i]) for j in keep):
            keep.append(i)
    G_min = [G[i] for i in keep]
    lts_min = [lts[i] for i in keep]

    # interreduce and normalize: the unique reduced basis is monic
    reduced = []
    for i in range(len(G_min)):
        others = G_min[:i] + G_min[i + 1:]
        olts = lts_min[:i] + lts_min[i + 1:]
        r = _reduce_raw(G_min[i], others, olts, key)
        lead = r[max(r, key=key)]
        reduced.append({e: Fraction(c, lead) for e, c in r.items()})
    reduced.sort(key=lambda d: key(max(d, key=key)), reverse=True)
    return reduced


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

_GB_CACHE: dict = {}
_GB_LOCK = threading.Lock()


def clear_caches():
    with _GB_LOCK:
        _GB_CACHE.clear()
    _KEY_MEMO.clear()


def _cache_key(I: Ideal, order: MonomialOrder, config: EngineConfig):
    gens = tuple(sorted(format_polynomial(g, GREVLEX) for g in I.generators))
    return (I.ring.variable_names, order.kind, order.block_split,
            config.max_basis, config.max_degree, gens)


def buchberger(I: Ideal, order: MonomialOrder | None = None,
               config: EngineConfig | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of I under the given order.

    Every input generator is verified to reduce to zero against the
    result (ideal-membership sanity check).
    """
    order = order or I.ring.order
    config = config or DEFAULT_ENGINE_CONFIG
    ck = _cache_key(I, order, config)
    with _GB_LOCK:
        hit = _GB_CACHE.get(ck)
    if hit is not None:
        return hit

    key = _memo_key(order, I.ring.nvars)
    raw = _buchberger_raw([dict(g.coeffs) for g in I.generators], key, config)
    basis = tuple(Polynomial(I.ring, d) for d in raw)
    gb = GroebnerBasis(I.ring, order, basis, reduced=True)

    ints = [_primitive_int(d, key) for d in raw]
    lts = [max(d, key=key) for d in ints]
    for g in I.generators:
        if _reduce_raw(_primitive_int(g.coeffs, key), ints, lts, key):
            raise ConsistencyError("input generator fails membership in its own basis")

    with _GB_LOCK:
        _GB_CACHE[ck] = gb
    return gb


def normal_form(p: Polynomial, G: GroebnerBasis) -> Polynomial:
    """Remainder of p modulo G: no term is divisible by a basis lead."""
    if p.ring != G.ring:
        raise RingMismatchError("polynomial and basis rings differ")
    if p.is_zero or not G.basis:
        return p
    key = _memo_key(G.order, G.ring.nvars)
    ints = [_primitive_int(g.coeffs, key) for g in G.basis]
    lts = [max(d, key=key) for d in ints]
    denom = 1
    for c in p.coeffs.values():
        denom = lcm(denom, c.denominator)
    scaled = {e: int(c * denom) for e, c in p.coeffs.items()}
    remainder, multiplier = _reduce_raw(scaled, ints, lts, key, track_multiplier=True)
    scale = multiplier * denom
    return Polynomial(p.ring, {e: Fraction(c, scale) for e, c in remainder.items()})


def is_unit_ideal(I: Ideal) -> bool:
    if I.is_zero:
        return False
    if any(g.total_degree == 0 for g in I.generators):
        return True
    return buchberger(I).is_unit


def verify_basis(G: GroebnerBasis) -> bool:
    """Post-hoc Buchberger closure: all S-polynomials reduce to zero."""
    key = _memo_key(G.order, G.ring.nvars)
    raw = [_primitive_int(g.coeffs, key) for g in G.basis]
    lts = [max(d, key=key) for d in raw]
    for i in range(len(raw)):
        for j in range(i + 1, len(raw)):
            s = _spoly_raw(raw[i], lts[i], raw[j], lts[j], key)
            if _reduce_raw(s, raw, lts, key):
                return False
    return True


def groebner_fingerprint(I: Ideal):
    gb = buchberger(I, GREVLEX)
    return tuple(format_polynomial(g, GREVLEX) for g in gb.basis)


# -- one auxiliary variable t, eliminated first -----------------------------

_AUX = "@t"


def _extended_ring(ring: PolynomialRing) -> PolynomialRing:
    return PolynomialRing((_AUX,) + ring.variable_names, block_order(1))


def _lift(p: Polynomial, ext: PolynomialRing) -> Polynomial:
    return Polynomial(ext, {(0,) + e: c for e, c in p.coeffs.items()})


def eliminate(I: Ideal, keep_last: int) -> Ideal:
    """Generators of I intersected with the subring of the last variables."""
    n = I.ring.nvars
    if not 1 <= keep_last < n:
        raise PreconditionError(f"keep_last must be in [1, {n - 1}]")
    split = n - keep_last
    sub = PolynomialRing(I.ring.variable_names[split:], GREVLEX)
    if I.is_zero:
        return Ideal(sub, ())
    work_ring = I.ring.with_order(block_order(split))
    work = Ideal(work_ring, [Polynomial(work_ring, dict(g.coeffs)) for g in I.generators])
    gb = buchberger(work, work_ring.order)
    kept = []
    for g in gb.basis:
        if all(not any(e[:split]) for e in g.coeffs):
            kept.append(Polynomial(sub, {e[split:]: c for e, c in g.coeffs.items()}))
    return Ideal(sub, kept)


def _eliminate_aux(gens, ext: PolynomialRing, ring: PolynomialRing) -> Ideal:
    """The ideal of `gens` in ext = ring[t], intersected with ring."""
    gb = buchberger(Ideal(ext, gens), ext.order)
    return Ideal(ring, [Polynomial(ring, {e[1:]: c for e, c in g.coeffs.items()})
                        for g in gb.basis if not any(e[0] for e in g.coeffs)])


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
    return _eliminate_aux(gens, ext, I.ring)


def saturate(I: Ideal, J: Ideal) -> Ideal:
    """(I : g^infinity) for a principal J = (g): removes the components
    of V(I) inside V(g), by one Rabinowitsch elimination of
    I + (t g - 1).

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
    ext = _extended_ring(I.ring)
    gens = [_lift(f, ext) for f in I.generators]
    gens.append(ext.variable(0) * _lift(g, ext) - ext.one())
    return _eliminate_aux(gens, ext, I.ring)


def exact_divide(p: Polynomial, g: Polynomial) -> Polynomial:
    """p / g when g divides p exactly; raises otherwise."""
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    key = _memo_key(p.ring.order, p.ring.nvars)
    lt_g, c_g = g.leading_item()
    work = dict(p.coeffs)
    quot = {}
    while work:
        e = max(work, key=key)
        c = work.pop(e)
        if not mono_divides(lt_g, e):
            raise PreconditionError("polynomial is not exactly divisible")
        shift = mono_div(e, lt_g)
        factor = c / c_g
        quot[shift] = factor
        for eg, cg in g.coeffs.items():
            if eg == lt_g:
                continue
            ee = mono_mul(eg, shift)
            s = work.get(ee, Fraction(0)) - factor * cg
            if s:
                work[ee] = s
            else:
                work.pop(ee, None)
    return Polynomial(p.ring, quot)


def ideal_quotient(I: Ideal, J: Ideal) -> Ideal:
    """(I : J), exactly."""
    if I.ring != J.ring:
        raise RingMismatchError("quotient needs a shared ring")
    if J.is_zero:
        return Ideal(I.ring, (I.ring.one(),))
    result = None
    for g in J.generators:
        if g.total_degree == 0:
            part = I
        else:
            meet = intersect(I, Ideal(I.ring, (g,)))
            part = Ideal(I.ring, [exact_divide(f, g) for f in meet.generators])
        result = part if result is None else intersect(result, part)
    return result


def radical_membership(p: Polynomial, I: Ideal) -> bool:
    """True iff p vanishes on V(I): I : p^infinity is the unit ideal."""
    if p.ring != I.ring:
        raise RingMismatchError("radical membership needs a shared ring")
    if p.is_zero:
        return True
    return is_unit_ideal(saturate(I, Ideal(I.ring, (p,))))


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
            d = mono_degree(g)
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
    modulo the monomial ideal of `lead_exps`, and P(1) != 0.

    d is the Krull dimension of the quotient and P(1) its degree
    (Bayer-Stillman); the unit ideal gives ([], -1).
    """
    P = _numerator(list(lead_exps)) if lead_exps else [1]
    while P and not P[-1]:
        P.pop()
    if not P:
        return [], -1
    d = nvars
    while sum(P) == 0:
        # divide by (1 - z): the quotient's coefficients are prefix sums
        acc, quotient = 0, []
        for c in P[:-1]:
            acc += c
            quotient.append(acc)
        P, d = quotient, d - 1
    return P, d


def _global_series(I: Ideal, config: EngineConfig | None):
    if I.is_zero:
        return [1], I.ring.nvars
    lead = buchberger(I, GREVLEX, config).leading_exponents()
    return hilbert_series(lead, I.ring.nvars)


def colength(I: Ideal, config: EngineConfig | None = None):
    """Number of standard monomials, or INFINITE."""
    P, d = _global_series(I, config)
    return sum(P) if d <= 0 else INFINITE


def dimension(I: Ideal, config: EngineConfig | None = None) -> int:
    """Krull dimension of V(I) in affine space; -1 for the unit ideal."""
    return _global_series(I, config)[1]
