"""Exact sparse multivariate polynomials over the rationals or a prime field.

A ring's `modulus` names its coefficient field: 0 for QQ, where
coefficients are `fractions.Fraction` values (always reduced, positive
denominator), or a prime p for GF(p), where they are integer residues in
[0, p).  A polynomial is stored as a mapping from packed monomials (see
`W` below) to nonzero coefficients; `PolynomialRing.poly` packs exponent
tuples, and `terms` and `leading_item` hand them back.  The
ring context fixes the field, the variable names and the active monomial
order, which determines leading terms and the canonical text form.
"""

from __future__ import annotations

import operator
import struct
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import ResourceLimitError, RingMismatchError, ZeroPolynomialError


class OrderKind(Enum):
    GREVLEX = "grevlex"
    LEX = "lex"
    BLOCK = "block"
    TANGENT_CONE = "tangent-cone"


@dataclass(frozen=True)
class MonomialOrder:
    """A total monomial order compatible with multiplication.

    `block_split` is required for BLOCK orders: the first `block_split`
    variables form the eliminated block, compared (grevlex) before the
    remaining variables.
    """

    kind: OrderKind
    block_split: int | None = None

    def __post_init__(self):
        if self.kind is OrderKind.BLOCK:
            if self.block_split is None or self.block_split < 1:
                raise ValueError("block order requires a positive block_split")
        elif self.block_split is not None:
            raise ValueError("block_split only makes sense for block orders")

    def key_function(self, nvars):
        """Return key(exponents), a flat tuple of ints, such that key
        order == monomial order."""
        if self.kind is OrderKind.LEX:
            return lambda e: e
        if self.kind is OrderKind.GREVLEX:
            return _grevlex_key
        if self.kind is OrderKind.TANGENT_CONE:
            return _tangent_cone_key
        split = self.block_split
        if split >= nvars:
            raise ValueError("block_split must be smaller than the variable count")

        def block_key(e):
            return _grevlex_key(e[:split]) + _grevlex_key(e[split:])

        return block_key


def _grevlex_key(e):
    total = 0
    for x in e:
        total += x
    return (total, *(-x for x in reversed(e)))


def _tangent_cone_key(e):
    """Order on k[t, x] with t first: total degree, then the exponent of
    t, then grevlex on x.  On homogenized polynomials the leading term is
    the lowest-degree form's grevlex leader, so setting t = 1 in a basis
    gives a standard basis for the local degree order (Lazard)."""
    total = 0
    for x in e:
        total += x
    return (total, e[0], *(-x for x in reversed(e[1:])))


GREVLEX = MonomialOrder(OrderKind.GREVLEX)
TANGENT_CONE = MonomialOrder(OrderKind.TANGENT_CONE)
LEX = MonomialOrder(OrderKind.LEX)


def block_order(split):
    return MonomialOrder(OrderKind.BLOCK, split)


# -- raw monomial helpers (exponent tuples) --------------------------------

from operator import add as _add, le as _le, sub as _sub


def mono_mul(a, b):
    return tuple(map(_add, a, b))


def mono_divides(a, b):
    """True iff a | b."""
    return all(map(_le, a, b))


def mono_div(a, b):
    """a / b, assuming b | a."""
    return tuple(map(_sub, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


# -- packed monomials --------------------------------------------------------

# A monomial is one int: exponent i in bits [W i, W i + W), whose top bit
# is a guard, so exponents below 2^(W - 1) add without a carry into the
# next field.  Products and quotients are + and -; b | a iff
# (a - b) & guard is 0, since a field that borrows sets its guard bit; a
# new term with a guard bit set raises ResourceLimitError.  Each order's
# key of a packed monomial is one memoized int.
W = 16
MAX_EXPONENT = 2 ** (W - 1) - 1


def _overflow(exps):
    return ResourceLimitError(f"exponent {max(exps)} exceeds the limit {MAX_EXPONENT}")


class _KeyMemo(dict):
    """The keys of one order's packed monomials in n variables, each
    computed once: the order's `key_function` tuple read as the digits
    of one int, which sorts as the tuple does.  Its bound
    `__getitem__` is the key function, so a hit runs no Python frame.
    It also packs and unpacks monomials in n variables."""

    __slots__ = ("_base", "_struct", "guard")

    def __init__(self, order, n):
        super().__init__()
        self._base = order.key_function(n)
        self._struct = struct.Struct(f"<{n}H")
        self.guard = int.from_bytes(b"\0\x80" * n, "little")

    def __missing__(self, a):
        k = 0
        for d in self._base(self.unpack(a)):
            k = (k << 2 * W) + d  # |d| < n 2^(W - 1) <= 2^(2 W - 1)
        self[a] = k
        return k

    def pack(self, e):
        if max(e) > MAX_EXPONENT:
            raise _overflow(e)
        return int.from_bytes(self._struct.pack(*e), "little")

    def unpack(self, a):
        return self._struct.unpack(a.to_bytes(self._struct.size, "little"))


_KEY_MEMO: dict = {}


def _memo_key(order: MonomialOrder, nvars: int):
    """Memoized key function of an order; `key.__self__` packs."""
    ck = (order.kind, order.block_split, nvars)
    memo = _KEY_MEMO.get(ck)
    if memo is None:
        memo = _KEY_MEMO.setdefault(ck, _KeyMemo(order, nvars))
    return memo.__getitem__


class PolynomialRing:
    """Ring context: coefficient field, variable names and the active
    monomial order.  `modulus` is 0 for QQ or a prime p for GF(p); that it
    is prime is the caller's obligation."""

    __slots__ = ("variable_names", "order", "modulus", "_key", "_vars_index")

    def __init__(self, variable_names: Iterable[str], order: MonomialOrder = GREVLEX,
                 modulus: int = 0):
        names = tuple(variable_names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        if not names:
            raise ValueError("a ring needs at least one variable")
        if modulus < 0 or modulus == 1:
            raise ValueError("modulus must be 0 (the rationals) or a prime")
        self.variable_names = names
        self.order = order
        self.modulus = modulus
        self._key = _memo_key(order, len(names))
        self._vars_index = {n: i for i, n in enumerate(names)}

    @property
    def nvars(self):
        return len(self.variable_names)

    def over(self, modulus):
        """This ring with its coefficients in GF(modulus), or QQ for 0."""
        if modulus == self.modulus:
            return self
        return PolynomialRing(self.variable_names, self.order, modulus)

    def coerce(self, c):
        """c as a coefficient of this ring: a Fraction over QQ, its residue
        over GF(p) (ValueError when p divides its denominator)."""
        c = Fraction(c)
        m = self.modulus
        if not m:
            return c
        return c.numerator * pow(c.denominator, -1, m) % m

    def image(self, p: "Polynomial") -> "Polynomial":
        """The image in this ring of a polynomial over QQ in the same
        variables: each coefficient reduced into this ring's field."""
        if p.ring == self:
            return p
        if p.ring.modulus or p.ring.variable_names != self.variable_names:
            raise RingMismatchError(f"no map from {p.ring!r} to {self!r}")
        coerce = self.coerce
        out = {}
        for e, c in p.coeffs.items():
            c = coerce(c)
            if c:
                out[e] = c
        return Polynomial(self, out)

    def __eq__(self, other):
        return (
            isinstance(other, PolynomialRing)
            and self.variable_names == other.variable_names
            and self.order == other.order
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.variable_names, self.order, self.modulus))

    def __repr__(self):
        field = f"GF({self.modulus})" if self.modulus else "QQ"
        return f"{field}[{', '.join(self.variable_names)}; {self.order.kind.value}]"

    # -- construction -------------------------------------------------------

    def poly(self, coeffs: Mapping[tuple[int, ...], Fraction | int]):
        """The polynomial with the given {exponent tuple: coefficient}."""
        pack = self._key.__self__.pack
        clean = {}
        for exps, c in coeffs.items():
            c = Fraction(c)
            if c == 0:
                continue
            try:
                vector = tuple(map(operator.index, exps))
            except TypeError:
                vector = None
            if vector is None or len(vector) != self.nvars or any(x < 0 for x in vector):
                raise ValueError(f"bad exponent vector {exps} for {self!r}")
            e = pack(vector)
            clean[e] = clean.get(e, Fraction(0)) + c
        if self.modulus:
            clean = {e: self.coerce(c) for e, c in clean.items()}
        return Polynomial(self, {e: c for e, c in clean.items() if c != 0})

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, c):
        c = self.coerce(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, {0: c})

    def variable(self, name_or_index):
        if isinstance(name_or_index, str):
            if name_or_index not in self._vars_index:
                raise ValueError(f"unknown variable {name_or_index!r}")
            i = self._vars_index[name_or_index]
        else:
            i = name_or_index
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range")
        return Polynomial(self, {1 << W * i: self.coerce(1)})

    def variables(self):
        return [self.variable(i) for i in range(self.nvars)]

    # -- formatting ---------------------------------------------------------

    def format_monomial(self, exps):
        parts = []
        for name, e in zip(self.variable_names, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)


class Polynomial:
    """Immutable sparse polynomial: `coeffs` maps packed monomials to
    nonzero coefficients."""

    __slots__ = ("ring", "coeffs", "_hash", "_degrees")

    def __init__(self, ring: PolynomialRing, coeffs: dict):
        self.ring = ring
        self.coeffs = coeffs
        self._hash = None
        self._degrees = None

    # -- basic queries -------------------------------------------------------

    @property
    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    @property
    def total_degree(self):
        """Maximal total degree; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(self.degrees())

    def degrees(self):
        """The total degree of each term, in `coeffs` order; computed once,
        as a polynomial is immutable."""
        if self._degrees is None:
            unpack = self.ring._key.__self__.unpack
            self._degrees = tuple(sum(unpack(e)) for e in self.coeffs)
        return self._degrees

    @property
    def constant_term(self):
        return self.coeffs.get(0, Fraction(0))

    @property
    def is_homogeneous(self):
        return len(set(self.degrees())) <= 1

    def terms(self):
        """Terms as (coefficient, exponent tuple), descending in the ring's order."""
        key = self.ring._key
        return [
            (self.coeffs[e], key.__self__.unpack(e))
            for e in sorted(self.coeffs, key=key, reverse=True)
        ]

    def leading_item(self):
        """(exponent tuple, coefficient) of the maximal term."""
        if not self.coeffs:
            raise ZeroPolynomialError("zero polynomial has no leading term")
        key = self.ring._key
        e = max(self.coeffs, key=key)
        return key.__self__.unpack(e), self.coeffs[e]

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring!r} vs {other.ring!r}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        self._check(other)
        m = self.ring.modulus
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if m:
                    s %= m
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Polynomial(self.ring, out)

    def __neg__(self):
        m = self.ring.modulus
        return Polynomial(self.ring, {e: m - c if m else -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        return self + (-other)

    def __mul__(self, other):
        m = self.ring.modulus
        if not isinstance(other, Polynomial):
            c = self.ring.coerce(other)
            if c == 0:
                return self.ring.zero()
            if m:
                return Polynomial(self.ring, {e: k * c % m for e, k in self.coeffs.items()})
            return Polynomial(self.ring, {e: k * c for e, k in self.coeffs.items()})
        self._check(other)
        guard = self.ring._key.__self__.guard
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = out.get(e)
                if s is None:
                    if e & guard:
                        raise _overflow(self.ring._key.__self__.unpack(e))
                    out[e] = c1 * c2
                else:
                    s = s + c1 * c2
                    if s:
                        out[e] = s
                    else:
                        del out[e]
        if m:
            out = {e: c % m for e, c in out.items() if c % m}
        return Polynomial(self.ring, out)

    __rmul__ = __mul__
    __radd__ = __add__

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        # p^n has n times p's largest exponent of each variable
        unpack = self.ring._key.__self__.unpack
        top = n * max((max(unpack(e)) for e in self.coeffs), default=0)
        if top > MAX_EXPONENT:
            raise _overflow((top,))
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def derivative(self, var_index):
        m = self.ring.modulus
        shift = W * var_index
        unit = 1 << shift
        out = {}
        for e, c in self.coeffs.items():
            k = e >> shift & MAX_EXPONENT
            c = c * k % m if m else c * k
            if c:
                out[e - unit] = c
        return Polynomial(self.ring, out)

    # -- equality / hashing / printing ----------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.coeffs.items())))
        return self._hash

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"<{format_polynomial(self)}>"


def _decimal(value) -> str:
    """str(value) for an int or a Fraction; ResourceLimitError when it has
    more decimal digits than Python converts to text."""
    try:
        return str(value)
    except ValueError:
        raise ResourceLimitError(f"a number has more than {sys.get_int_max_str_digits()} "
                                 "decimal digits, the limit for printing it") from None


def format_polynomial(p: Polynomial) -> str:
    """Canonical text form: terms descending in the ring's order.

    Deterministic across runs; reparses to an equal polynomial.
    """
    if p.is_zero:
        return "0"
    parts = []
    for coeff, exps in p.terms():
        mono_s = p.ring.format_monomial(exps)
        mag = -coeff if coeff < 0 else coeff
        if not mono_s:
            body = _decimal(mag)
        elif mag == 1:
            body = mono_s
        else:
            body = f"{_decimal(mag)}*{mono_s}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)

