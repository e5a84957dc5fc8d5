"""Input documents: a ring declaration, named ideal blocks, an optional
ambient block, an optional [surface] block and an [options] block.

    ring x, y, z;
    ambient = z;              # optional, defines the germ (X, 0)
    ideal I1 = z;
    ideal I2 = x*z, y*z, z^2;

    [surface]
    -2 1
    1 -2
    u = 1, 0
    v = 0, 1
    w = 1, 1
    c = 1, 0                  # optional strict-transform numbers

    [options]
    seed = 20260808
    bound = 997
    rounds = 2

One tokenizer reads the whole document; comments run from '#' to end
of line, and a line that begins with '[' is a section header.
Polynomials use +, -, *, ^ and rational literals like 1/2.  A section
number is [sign] digits, with "/" digits where a rational is allowed
(the u, v, w and c vectors); the commas between the numbers of a matrix
row or vector are optional.  0.5, 1e3 and 1_000 are refused, and every
syntax error carries line and column.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from operator import attrgetter

from .errors import InputSyntaxError
from .rings import Polynomial, PolynomialRing


@dataclass
class SurfaceBlock:
    matrix: tuple[tuple[int, ...], ...]
    u: tuple[Fraction, ...]
    v: tuple[Fraction, ...]
    w: tuple[Fraction, ...]
    c: tuple[Fraction, ...] | None = None


@dataclass
class InputDocument:
    ring: PolynomialRing | None = None
    ambient: tuple[Polynomial, ...] = ()
    ideals: dict = field(default_factory=dict)
    surface: SurfaceBlock | None = None
    options: dict = field(default_factory=dict)


# -- tokenizer ---------------------------------------------------------------

_SYMBOLS = set(",;=+-*^()/[]")


@dataclass(frozen=True)
class _Token:
    kind: str          # NAME | INT | SYM | EOF
    text: str
    line: int
    column: int


def _tokenize(text: str):
    tokens = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        text = raw.partition("#")[0]
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                tokens.append(_Token("NAME", text[i:j], line_no, i + 1))
                i = j
                continue
            if ch.isdecimal():
                j = i
                while j < len(text) and text[j].isdecimal():
                    j += 1
                tokens.append(_Token("INT", text[i:j], line_no, i + 1))
                i = j
                continue
            if ch in _SYMBOLS:
                tokens.append(_Token("SYM", ch, line_no, i + 1))
                i += 1
                continue
            raise InputSyntaxError(f"unexpected character {ch!r}", line_no, i + 1)
    return tokens


def _int(tok: _Token) -> int:
    """The value of an INT token; a literal with more digits than Python
    converts is a syntax error at its position."""
    try:
        return int(tok.text)
    except ValueError:
        raise InputSyntaxError(
            f"integer literal of {len(tok.text)} digits exceeds the limit of "
            f"{sys.get_int_max_str_digits()}", tok.line, tok.column) from None


class _TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        if self.tokens:
            last = self.tokens[-1]
            return _Token("EOF", "", last.line, last.column + len(last.text))
        return _Token("EOF", "", 1, 1)

    def next(self) -> _Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind, text=None) -> _Token:
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise InputSyntaxError(f"expected {want!r}, found {tok.text!r}", tok.line, tok.column)
        return tok

    def accept_sym(self, text) -> bool:
        tok = self.peek()
        if tok.kind == "SYM" and tok.text == text:
            self.pos += 1
            return True
        return False


def _number(stream, rational=False):
    """`[sign] INT`, or the Fraction `[sign] INT [/ INT]` where a rational
    is allowed.  Polynomial constants and every section read numbers here."""
    sign = -1 if stream.accept_sym("-") else 1
    if sign == 1:
        stream.accept_sym("+")
    value = sign * _int(stream.expect("INT"))
    if not (rational and stream.accept_sym("/")):
        return Fraction(value) if rational else value
    tok = stream.expect("INT")
    den = _int(tok)
    if den == 0:
        raise InputSyntaxError("zero denominator", tok.line, tok.column)
    return Fraction(value, den)


def _numbers(stream, rational=False):
    """`number {[,] number}` to the end of a line."""
    values = [_number(stream, rational)]
    while stream.peek().kind != "EOF":
        stream.accept_sym(",")
        values.append(_number(stream, rational))
    return tuple(values)


# -- polynomial expression parser ---------------------------------------------

class _PolyParser:
    def __init__(self, stream: _TokenStream, ring: PolynomialRing):
        self.s = stream
        self.ring = ring

    def parse(self) -> Polynomial:
        return self._sum()

    def _sum(self):
        sign = 1
        if self.s.accept_sym("-"):
            sign = -1
        else:
            self.s.accept_sym("+")
        total = self._term() * sign
        while True:
            if self.s.accept_sym("+"):
                total = total + self._term()
            elif self.s.accept_sym("-"):
                total = total - self._term()
            else:
                return total

    def _term(self):
        value = self._factor()
        while self.s.accept_sym("*"):
            value = value * self._factor()
        return value

    def _factor(self):
        base = self._atom()
        if self.s.accept_sym("^"):
            tok = self.s.expect("INT")
            return base ** _int(tok)
        return base

    def _atom(self):
        tok = self.s.peek()
        if tok.kind == "INT":
            return self.ring.constant(_number(self.s, rational=True))
        if tok.kind == "NAME":
            self.s.next()
            if tok.text not in self.ring.variable_names:
                raise InputSyntaxError(f"unknown variable {tok.text!r}", tok.line, tok.column)
            return self.ring.variable(tok.text)
        if tok.kind == "SYM" and tok.text == "(":
            self.s.next()
            inner = self._sum()
            close = self.s.next()
            if close.kind != "SYM" or close.text != ")":
                raise InputSyntaxError("expected ')'", close.line, close.column)
            return inner
        raise InputSyntaxError(f"expected a polynomial, found {tok.text!r}", tok.line, tok.column)


# -- document parser -----------------------------------------------------------

_KEYWORDS = {"ring", "ambient", "ideal"}
_OPTION_KEYS = {"seed", "bound", "rounds"}


def _parse_surface(lines, head) -> SurfaceBlock:
    matrix_rows, vectors, keys = [], {}, {}
    for line in lines:
        stream = _TokenStream(line)
        key = line[0]
        if key.kind != "NAME":
            matrix_rows.append(_numbers(stream))
            continue
        stream.next()
        if key.text not in {"u", "v", "w", "c"}:
            raise InputSyntaxError(f"unknown surface row {key.text!r}", key.line, key.column)
        if key.text in vectors:
            raise InputSyntaxError(f"duplicate surface row {key.text!r}", key.line, key.column)
        stream.expect("SYM", "=")
        keys[key.text] = key
        vectors[key.text] = _numbers(stream, rational=True)
    if not matrix_rows:
        raise InputSyntaxError("surface block has no matrix rows", head.line, head.column)
    r = len(matrix_rows)
    if any(len(row) != r for row in matrix_rows):
        raise InputSyntaxError("intersection matrix must be square", head.line, head.column)
    missing = {"u", "v", "w"} - set(vectors)
    if missing:
        raise InputSyntaxError(f"surface block lacks rows: {sorted(missing)}",
                               head.line, head.column)
    # u, v and w in the order given, then c
    for name, vec in sorted(vectors.items(), key=lambda item: item[0] == "c"):
        if len(vec) != r:
            raise InputSyntaxError(f"vector {name} has length {len(vec)}, expected {r}",
                                   keys[name].line, keys[name].column)
    return SurfaceBlock(tuple(matrix_rows), vectors["u"], vectors["v"], vectors["w"],
                        vectors.get("c"))


def _parse_options(lines) -> dict:
    options = {}
    for line in lines:
        stream = _TokenStream(line)
        while stream.peek().kind != "EOF":
            key = stream.next()
            if key.text not in _OPTION_KEYS:
                raise InputSyntaxError(f"unknown option {key.text!r}", key.line, key.column)
            if key.text in options:
                raise InputSyntaxError(f"duplicate option {key.text!r}", key.line, key.column)
            stream.expect("SYM", "=")
            options[key.text] = _number(stream)
            if stream.peek().kind != "EOF":
                stream.expect("SYM", ",")
    return options


def parse_input(text: str) -> InputDocument:
    """Parse a document; raises InputSyntaxError with position info."""
    main = lines = []
    sections = {}                  # name -> (header token, its token lines)
    for _, group in groupby(_tokenize(text), key=attrgetter("line")):
        line = list(group)
        head = line[0]
        if head.text != "[":
            lines.append(line)
            continue
        name = line[1].text.lower() if len(line) == 3 and line[2].text == "]" else ""
        if name not in {"surface", "options"}:
            raise InputSyntaxError(f"unknown section {''.join(tok.text for tok in line)}",
                                   head.line, head.column)
        if name in sections:
            raise InputSyntaxError(f"duplicate [{name}] block", head.line, head.column)
        lines = []
        sections[name] = head, lines

    doc = InputDocument()
    for name, (head, lines) in sections.items():
        if name == "surface":
            doc.surface = _parse_surface(lines, head)
        else:
            doc.options = _parse_options(lines)

    stream = _TokenStream([tok for line in main for tok in line])
    while stream.peek().kind != "EOF":
        tok = stream.peek()
        if tok.kind != "NAME" or tok.text not in _KEYWORDS:
            raise InputSyntaxError(f"expected a declaration, found {tok.text!r}",
                                   tok.line, tok.column)
        if tok.text == "ring":
            stream.next()
            if doc.ring is not None:
                raise InputSyntaxError("duplicate ring declaration", tok.line, tok.column)
            names = [stream.expect("NAME").text]
            while stream.accept_sym(","):
                names.append(stream.expect("NAME").text)
            stream.expect("SYM", ";")
            if len(set(names)) != len(names):
                raise InputSyntaxError("variable names must be unique", tok.line, tok.column)
            doc.ring = PolynomialRing(names)
            continue
        if doc.ring is None:
            raise InputSyntaxError("a ring declaration must come first",
                                   tok.line, tok.column)
        if tok.text == "ambient":
            stream.next()
            if doc.ambient:
                raise InputSyntaxError("duplicate ambient block", tok.line, tok.column)
            stream.expect("SYM", "=")
            doc.ambient = tuple(_parse_poly_list(stream, doc.ring))
            continue
        # ideal declaration
        stream.next()
        name_tok = stream.expect("NAME")
        if name_tok.text in doc.ideals:
            raise InputSyntaxError(f"duplicate ideal name {name_tok.text!r}",
                                   name_tok.line, name_tok.column)
        stream.expect("SYM", "=")
        doc.ideals[name_tok.text] = tuple(_parse_poly_list(stream, doc.ring))
    return doc


def _parse_poly_list(stream, ring):
    parser = _PolyParser(stream, ring)
    polys = [parser.parse()]
    while stream.accept_sym(","):
        polys.append(parser.parse())
    stream.expect("SYM", ";")
    return polys
