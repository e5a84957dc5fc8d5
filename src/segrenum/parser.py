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

Comments run from '#' to end of line.  Polynomials use +, -, *, ^ and
rational literals like 1/2; syntax errors carry line and column.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction

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

_SYMBOLS = set(",;=+-*^()/")


@dataclass(frozen=True)
class _Token:
    kind: str          # NAME | INT | SYM | EOF
    text: str
    line: int
    column: int


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def _tokenize(lines, start_line=1):
    tokens = []
    for offset, raw in enumerate(lines):
        line_no = start_line + offset
        text = _strip_comment(raw)
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
            self.s.next()
            num = _int(tok)
            if self.s.accept_sym("/"):
                den_tok = self.s.expect("INT")
                den = _int(den_tok)
                if den == 0:
                    raise InputSyntaxError("zero denominator", den_tok.line, den_tok.column)
                return self.ring.constant(Fraction(num, den))
            return self.ring.constant(num)
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


def _parse_rational(text: str, line_no: int) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputSyntaxError(f"bad rational {text.strip()!r}: {exc}", line_no)


def _parse_vector(text: str, line_no: int):
    return tuple(_parse_rational(part, line_no) for part in text.split(","))


def _content_lines(lines, start_line):
    """(line number, text) of each line that is not blank once its
    comment is stripped."""
    for line_no, raw in enumerate(lines, start=start_line):
        text = _strip_comment(raw).strip()
        if text:
            yield line_no, text


def _parse_surface(lines, start_line) -> SurfaceBlock:
    matrix_rows = []
    vectors = {}
    for line_no, text in _content_lines(lines, start_line):
        if "=" in text:
            key, _, rest = text.partition("=")
            key = key.strip()
            if key not in {"u", "v", "w", "c"}:
                raise InputSyntaxError(f"unknown surface row {key!r}", line_no)
            if key in vectors:
                raise InputSyntaxError(f"duplicate surface row {key!r}", line_no)
            vectors[key] = _parse_vector(rest, line_no)
        else:
            try:
                row = tuple(int(part) for part in text.replace(",", " ").split())
            except ValueError:
                raise InputSyntaxError(f"bad matrix row {text!r}", line_no)
            matrix_rows.append(row)
    if not matrix_rows:
        raise InputSyntaxError("surface block has no matrix rows", start_line)
    r = len(matrix_rows)
    if any(len(row) != r for row in matrix_rows):
        raise InputSyntaxError("intersection matrix must be square", start_line)
    missing = {"u", "v", "w"} - set(vectors)
    if missing:
        raise InputSyntaxError(f"surface block lacks rows: {sorted(missing)}", start_line)
    # u, v and w in the order given, then c
    for key, vec in sorted(vectors.items(), key=lambda item: item[0] == "c"):
        if len(vec) != r:
            raise InputSyntaxError(f"vector {key} has length {len(vec)}, expected {r}", start_line)
    return SurfaceBlock(tuple(matrix_rows), vectors["u"], vectors["v"], vectors["w"],
                        vectors.get("c"))


def _parse_options(lines, start_line) -> dict:
    options = {}
    for line_no, text in _content_lines(lines, start_line):
        for piece in text.split(","):
            piece = piece.strip()
            if not piece:
                continue
            key, eq, value = piece.partition("=")
            key = key.strip()
            if not eq or key not in _OPTION_KEYS:
                raise InputSyntaxError(f"unknown option {piece!r}", line_no)
            if key in options:
                raise InputSyntaxError(f"duplicate option {key!r}", line_no)
            try:
                options[key] = int(value.strip())
            except ValueError:
                raise InputSyntaxError(f"option {key} needs an integer", line_no)
    return options


def parse_input(text: str) -> InputDocument:
    """Parse a document; raises InputSyntaxError with position info."""
    lines = text.splitlines()
    sections = [("main", 1, [])]
    for idx, raw in enumerate(lines, start=1):
        stripped = _strip_comment(raw).strip()
        if stripped.startswith("["):
            name = stripped.strip("[]").strip().lower()
            if name not in {"surface", "options"}:
                raise InputSyntaxError(f"unknown section [{name}]", idx)
            sections.append((name, idx + 1, []))
        else:
            sections[-1][2].append(raw)

    doc = InputDocument()
    seen = set()
    for name, start, body in sections[1:]:
        if name in seen:
            raise InputSyntaxError(f"duplicate [{name}] block", start - 1)  # its header
        seen.add(name)
        if name == "surface":
            doc.surface = _parse_surface(body, start)
        else:
            doc.options = _parse_options(body, start)

    main = next(body for name, _, body in sections if name == "main")
    stream = _TokenStream(_tokenize(main))
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
