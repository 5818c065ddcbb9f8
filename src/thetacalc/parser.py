"""Recursive-descent parser for the bracket specification DSL.

Grammar (whitespace-insensitive, '#' starts a line comment):

    file    := 'order' '=' INT ';' body
    body    := 'delta' '{' dentry* '}' | 'theta' '{' tentry* '}'
    dentry  := 'A' '[' INT ';' INT ',' INT ']' '=' expr ';'
    tentry  := 'density' '[' INT ']' '=' expr ';'
    expr    := term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := '-'* primary ('^' INT)?
    primary := INT ('/' INT)? | 'u' ('[' INT ',' INT ']')?
             | 'th' '[' INT ',' INT ']' | '(' expr ')'

'u' alone is the underived field variable.  Theta factors raised to a
power of two or more are rejected; operator coefficients must be
theta-free and homogeneous of the degree dictated by their indices.
Parentheses nest at most MAX_NESTING deep.  Errors carry the source
position.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import DiffPoly
from .deltaform import DeltaForm, delta_to_theta
from .errors import DegreeMismatch, OddPower, ParseError
from .schouten import BracketSeries
from .variational import Functional


class BracketSpecFile(NamedTuple):
    order: int
    kind: str  # 'delta' or 'theta'
    delta: DeltaForm | None = None
    densities: dict | None = None  # degree -> DiffPoly

    def to_series(self) -> BracketSeries:
        if self.kind == "delta":
            return delta_to_theta(self.delta, self.order)
        return BracketSeries(
            self.order, {d: Functional(p) for d, p in self.densities.items()}
        )


# parenthesized expressions parse recursively, four frames per level, so
# the depth is bounded well below Python's recursion limit
MAX_NESTING = 100

_PUNCT = set("={}[]();,^*+-/")
# str.isdigit also accepts non-ASCII digits such as '²', which int()
# rejects, and '١', which it reads as 1
_DIGITS = set("0123456789")


class _Token(NamedTuple):
    kind: str  # 'int', 'name', a punctuation char, or 'eof'
    value: object
    line: int
    col: int


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in _DIGITS:
            start = i
            startcol = col
            while i < n and text[i] in _DIGITS:
                i += 1
                col += 1
            tokens.append(_Token("int", int(text[start:i]), line, startcol))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            startcol = col
            while i < n and (text[i].isalpha() or text[i] in _DIGITS or text[i] == "_"):
                i += 1
                col += 1
            tokens.append(_Token("name", text[start:i], line, startcol))
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", None, line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, value=None) -> _Token:
        tok = self.next()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, got {tok.value!r}", tok.line, tok.col)
        return tok

    def fail(self, msg, tok=None):
        tok = tok or self.peek()
        raise ParseError(msg, tok.line, tok.col)

    # -- expressions ---------------------------------------------------

    def parse_expr(self) -> DiffPoly:
        acc = self.parse_term()
        while self.peek().kind in "+-":
            op = self.next().kind
            rhs = self.parse_term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def parse_term(self) -> DiffPoly:
        acc = self.parse_factor()
        while self.peek().kind == "*":
            self.next()
            acc = acc * self.parse_factor()
        return acc

    def parse_factor(self) -> DiffPoly:
        negate = False
        while self.peek().kind == "-":
            self.next()
            negate = not negate
        base_tok = self.peek()
        base, is_theta = self.parse_primary()
        if self.peek().kind == "^":
            self.next()
            etok = self.expect("int")
            n = etok.value
            if is_theta and n > 1:
                raise OddPower(
                    "theta factors square to zero; powers above one are rejected",
                    base_tok.line,
                    base_tok.col,
                )
            base = base ** n
        return -base if negate else base

    def parse_primary(self):
        tok = self.next()
        if tok.kind == "int":
            num = tok.value
            if self.peek().kind == "/":
                self.next()
                den = self.expect("int")
                if den.value == 0:
                    self.fail("zero denominator", den)
                return DiffPoly.rational(num, den.value), False
            return DiffPoly.rational(num), False
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                self.fail(f"parentheses nested deeper than {MAX_NESTING}", tok)
            self.depth += 1
            inner = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return inner, False
        if tok.kind == "name" and tok.value == "u":
            if self.peek().kind == "[":
                s, t = self.parse_index_pair()
                return DiffPoly.u(s, t), False
            return DiffPoly.u(), False
        if tok.kind == "name" and tok.value == "th":
            s, t = self.parse_index_pair()
            return DiffPoly.theta(s, t), True
        raise ParseError(f"expected a factor, got {tok.value!r}", tok.line, tok.col)

    def parse_index_pair(self):
        self.expect("[")
        s = self.expect("int").value
        self.expect(",")
        t = self.expect("int").value
        self.expect("]")
        return s, t

    # -- file ----------------------------------------------------------

    def parse_file(self) -> BracketSpecFile:
        tok = self.expect("name")
        if tok.value != "order":
            self.fail("file must start with 'order = K;'", tok)
        self.expect("=")
        ktok = self.expect("int")
        order = ktok.value
        if order < 1:
            raise ParseError("order must be at least 1", ktok.line, ktok.col)
        self.expect(";")
        body = self.expect("name")
        if body.value == "delta":
            spec = self.parse_delta_body(order)
        elif body.value == "theta":
            spec = self.parse_theta_body(order)
        else:
            self.fail("body must be 'delta { ... }' or 'theta { ... }'", body)
        self.expect("eof")
        return spec

    def parse_delta_body(self, order: int) -> BracketSpecFile:
        self.expect("{")
        delta = DeltaForm()
        seen = set()  # a zero entry is read but never stored
        while self.peek().kind != "}":
            atok = self.expect("name")
            if atok.value != "A":
                self.fail("delta entries look like A[k; k1,k2] = ...;", atok)
            self.expect("[")
            k = self.expect("int").value
            self.expect(";")
            k1 = self.expect("int").value
            self.expect(",")
            k2 = self.expect("int").value
            self.expect("]")
            self.expect("=")
            poly = self.parse_expr()
            self.expect(";")
            if (k, k1, k2) in seen:
                raise ParseError(
                    f"duplicate entry A[{k};{k1},{k2}]", atok.line, atok.col
                )
            seen.add((k, k1, k2))
            if k > order:
                raise ParseError(
                    f"A[{k};...] lies beyond the truncation order {order}",
                    atok.line,
                    atok.col,
                )
            try:
                delta.set_coefficient(k, k1, k2, poly)
            except DegreeMismatch as exc:
                raise DegreeMismatch(str(exc), atok.line, atok.col) from None
        self.expect("}")
        return BracketSpecFile(order, "delta", delta=delta)

    def parse_theta_body(self, order: int) -> BracketSpecFile:
        self.expect("{")
        densities = {}
        seen = set()  # a zero entry is read but never stored
        while self.peek().kind != "}":
            dtok = self.expect("name")
            if dtok.value != "density":
                self.fail("theta entries look like density[d] = ...;", dtok)
            self.expect("[")
            d = self.expect("int").value
            self.expect("]")
            self.expect("=")
            poly = self.parse_expr()
            self.expect(";")
            if d in seen:
                raise ParseError(f"duplicate entry density[{d}]", dtok.line, dtok.col)
            seen.add(d)
            if d < 1 or d > order + 1:
                raise ParseError(
                    f"density degree {d} outside 1..{order + 1}", dtok.line, dtok.col
                )
            if poly.is_zero():
                continue
            if poly.super_degree() != 2:
                raise DegreeMismatch(
                    f"density[{d}] must have exactly two theta factors per term",
                    dtok.line,
                    dtok.col,
                )
            if poly.standard_degree() != d:
                raise DegreeMismatch(
                    f"density[{d}] must be homogeneous of standard degree {d}",
                    dtok.line,
                    dtok.col,
                )
            densities[d] = poly
        self.expect("}")
        return BracketSpecFile(order, "theta", densities=densities)


def parse(text: str) -> BracketSpecFile:
    """Parse a bracket specification; positions are reported on error."""
    return _Parser(text).parse_file()
