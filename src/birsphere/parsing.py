"""Parsers for the shared element grammar.

Polynomial literals use rationals ``a/b``, the imaginary unit ``i``, tower
generators ``sqrt(d)`` with ``d`` a positive rational literal, the variable
``z`` and the operators ``+ - * ^`` with parentheses, e.g.
``(1-1/2*i)*z^2 + sqrt(3)*z - 2``.  Matrices are two-row bracket literals
``[[p11, p12],[p21, p22]]`` over the same grammar, and diagonal ones may be
written ``diag(p, q)``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .poly import Poly
from .projmat import ProjMat
from .scalars import CoeffScalar, TowerReal

_TOKEN = re.compile(r"\s*(\d+|sqrt|[izZ+\-*/^(),\[\]])")


def _tokenize(text: str) -> list[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character at {text[pos:pos + 10]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}")

    def end(self) -> None:
        if self.peek() is not None:
            raise ParseError(f"trailing input from token {self.peek()!r}")

    # precedence climbing: sum -> product -> power -> atom
    def parse_sum(self) -> Poly:
        if self.peek() == "-":
            self.next()
            acc = -self.parse_product()
        else:
            acc = self.parse_product()
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.parse_product()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def parse_product(self) -> Poly:
        acc = self.parse_power()
        while True:
            tok = self.peek()
            if tok in ("*", "/"):
                self.next()
                rhs = self.parse_power()
                if tok == "*":
                    acc = acc * rhs
                else:
                    if not rhs:
                        raise ParseError("division by zero")
                    if rhs.degree != 0:
                        raise ParseError("division by a non-constant polynomial")
                    acc = acc.scale(rhs.lead().inverse())
            elif tok is not None and (tok.isdigit() or tok in ("i", "z", "Z", "sqrt", "(")):
                # implicit multiplication, e.g. "2z" or "3i"
                acc = acc * self.parse_power()
            else:
                return acc

    def parse_power(self) -> Poly:
        base = self.parse_atom()
        if self.peek() == "^":
            self.next()
            neg = False
            if self.peek() == "-":
                self.next()
                neg = True
            tok = self.next()
            if not tok.isdigit():
                raise ParseError(f"integer exponent expected, got {tok!r}")
            n = int(tok)
            if neg:
                if not base:
                    raise ParseError("division by zero")
                if base.degree != 0:
                    raise ParseError("negative powers of z are not polynomial")
                return Poly.const(base.lead().inverse() ** n)
            return base**n
        return base

    def parse_atom(self) -> Poly:
        tok = self.next()
        if tok == "(":
            inner = self.parse_sum()
            self.expect(")")
            return inner
        if tok == "-":
            return -self.parse_atom()
        if tok.isdigit():
            return Poly.const(Fraction(int(tok)))
        if tok == "i":
            return Poly.const(CoeffScalar.i())
        if tok in ("z", "Z"):
            return Poly.z()
        if tok == "sqrt":
            self.expect("(")
            arg = self.parse_sum()
            self.expect(")")
            if arg.degree != 0 or not arg.lead().is_rational():
                raise ParseError("sqrt takes a positive rational literal")
            q = arg.lead().as_rational()
            if q <= 0:
                raise ParseError("sqrt takes a positive rational literal")
            return Poly.const(CoeffScalar(TowerReal.sqrt_rational(q)))
        raise ParseError(f"unexpected token {tok!r}")


def parse_poly(text: str) -> Poly:
    parser = _Parser(_tokenize(text))
    out = parser.parse_sum()
    parser.end()
    return out


def parse_scalar(text: str) -> CoeffScalar:
    p = parse_poly(text)
    if p.degree > 0:
        raise ParseError(f"constant expected, got {text!r}")
    return p.lead() if p else CoeffScalar(0)


def parse_matrix(text: str) -> ProjMat:
    parser = _Parser(_tokenize(text))
    parser.expect("[")
    rows = []
    for k in range(2):
        parser.expect("[")
        row = [parser.parse_sum()]
        parser.expect(",")
        row.append(parser.parse_sum())
        parser.expect("]")
        rows.append(row)
        if k == 0:
            parser.expect(",")
    parser.expect("]")
    parser.end()
    return ProjMat.of(rows[0][0], rows[0][1], rows[1][0], rows[1][1])


def parse_diag(text: str) -> ProjMat:
    """diag(p, q) from the text after "diag": "(" sum "," sum ")"."""
    parser = _Parser(_tokenize(text))
    parser.expect("(")
    a = parser.parse_sum()
    if parser.peek() != ",":
        raise ParseError("diag(...) needs two comma-separated entries")
    parser.next()
    d = parser.parse_sum()
    parser.expect(")")
    parser.end()
    return ProjMat.diag(a, d)
