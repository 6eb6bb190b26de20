"""Tiny expression evaluator for CLI literals.

Accepts the canonical output grammar (digit sums with O(p^m) tails, the
parenthesized two-component Q_p(i) form) as well as plain arithmetic:
integers, i, + - * / ^, unary minus, sqrt(...), parentheses.  Everything
evaluates as a QpiElement; real results keep an exact-zero imaginary part.
"""

import re

from .errors import DomainError, ParseError
from .padic import PadicNumber, from_int
from .padic import sqrt as padic_sqrt
from .qpi import QpiElement

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]+)|([()+\-*/^]))")

# nesting limit for parentheses, sqrt( and unary signs; the parser recurses
# once per level, so this keeps hostile input far from the interpreter's
# recursion limit
MAX_DEPTH = 100


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", position=pos)
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1)), pos))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), pos))
        else:
            tokens.append(("op", m.group(3), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, ctx):
        self.tokens = tokens
        self.ctx = ctx
        self.k = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.k] if self.k < len(self.tokens) else (None, None, None)

    def take(self, kind=None, value=None):
        tok = self.peek()
        if tok[0] is None:
            raise ParseError("unexpected end of expression")
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, got {tok[1]!r}", position=tok[2])
        if value is not None and tok[1] != value:
            raise ParseError(f"expected {value!r}, got {tok[1]!r}", position=tok[2])
        self.k += 1
        return tok

    def nested(self, tok, parse):
        """parse() one nesting level below tok."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(
                f"expression nested more than {MAX_DEPTH} levels deep", position=tok[2]
            )
        value = parse()
        self.depth -= 1
        return value

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok[0] is not None:
            raise ParseError(f"trailing input at {tok[1]!r}", position=tok[2])
        return value

    def expr(self):
        value = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.take()[1]
            rhs = self.factor()
            value = value * rhs if op == "*" else value / rhs
        return value

    def factor(self):
        tok = self.peek()
        if tok[:2] not in (("op", "-"), ("op", "+")):
            return self.power()
        self.take()
        value = self.nested(tok, self.factor)
        return -value if tok[1] == "-" else value

    def power(self):
        base = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.take()
            return base ** self.exponent()
        return base

    def exponent(self):
        sign = 1
        if self.peek()[:2] == ("op", "-"):
            self.take()
            sign = -1
        tok = self.take("int")
        return sign * tok[1]

    def atom(self):
        tok = self.take()
        if tok[0] == "int":
            return QpiElement(from_int(tok[1], self.ctx))
        if tok[0] == "name":
            name = tok[1]
            if name == "i":
                return QpiElement.i_unit(self.ctx)
            if name == "O":
                return self.o_tail(tok)
            if name == "sqrt":
                self.take("op", "(")
                arg = self.nested(tok, self.expr)
                self.take("op", ")")
                return self.sqrt_value(arg)
            raise ParseError(f"unknown name {name!r}", position=tok[2])
        if tok[:2] == ("op", "("):
            value = self.nested(tok, self.expr)
            self.take("op", ")")
            return value
        raise ParseError(f"unexpected token {tok[1]!r}", position=tok[2])

    def o_tail(self, tok):
        # O(p) or O(p^m) after the name O: an inexact zero known modulo p^m
        self.take("op", "(")
        base = self.take("int")[1]
        if base != self.ctx.p:
            raise ParseError(
                f"O-tail base {base} does not match the working prime {self.ctx.p}",
                position=tok[2],
            )
        m = 1
        if self.peek()[:2] == ("op", "^"):
            self.take()
            m = self.take("int")[1]
        self.take("op", ")")
        return QpiElement(
            PadicNumber.zero_mod(self.ctx, m), PadicNumber.exact_zero(self.ctx)
        )

    def sqrt_value(self, arg):
        if not arg.im.is_zero:
            raise DomainError("sqrt is defined for Q_p operands; imaginary part is nonzero")
        return QpiElement(padic_sqrt(arg.re), arg.im)


def evaluate(text, ctx):
    """Evaluate an expression to a QpiElement (imaginary part exact zero for
    purely real input)."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    return _Parser(tokens, ctx).parse()
