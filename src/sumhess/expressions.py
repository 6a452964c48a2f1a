"""Minimal arithmetic expression grammar for field definitions.

Supported: + - * / ^, unary minus, cos/sin/exp, numbers, the coordinates
x1..x9, the radius token |x| (alias r), and the constant pi. Parsed by
recursive descent into a closure over a point array; no interpreter or eval.
Precedence, loosest first: + and -, then * and /, then unary minus, then ^,
which is right associative and takes a signed exponent: -x1^2 is -(x1^2),
2^3^2 is 2^9 and 2^-1 is 0.5.
"""

import math
import re

import numpy as np

from .errors import ConfigError

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<norm>\|x\|)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCS = {"cos": np.cos, "sin": np.sin, "exp": np.exp}

_BINOPS = {
    "+": lambda a, b: lambda p: a(p) + b(p),
    "-": lambda a, b: lambda p: a(p) - b(p),
    "*": lambda a, b: lambda p: a(p) * b(p),
    "/": lambda a, b: lambda p: a(p) / b(p),
}


def _tokenize(text):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ConfigError(f"bad character in expression at {text[pos:]!r}")
        pos = m.end()
        if m.group("num") is not None:
            tokens.append(("num", float(m.group("num"))))
        elif m.group("norm") is not None:
            tokens.append(("norm", "|x|"))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.i]
        if kind and tok[0] != kind or value is not None and tok[1] != value:
            raise ConfigError(f"unexpected token {tok[1]!r} in expression")
        self.i += 1
        return tok

    def expr(self):
        node = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            node = _BINOPS[op](node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek() in (("op", "*"), ("op", "/")):
            op = self.take()[1]
            node = _BINOPS[op](node, self.unary())
        return node

    def unary(self):
        if self.peek() == ("op", "-"):
            self.take()
            inner = self.unary()
            return lambda p: -inner(p)
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            expo = self.unary()  # right associative, and 2^-1 is 0.5
            return lambda p: base(p) ** expo(p)
        return base

    def atom(self):
        kind, value = self.peek()
        if kind == "num":
            self.take()
            return lambda p: np.full(p.shape[0], value)
        if kind == "norm":
            self.take()
            return lambda p: np.sqrt((p**2).sum(axis=1))
        if kind == "op" and value == "(":
            self.take()
            node = self.expr()
            self.take("op", ")")
            return node
        if kind == "name":
            self.take()
            if value in _FUNCS:
                fn = _FUNCS[value]
                self.take("op", "(")
                node = self.expr()
                self.take("op", ")")
                return lambda p: fn(node(p))
            if value == "pi":
                return lambda p: np.full(p.shape[0], math.pi)
            if value == "r":
                return lambda p: np.sqrt((p**2).sum(axis=1))
            m = re.fullmatch(r"x(\d+)", value)
            if m:
                axis = int(m.group(1)) - 1
                if axis < 0:
                    raise ConfigError(f"coordinates are numbered from x1, got {value!r}")

                def coord(p, axis=axis):
                    if axis >= p.shape[1]:
                        raise ConfigError(
                            f"coordinate x{axis + 1} exceeds dimension {p.shape[1]}"
                        )
                    return p[:, axis]

                return coord
            raise ConfigError(f"unknown identifier {value!r} in expression")
        raise ConfigError("truncated expression")


def parse_expression(text):
    """Compile an expression string into a vectorized field of points (P, d)."""
    parser = _Parser(_tokenize(str(text)))
    node = parser.expr()
    parser.take("end")

    def field(points):
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return np.asarray(node(points), dtype=np.float64)

    return field
