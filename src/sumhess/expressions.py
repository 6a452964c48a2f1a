"""Minimal arithmetic expression grammar for field definitions.

Supported: + - * / ^, unary minus, cos/sin/exp, numbers, the coordinates
x1..x9, the radius token |x| (alias r), and the constant pi. Precedence,
loosest first: + and -, then * and /, then unary minus, then ^, which is
right associative and takes a signed exponent: -x1^2 is -(x1^2), 2^3^2 is
2^9 and 2^-1 is 0.5. That is Python's precedence with ^ read as **, so the
text is parsed by ``ast`` and each whitelisted node compiled into a closure
over a point array; nothing is evaluated as Python.
"""

import ast
import math
import re
import warnings

import numpy as np

from .errors import ConfigError

_NUMBER = re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")

_FUNCS = {"cos": np.cos, "sin": np.sin, "exp": np.exp}

_NAMES = {
    "pi": lambda p: np.full(p.shape[0], math.pi),
    "r": lambda p: np.sqrt((p**2).sum(axis=1)),
}

_BINOPS = {
    ast.Add: lambda a, b: lambda p: a(p) + b(p),
    ast.Sub: lambda a, b: lambda p: a(p) - b(p),
    ast.Mult: lambda a, b: lambda p: a(p) * b(p),
    ast.Div: lambda a, b: lambda p: a(p) / b(p),
    ast.Pow: lambda a, b: lambda p: a(p) ** b(p),
}


def _compile(node, text):
    """Closure of one whitelisted ``ast`` node of the one-line ``text``;
    any other node is a ConfigError."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return _BINOPS[type(node.op)](_compile(node.left, text), _compile(node.right, text))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _compile(node.operand, text)
        return lambda p: -inner(p)
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) in _FUNCS:
        fn = _FUNCS[node.func.id]
        if len(node.args) != 1 or node.keywords:
            raise ConfigError(f"{node.func.id} takes one argument")
        arg = _compile(node.args[0], text)
        return lambda p: fn(arg(p))
    if isinstance(node, ast.Name):
        return _NAMES.get(node.id) or _coordinate(node.id)
    segment = text[node.col_offset:node.end_col_offset]
    if isinstance(node, ast.Constant) and _NUMBER.fullmatch(segment):
        value = float(segment)  # every number is a float: an int 2 makes 2^-1 fail
        return lambda p: np.full(p.shape[0], value)
    raise ConfigError(f"unsupported {segment!r} in expression")


def _coordinate(name):
    m = re.fullmatch(r"x(\d+)", name)
    if not m:
        raise ConfigError(f"unknown identifier {name!r} in expression")
    axis = int(m.group(1)) - 1
    if axis < 0:
        raise ConfigError(f"coordinates are numbered from x1, got {name!r}")

    def coord(p):
        if axis >= p.shape[1]:
            raise ConfigError(f"coordinate x{axis + 1} exceeds dimension {p.shape[1]}")
        return p[:, axis]

    return coord


def parse_expression(text):
    """Compile an expression string into a vectorized field of points (P, d)."""
    text = " ".join(str(text).split())
    if not re.fullmatch(r"[\w.+\-*/^()| ]*", text, re.ASCII):
        raise ConfigError(f"bad character in expression {text!r}")
    if "**" in text:
        raise ConfigError(f"'**' in expression {text!r}: powers are written ^")
    # Python reads 007 as an error, the grammar as 7; |x| is the name r
    source = re.sub(r"(?<![\w.])0+(?=\d)", "", text).replace("|x|", " r ").strip()
    source = source.replace("^", "**")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            node = _compile(ast.parse(source, mode="eval").body, source)
    except SyntaxError as exc:
        raise ConfigError(f"bad expression {text!r}: {exc.msg}") from None
    except (RecursionError, MemoryError):
        raise ConfigError("expression nested too deeply to parse") from None

    def field(points):
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        try:
            return np.asarray(node(points), dtype=np.float64)
        except RecursionError:
            raise ConfigError("expression nested too deeply to evaluate") from None

    return field
