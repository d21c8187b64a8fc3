"""Parse derivation expressions and compute where they exist.

The checker decides existence, not values: each symbol a[α] or b[β] is a
function of one axis with domain setting_interval(index), every BinOp (+, -
and * alike) intersects domains on shared axes, and the verdict is empty as
soon as any axis's domain becomes empty.  The culprit is the deepest
(leftmost on ties) node at which that first happens, which is the step where
a Bell-type derivation gets stuck.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np

from .errors import ExprSyntaxError, UnknownSymbol, _finite, _show
from .intervals import Interval
from .observables import setting_interval


@dataclass(frozen=True)
class Symbol:
    name: str
    index: float


@dataclass(frozen=True)
class Neg:
    child: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # "+", "-" or "*", a key of _PRECEDENCE
    left: "Expr"
    right: "Expr"


Expr = Union[Symbol, Neg, BinOp]

_PRECEDENCE = {"+": 1, "-": 1, "*": 2}  # the binary operators, all left-associative
_AXES = {"a": "x", "b": "y"}  # symbol name -> its axis; a[i] spans setting_interval(i)


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<name>[A-Za-z]+)
  | (?P<num>\d+(?:\.\d+)?)
  | (?P<op>[+\-*()\[\]])
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(
                f"unexpected character {text[pos]!r} at position {pos}", pos
            )
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected):
        kind, value, pos = self.peek()
        got = _show(value) if kind != "end" else "end of input"
        raise ExprSyntaxError(
            f"expected {' or '.join(expected)} at position {pos}, got {got}",
            pos,
            expected,
        )

    def parse(self) -> Expr:
        e = self.expr()
        if self.peek()[0] != "end":
            self.fail([*map(repr, _PRECEDENCE), "end of input"])
        return e

    def expr(self, prec: int = 1) -> Expr:
        """Operators of precedence >= prec; right operands bind one tighter."""
        node = self.factor()
        while _PRECEDENCE.get(self.peek()[1], 0) >= prec:
            op = self.advance()[1]
            node = BinOp(op, node, self.expr(_PRECEDENCE[op] + 1))
        return node

    def factor(self) -> Expr:
        kind, value, pos = self.peek()
        if value == "-":
            self.advance()
            return Neg(self.factor())
        if value == "(":
            self.advance()
            node = self.expr()
            if self.peek()[1] != ")":
                self.fail(["')'"])
            self.advance()
            return node
        if kind == "name":
            return self.symbol()
        self.fail(["'-'", "'('", "symbol"])

    def index(self) -> float:
        _, value, pos = self.advance()
        index = float(value)
        if not _finite(index):
            raise ExprSyntaxError(f"index at position {pos} overflows a float", pos)
        return index

    def symbol(self) -> Symbol:
        name = self.advance()[1]
        kind, value, pos = self.peek()
        if kind == "num":
            # a0 desugars to a[0]; the digits are the index
            return Symbol(name, self.index())
        if value == "[":
            self.advance()
            sign = 1.0
            if self.peek()[1] == "-":
                self.advance()
                sign = -1.0
            if self.peek()[0] != "num":
                self.fail(["real index"])
            index = self.index()
            if self.peek()[1] != "]":
                self.fail(["']'"])
            self.advance()
            return Symbol(name, sign * index)
        self.fail(["digits", "'['"])


def parse(text: str) -> Expr:
    """Parse expression text into an Expr tree."""
    return _Parser(text).parse()


def _format(e: Expr, parent_prec: int = 0) -> str:
    if isinstance(e, Symbol):
        if e.index >= 0 and e.index == int(e.index) and e.index < 10:
            return f"{e.name}{int(e.index)}"
        # the shortest positional digits that read back as this float
        return f"{e.name}[{np.format_float_positional(e.index, trim='-')}]"
    if isinstance(e, Neg):
        return f"-{_format(e.child, 3)}"  # 3: tighter than every binary operator
    prec = _PRECEDENCE[e.op]
    text = f"{_format(e.left, prec)} {e.op} {_format(e.right, prec + 1)}"
    return f"({text})" if prec < parent_prec else text


def format_expr(e: Expr) -> str:
    """Render an Expr back to parseable text (round-trips through parse)."""
    return _format(e)


@dataclass(frozen=True)
class Culprit:
    node: Expr
    axis: str
    left_domain: Interval
    right_domain: Interval


@dataclass(frozen=True)
class DomainReport:
    """axes maps each axis to its domain; at an empty verdict the emptied axis holds an
    empty Interval (hi <= lo), which format_report never prints."""

    verdict: str  # "exists" | "empty"
    axes: Dict[str, Interval]
    culprit: Optional[Culprit]


def _analyze(e: Expr):
    if isinstance(e, Symbol):
        if e.name not in _AXES:
            raise UnknownSymbol(f"symbol {_show(e.name)} not declared")
        return {_AXES[e.name]: setting_interval(e.index)}, None
    if isinstance(e, Neg):
        return _analyze(e.child)
    la, lc = _analyze(e.left)
    ra, rc = _analyze(e.right)
    culprit = lc or rc
    merged = {**la, **ra}
    for axis in sorted(la.keys() & ra.keys()):
        merged[axis] = la[axis].intersect(ra[axis])
        if culprit is None and merged[axis].is_empty():
            culprit = Culprit(e, axis, la[axis], ra[axis])
    return merged, culprit


def analyze(e: Expr) -> DomainReport:
    """Bottom-up domain inference; empty verdict pins the responsible node
    (a symbol's span is never empty, so an empty axis always has a culprit)."""
    axes, culprit = _analyze(e)
    return DomainReport("exists" if culprit is None else "empty", axes, culprit)


def format_report(r: DomainReport) -> str:
    if r.verdict == "exists":
        body = " × ".join(f"{axis}:{r.axes[axis]!r}" for axis in sorted(r.axes))
        return f"EXISTS on {body}"
    c = r.culprit
    # formatted as a factor, so a sum or difference culprit keeps its parentheses
    return (
        f"EMPTY at '{_format(c.node, 2)}': axis {c.axis}: "
        f"{c.left_domain!r} ∩ {c.right_domain!r} = ∅"
    )
