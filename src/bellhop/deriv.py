"""Parse derivation expressions and compute where they exist.

The checker decides existence, not values: each symbol a[α] or b[β] is a
function of one axis with domain setting_interval(index), sums/products intersect
domains on shared axes, and the verdict is empty as soon as any axis's
domain set becomes empty.  The culprit is the deepest (leftmost on ties)
node at which that first happens, which is the step where a Bell-type
derivation gets stuck.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple, Union

from .errors import ExprSyntaxError, UnknownSymbol
from .intervals import DomainSet
from .observables import setting_interval


@dataclass(frozen=True)
class Symbol:
    name: str
    index: float


@dataclass(frozen=True)
class Neg:
    child: "Expr"


@dataclass(frozen=True)
class Sum:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Diff:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Prod:
    left: "Expr"
    right: "Expr"


Expr = Union[Symbol, Neg, Sum, Diff, Prod]

# env: symbol name -> (axis label, index -> DomainSet)
Env = Mapping[str, Tuple[str, Callable[[float], DomainSet]]]


def default_env() -> Dict[str, Tuple[str, Callable[[float], DomainSet]]]:
    def span(i: float) -> DomainSet:
        return DomainSet.of([setting_interval(i)])

    return {"a": ("x", span), "b": ("y", span)}


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
        self.text = text
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
        got = repr(value) if kind != "end" else "end of input"
        raise ExprSyntaxError(
            f"expected {' or '.join(expected)} at position {pos}, got {got}",
            pos,
            expected,
        )

    def parse(self) -> Expr:
        e = self.expr()
        if self.peek()[0] != "end":
            self.fail(["'+'", "'-'", "'*'", "end of input"])
        return e

    def expr(self) -> Expr:
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            rhs = self.term()
            node = Sum(node, rhs) if op == "+" else Diff(node, rhs)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek()[1] == "*":
            self.advance()
            node = Prod(node, self.factor())
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

    def symbol(self) -> Symbol:
        name = self.advance()[1]
        kind, value, pos = self.peek()
        if kind == "num":
            # a0 desugars to a[0]; the digits are the index
            self.advance()
            return Symbol(name, float(value))
        if value == "[":
            self.advance()
            sign = 1.0
            if self.peek()[1] == "-":
                self.advance()
                sign = -1.0
            kind, value, pos = self.peek()
            if kind != "num":
                self.fail(["real index"])
            self.advance()
            if self.peek()[1] != "]":
                self.fail(["']'"])
            self.advance()
            return Symbol(name, sign * float(value))
        self.fail(["digits", "'['"])


def parse(text: str) -> Expr:
    """Parse expression text into an Expr tree."""
    return _Parser(text).parse()


def _format(e: Expr, parent_prec: int = 0) -> str:
    if isinstance(e, Symbol):
        if e.index >= 0 and e.index == int(e.index) and e.index < 10:
            text = f"{e.name}{int(e.index)}"
        else:
            text = f"{e.name}[{e.index:g}]"
        return text
    if isinstance(e, Neg):
        return f"-{_format(e.child, 3)}"
    if isinstance(e, Prod):
        text = f"{_format(e.left, 2)} * {_format(e.right, 3)}"
        prec = 2
    else:
        op = "+" if isinstance(e, Sum) else "-"
        text = f"{_format(e.left, 1)} {op} {_format(e.right, 2)}"
        prec = 1
    return f"({text})" if prec < parent_prec else text


def format_expr(e: Expr) -> str:
    """Render an Expr back to parseable text (round-trips through parse)."""
    return _format(e)


@dataclass(frozen=True)
class Culprit:
    node: Expr
    axis: str
    left_domain: DomainSet
    right_domain: DomainSet


@dataclass(frozen=True)
class DomainReport:
    verdict: str  # "exists" | "empty"
    axes: Dict[str, DomainSet]
    culprit: Optional[Culprit]


def _analyze(e: Expr, env: Env):
    if isinstance(e, Symbol):
        if e.name not in env:
            raise UnknownSymbol(f"symbol {e.name!r} not declared")
        axis, rule = env[e.name]
        return {axis: rule(e.index)}, None
    if isinstance(e, Neg):
        return _analyze(e.child, env)
    la, lc = _analyze(e.left, env)
    ra, rc = _analyze(e.right, env)
    culprit = lc or rc
    merged = dict(la)
    for axis in sorted(ra):
        if axis in merged:
            inter = merged[axis].intersect(ra[axis])
            if inter.is_empty() and culprit is None and not merged[axis].is_empty() and not ra[axis].is_empty():
                culprit = Culprit(e, axis, merged[axis], ra[axis])
            merged[axis] = inter
        else:
            merged[axis] = ra[axis]
    return merged, culprit


def analyze(e: Expr, env: Optional[Env] = None) -> DomainReport:
    """Bottom-up domain inference; empty verdict pins the responsible node."""
    axes, culprit = _analyze(e, env if env is not None else default_env())
    empty = any(d.is_empty() for d in axes.values())
    return DomainReport("empty" if empty else "exists", axes, culprit)


def _culprit_text(node: Expr) -> str:
    text = format_expr(node)
    if isinstance(node, (Sum, Diff)):
        return f"({text})"
    return text


def format_report(r: DomainReport) -> str:
    if r.verdict == "exists":
        body = " × ".join(f"{axis}:{r.axes[axis]!r}" for axis in sorted(r.axes))
        return f"EXISTS on {body}"
    if r.culprit is not None:
        c = r.culprit
        return (
            f"EMPTY at '{_culprit_text(c.node)}': axis {c.axis}: "
            f"{c.left_domain!r} ∩ {c.right_domain!r} = ∅"
        )
    axis = next(a for a, d in sorted(r.axes.items()) if d.is_empty())
    return f"EMPTY on axis {axis}"
