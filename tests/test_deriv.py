import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from bellhop.deriv import (
    BinOp,
    Neg,
    Symbol,
    analyze,
    format_expr,
    format_report,
    parse,
)
from bellhop.errors import EmptyDomain, ExprSyntaxError, InputOutOfRange, UnknownSymbol
from bellhop.intervals import Interval
from bellhop.observables import make_observable, setting_interval
from bellhop.steprv import PartialRV, combine


class TestParse:
    def test_chsh_left_side(self):
        assert parse("a0*b0 + a1*b0") == BinOp(
            "+", BinOp("*", Symbol("a", 0.0), Symbol("b", 0.0)),
            BinOp("*", Symbol("a", 1.0), Symbol("b", 0.0)),
        )

    def test_chsh_right_side(self):
        assert parse("(a0+a1)*b0") == BinOp(
            "*", BinOp("+", Symbol("a", 0.0), Symbol("a", 1.0)), Symbol("b", 0.0)
        )

    def test_double_star_rejected(self):
        with pytest.raises(ExprSyntaxError) as exc_info:
            parse("a0**b0")
        assert exc_info.value.position == 3

    def test_bracket_index(self):
        assert parse("a[0.5]") == Symbol("a", 0.5)

    def test_precedence(self):
        assert parse("a0 + a1 * b0") == BinOp(
            "+", Symbol("a", 0.0), BinOp("*", Symbol("a", 1.0), Symbol("b", 0.0))
        )

    def test_unary_minus(self):
        assert parse("-a0 * b0") == BinOp("*", Neg(Symbol("a", 0.0)), Symbol("b", 0.0))

    def test_difference(self):
        assert parse("a0 - a1 - b0") == BinOp(
            "-", BinOp("-", Symbol("a", 0.0), Symbol("a", 1.0)), Symbol("b", 0.0)
        )

    @pytest.mark.parametrize("text, position, expected", [
        ("", 0, ("'-'", "'('", "symbol")),
        ("a0 +", 4, ("'-'", "'('", "symbol")),
        ("(a0", 3, ("')'",)),
        ("(a0 + a1", 8, ("')'",)),
        ("a0 a1", 3, ("'+'", "'-'", "'*'", "end of input")),
        ("a[0.5", 5, ("']'",)),
        ("a[x]", 2, ("real index",)),
        ("a", 1, ("digits", "'['")),
        ("a + b", 2, ("digits", "'['")),
        ("a0)", 2, ("'+'", "'-'", "'*'", "end of input")),
        ("(a0+a1))", 7, ("'+'", "'-'", "'*'", "end of input")),
        ("a0 $ b0", 3, ()),
    ], ids=["empty", "dangling_plus", "open_paren", "unclosed_paren", "juxtaposed",
            "open_bracket", "name_index", "lone_name", "bare_name", "stray_close",
            "extra_close", "unexpected_character"])
    def test_error_contract(self, text, position, expected):
        with pytest.raises(ExprSyntaxError) as exc_info:
            parse(text)
        assert (exc_info.value.position, exc_info.value.expected) == (position, expected)

    @pytest.mark.parametrize("text, position", [
        ("a[1" + "0" * 400 + "]", 2),
        ("b[-" + "9" * 400 + ".5]", 3),
        ("a0 + a1" + "0" * 400, 6),
    ], ids=["bracket", "negative", "desugared"])
    def test_overflowing_index(self, text, position):
        with pytest.raises(ExprSyntaxError) as exc_info:
            parse(text)
        assert exc_info.value.position == position


@st.composite
def exprs(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        name = draw(st.sampled_from(["a", "b"]))
        index = draw(st.one_of(st.sampled_from([0.0, 1.0, 0.5, 2.0, 0.25]),
                               st.floats(allow_nan=False, allow_infinity=False)))
        return Symbol(name, index)
    op = draw(st.sampled_from(["+", "-", "*", "neg"]))
    if op == "neg":
        return Neg(draw(exprs(depth=depth + 1)))
    return BinOp(op, draw(exprs(depth=depth + 1)), draw(exprs(depth=depth + 1)))


class TestFormat:
    @given(exprs())
    def test_round_trip(self, e):
        assert parse(format_expr(e)) == e

    def test_plain(self):
        assert format_expr(parse("(a0+a1)*b0")) == "(a0 + a1) * b0"

    @pytest.mark.parametrize("index, text", [
        (0.1234567, "a[0.1234567]"), (1e-05, "a[0.00001]"), (12345678.0, "a[12345678]"),
        (-0.5, "a[-0.5]"), (10.0, "a[10]"),
    ])
    def test_index_is_exact(self, index, text):
        assert format_expr(Symbol("a", index)) == text


class TestAnalyze:
    def test_factored_form_empty(self):
        r = analyze(parse("(a0+a1)*b0"))
        assert r.verdict == "empty"
        assert r.culprit.node == BinOp("+", Symbol("a", 0.0), Symbol("a", 1.0))
        assert r.culprit.axis == "x"
        assert r.culprit.left_domain == Interval(0, 1)
        assert r.culprit.right_domain == Interval(1, 2)

    def test_ghz_product_empty(self):
        r = analyze(parse("a0*a1"))
        assert r.verdict == "empty"
        assert isinstance(r.culprit.node, BinOp) and r.culprit.node.op == "*"

    def test_cross_axis_product_exists(self):
        r = analyze(parse("a0*b0"))
        assert r.verdict == "exists"
        assert r.axes["x"] == Interval(0, 1)
        assert r.axes["y"] == Interval(0, 1)

    def test_expanded_form_also_empty_with_different_culprit(self):
        left = analyze(parse("a0*b0 + a1*b0"))
        right = analyze(parse("(a0+a1)*b0"))
        assert left.verdict == "empty" and right.verdict == "empty"
        assert left.culprit.node != right.culprit.node
        assert isinstance(left.culprit.node, BinOp) and left.culprit.node.op == "+"

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            analyze(parse("c0"))

    def test_neg_transparent(self):
        assert analyze(parse("-a0")).verdict == "exists"

    @given(exprs())
    def test_matches_a_fold_of_the_symbols(self, e):
        # each axis's domain is the intersection of its symbols' spans: (max lo, min hi)
        def symbols(e):
            if isinstance(e, Symbol):
                return [e]
            if isinstance(e, Neg):
                return symbols(e.child)
            return symbols(e.left) + symbols(e.right)

        folds = {}
        try:
            for sym in symbols(e):
                span, axis = setting_interval(sym.index), {"a": "x", "b": "y"}[sym.name]
                lo, hi = folds.get(axis, (span.lo, span.hi))
                folds[axis] = (max(lo, span.lo), min(hi, span.hi))
        except InputOutOfRange:
            with pytest.raises(InputOutOfRange):
                analyze(e)
            return
        r = analyze(e)
        assert r.verdict == ("empty" if any(hi <= lo for lo, hi in folds.values()) else "exists")
        if r.verdict == "exists":
            assert r.axes == {axis: Interval(lo, hi) for axis, (lo, hi) in folds.items()}


class TestFormatReport:
    def test_exists(self):
        assert format_report(analyze(parse("a0*b0"))) == "EXISTS on x:(0,1) × y:(0,1)"

    @pytest.mark.parametrize("text, culprit", [
        ("(a0 - a1)*b0", "(a0 - a1)"),  # a sum or difference is parenthesized
        ("a0*b0 + a1*b0", "(a0 * b0 + a1 * b0)"),
        ("a0*a1", "a0 * a1"),  # a product is not
        ("(a0*b0)*(a1*b1)", "a0 * b0 * (a1 * b1)"),  # both axes empty here: x is named
        ("(a0+a1)*b0", "(a0 + a1)"),
    ])
    def test_culprit_text(self, text, culprit):
        assert format_report(analyze(parse(text))) == (
            f"EMPTY at '{culprit}': axis x: (0,1) ∩ (1,2) = ∅"
        )


# a[i] for i at, one ulp from and between the quarter points of a[0] and a[1]
TREE_INDICES = [0.0, 0.25, 0.5, 0.75, 1.0, 0.9999999999999999, float(np.nextafter(0.25, 1)),
                1.5, -0.5, 2.0]
OPERATIONS = {"+": "sum", "-": "difference", "*": "product"}


@st.composite
def a_trees(draw, depth=0):
    """Trees of depth at most 4 over a[i] alone, so on axis x only."""
    op = draw(st.sampled_from(["+", "-", "*", "neg", "leaf"])) if depth < 4 else "leaf"
    if op == "leaf":
        return Symbol("a", draw(st.sampled_from(TREE_INDICES)))
    if op == "neg":
        return Neg(draw(a_trees(depth + 1)))
    return BinOp(op, draw(a_trees(depth + 1)), draw(a_trees(depth + 1)))


def materialize(e) -> PartialRV:
    """The step function that a tree of a_trees denotes, by combine; EmptyDomain at the
    first node that exists nowhere."""
    if isinstance(e, Symbol):
        return make_observable(e.index)
    if isinstance(e, Neg):
        f = materialize(e.child)
        return PartialRV(tuple((iv, -v) for iv, v in f.pieces), f.axis_label)
    return combine(materialize(e.left), materialize(e.right), OPERATIONS[e.op])


class TestCrossModuleCoherence:
    def test_verdict_matches_combine(self):
        rng = np.random.default_rng(31)
        cases = []
        for _ in range(200):
            alpha = float(rng.integers(0, 1_500_001)) / 1e6
            beta = float(rng.integers(0, 1_500_001)) / 1e6
            cases.append((f"a[{alpha:.6f}] + a[{beta:.6f}]", alpha, beta))
        # a one-ulp overlap: (0.9999999999999999, 1) has positive length but no float inside
        cases.append(("a[0]+a[0.9999999999999999]", 0.0, 0.9999999999999999))
        for text, alpha, beta in cases:
            verdict = analyze(parse(text)).verdict
            try:
                combine(make_observable(alpha), make_observable(beta), "sum")
                materialized = "exists"
            except EmptyDomain:
                materialized = "empty"
            assert verdict == materialized, (alpha, beta)

    @given(a_trees())
    @example(parse("a[0] + a[0.9999999999999999]"))  # exists on (0.9999999999999999, 1)
    def test_trees_match_combine(self, e):
        # the same tree built from step functions: EmptyDomain at some node exactly
        # when the verdict is empty, else a function on the verdict's axis x
        r = analyze(e)
        try:
            f = materialize(e)
        except EmptyDomain:
            assert r.verdict == "empty"
            return
        assert r.verdict == "exists"
        x, spans = r.axes["x"], f.domain.intervals
        assert (min(iv.lo for iv in spans), max(iv.hi for iv in spans)) == (x.lo, x.hi)
        assert f.domain.measure() == pytest.approx(x.length, rel=1e-12, abs=0)

