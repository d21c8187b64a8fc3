"""Command-line entry point.

Exit codes: 0 success (or exists verdict), 1 invalid usage, 2 runtime error
(file, parse, evaluation), 3 empty-domain verdict from `domain`.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import chsh, deriv, simulate
from .density import ROUND_OFF
from .errors import BellhopError, EmptyDomain, ExprSyntaxError, OutOfDomain, UndefinedPoint, _show
from .observables import log_curve, make_observable
from .steprv import _rows, combine

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_EMPTY = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# check-classical instances; the time per instance (instance plus check) in the flag's message
# was measured on a 2 vCPU Xeon
MAX_CHECKS = 10**7


def _int_flag(low: int, high: int | None = None, why: str = ""):
    """An argparse type: an integer of at least low (0 or 1) and at most high, if given.

    Text that is no integer, an integer of more digits than sys.get_int_max_str_digits(),
    a value below low and one above high each get their own message, and each value is
    echoed by errors._show."""
    def int_flag(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            digits = re.fullmatch(r"\s*[+-]?(\d+)\s*", text)
            if digits:  # an integer beyond int()'s limit on digits
                raise argparse.ArgumentTypeError(
                    f"must have at most {sys.get_int_max_str_digits()} digits, "
                    f"got {len(digits[1])}"
                ) from None
            raise argparse.ArgumentTypeError(f"must be an integer, got {_show(text)}") from None
        shown = _show(value, "number")
        if value < low:
            kind = "positive" if low else "non-negative"
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {shown}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"at most {high} ({why}), got {shown}")
        return value
    return int_flag


def _build_parser() -> _Parser:
    p = _Parser(prog="bellhop", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", help="evaluate an observable at a point")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--x", type=float, required=True)
    sp.set_defaults(run=_cmd_eval)

    sp = sub.add_parser("domain", help="existence analysis of an expression")
    sp.add_argument("--expr", required=True)
    sp.set_defaults(run=_cmd_domain)

    sp = sub.add_parser("expect", help="exact correlators of a family file")
    sp.add_argument("--family", required=True)
    sp.set_defaults(run=_cmd_expect)

    sp = sub.add_parser("saturate", help="write a family saturating |S| = 4")
    sp.add_argument("--out", required=True)
    sp.add_argument("--grid", type=_int_flag(1, chsh.MAX_GRID, "the largest grid measured"),
                    default=4, help="build the family on an NxN grid, N a multiple of 4 "
                                    f"up to {chsh.MAX_GRID} (default 4)")
    sp.set_defaults(run=_cmd_saturate)

    sp = sub.add_parser("simulate", help="Monte-Carlo run of a family")
    sp.add_argument("--family", required=True)
    sp.add_argument("--trials", required=True,
                    type=_int_flag(1, simulate.MAX_TRIALS, "2**63 - 1, the int64 limit"))
    sp.add_argument("--seed", type=_int_flag(0), required=True)
    sp.add_argument("--workers", default=1,
                    type=_int_flag(1, simulate.MAX_WORKERS, "25 ms of per-worker set-up"))
    sp.add_argument("--log", default=None, help="per-trial CSV event log")
    sp.set_defaults(run=_cmd_simulate)

    sp = sub.add_parser("check-classical", help="randomized |S| <= 2 oracle suite")
    sp.add_argument("--trials", required=True,
                    type=_int_flag(1, MAX_CHECKS, "about half an hour at 0.17 ms an instance"))
    sp.add_argument("--seed", type=_int_flag(0), default=0)
    sp.set_defaults(run=_cmd_check_classical)

    sp = sub.add_parser("figures", help="write figure data CSVs")
    sp.add_argument("--out", required=True)
    sp.set_defaults(run=_cmd_figures)

    return p


def _cmd_eval(args) -> int:
    rv = make_observable(args.alpha)
    try:
        print(f"{int(rv.eval(args.x)):+d}")
    except (OutOfDomain, UndefinedPoint) as exc:
        print(type(exc).__name__)
    return EXIT_OK


def _cmd_domain(args) -> int:
    report = deriv.analyze(deriv.parse(args.expr))
    print(deriv.format_report(report))
    return EXIT_OK if report.verdict == "exists" else EXIT_EMPTY


def _load_family(path: str) -> chsh.ChshFamily:
    with open(path) as fh:
        return chsh.ChshFamily.from_dict(json.load(fh))


def _cmd_expect(args) -> int:
    summary = _load_family(args.family).summary()
    for alpha, beta in chsh.PAIRS:
        print(f"E[a{alpha}*b{beta}] = {summary[f'e{alpha}{beta}']:.12g}")
    for key, value in summary["marginals"].items():
        print(f"<{key}> = {value:.12g}")
    print(f"S = {summary['S']:.12g}")
    return EXIT_OK


def _cmd_saturate(args) -> int:
    family, _ = chsh.optimize_family(chsh.SIGNS, (args.grid, args.grid))
    with open(args.out, "w") as fh:
        json.dump(family.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    family = _load_family(args.family)
    config = simulate.ExperimentConfig(
        family=family,
        n_trials=args.trials,
        master_seed=args.seed,
        n_workers=args.workers,
    )
    if args.log is not None:
        config._table  # before open: a refused run writes no file
        with open(args.log, "w") as fh:
            summary = simulate.run_experiment(config, event_log=fh)
    else:
        summary = simulate.run_experiment(config)
    report = simulate.estimate(summary)
    print("pair  trials    corr       se        <a>       <b>")
    for (alpha, beta), pair in zip(chsh.PAIRS, report.pairs):
        print(
            f"({alpha},{beta}) {pair.trials:8d} {pair.correlator:+9.6f} "
            f"{pair.correlator_se:9.6f} {pair.mean_a:+9.6f} {pair.mean_b:+9.6f}"
        )
    print(f"S = {report.s_value:.6f} ± {report.s_se:.6f}")
    return EXIT_OK


def _cmd_check_classical(args) -> int:
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.trials):
        a0, a1, b0, b1, rho = chsh.random_classical_instance(rng)
        s = chsh.classical_bound_check(a0, a1, b0, b1, rho)
        worst = max(worst, abs(s))
        if abs(s) > 2.0 + ROUND_OFF:
            print(f"FAIL: |S| = {abs(s)!r} > 2")
            return EXIT_RUNTIME
    print(f"OK: {args.trials} common-domain instances, max |S| = {worst:.12g} <= 2")
    return EXIT_OK


def _runs(rv, xs: np.ndarray) -> list:
    """rv at increasing xs as maximal runs [(text, length), ...] of one %.17g text, "nan"
    where rv is undefined.  Piece (lo, hi) holds the xs with lo < x < hi, eval_many's rule,
    which searchsorted finds from the piece's ends; each piece is formatted once, and the
    texts keep -0.0, 0.0 and nan apart."""
    los, his, values = _rows((rv,))
    runs, at = [], 0
    for start, end, value in zip(np.searchsorted(xs, los, "right").tolist(),
                                 np.searchsorted(xs, his, "left").tolist(), values.tolist()):
        runs += [("nan", start - at), (f"{value:.17g}", end - start)]
        at = end
    runs.append(("nan", len(xs) - at))
    out = []
    for text, n in runs:
        if out and out[-1][0] == text:  # a gap with no xs, or pieces of one value
            out[-1] = (text, out[-1][1] + n)
        elif n:
            out.append((text, n))
    return out


def write_figures(out_dir: str) -> None:
    """Emit fig1.csv, fig2.csv, fig3.csv; deterministic, nan outside domains."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    a0 = chsh.OBSERVABLES[0][0]
    steps = np.arange(1001) / 1000
    # x labels k/1000 for k <= 2000: fig1 and fig3 use the first 1001, and
    # fig2's block alpha = i/100 uses entries 10i..10i+1000, which equal
    # f"{alpha + k/1000:.3f}" for every i <= 100 and k <= 1000.
    x_labels = [f"{k / 1000:.3f}" for k in range(2001)]

    def block(alpha_label: str, labels, runs) -> str:
        rows, at = [], 0
        for text, n in runs:  # the rows alpha_label,x,text of a run: one join over its labels
            sep = f",{text}\n{alpha_label},"
            rows.append(f"{alpha_label},{sep.join(labels[at : at + n])},{text}\n")
            at += n
        return "".join(rows)

    rows = ["x,a0,logcurve\n"]
    a0_text = [text for text, n in _runs(a0, steps) for _ in range(n)]
    for x, label, a in zip(steps.tolist(), x_labels, a0_text):
        curve = math.nan if a == "nan" else log_curve(0.0, x)
        rows.append(f"{label},{a},{curve:.17g}\n")
    with open(out / "fig1.csv", "w") as fh:
        fh.write("".join(rows))

    with open(out / "fig2.csv", "w") as fig2, open(out / "fig3.csv", "w") as fig3:
        fig2.write("alpha,x,value\n")
        fig3.write("alpha,x,sumvalue\n")
        for i in range(101):
            alpha = i / 100
            label, rv = f"{alpha:.2f}", make_observable(alpha)
            fig2.write(block(label, x_labels[10 * i : 10 * i + 1001], _runs(rv, alpha + steps)))
            try:
                runs = _runs(combine(a0, rv, "sum"), steps)
            except EmptyDomain:  # a0 + rv exists nowhere
                runs = [("nan", len(steps))]
            fig3.write(block(label, x_labels, runs))


def _cmd_figures(args) -> int:
    write_figures(args.out)
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    while argv[:1] == ["domain"] and "--expr" in argv[:-1]:  # a value may start with "-"
        i = argv.index("--expr")
        argv[i:i + 2] = ["--expr=" + argv[i + 1]]
    args = _build_parser().parse_args(argv)
    try:
        for flag in ("out", "log"):
            if getattr(args, flag, None) == "":  # a runtime error, like any unwritable path
                raise ValueError(f"--{flag} is empty: it names no file or directory")
        return args.run(args)
    except ExprSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    # RecursionError: a family file or --expr nested past the interpreter's depth: at the
    # default limit, about 1000 levels of JSON arrays, 490 parentheses, or 1000 chained
    # operators or unary minuses
    except (BellhopError, OSError, json.JSONDecodeError, ValueError, RecursionError,
            MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
