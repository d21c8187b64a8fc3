"""Command-line entry point.

Exit codes: 0 success (or exists verdict), 1 invalid usage, 2 runtime error
(file, parse, evaluation), 3 empty-domain verdict from `domain`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import chsh, deriv, simulate
from .density import ROUND_OFF
from .errors import BellhopError, EmptyDomain, ExprSyntaxError, OutOfDomain, UndefinedPoint
from .observables import log_curve, make_observable, thresholds
from .steprv import combine

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_EMPTY = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _worker_count(text: str) -> int:
    value, cpus = _positive_int(text), os.cpu_count() or 1
    if value > cpus:
        raise argparse.ArgumentTypeError(f"at most {cpus} (the CPU count), got {value}")
    return value


def _build_parser() -> _Parser:
    p = _Parser(prog="bellhop", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", help="evaluate an observable at a point")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--x", type=float, required=True)

    sp = sub.add_parser("domain", help="existence analysis of an expression")
    sp.add_argument("--expr", required=True)

    sp = sub.add_parser("expect", help="exact correlators of a family file")
    sp.add_argument("--family", required=True)

    sp = sub.add_parser("saturate", help="write a family saturating |S| = 4")
    sp.add_argument("--out", required=True)
    sp.add_argument("--grid", type=_positive_int, default=None,
                    help="optimize on an NxN grid instead of the analytic family")

    sp = sub.add_parser("simulate", help="Monte-Carlo run of a family")
    sp.add_argument("--family", required=True)
    sp.add_argument("--trials", type=_positive_int, required=True)
    sp.add_argument("--seed", type=_non_negative_int, required=True)
    sp.add_argument("--workers", type=_worker_count, default=1)
    sp.add_argument("--log", default=None, help="per-trial CSV event log")

    sp = sub.add_parser("check-classical", help="randomized |S| <= 2 oracle suite")
    sp.add_argument("--trials", type=_positive_int, required=True)
    sp.add_argument("--seed", type=_non_negative_int, default=0)

    sp = sub.add_parser("figures", help="write figure data CSVs")
    sp.add_argument("--out", required=True)

    return p


def _cmd_eval(args) -> int:
    rv = make_observable(args.alpha)
    try:
        value = rv.eval(args.x)
    except (OutOfDomain, UndefinedPoint) as exc:
        print(type(exc).__name__)
        return EXIT_OK
    print(f"{int(value):+d}")
    return EXIT_OK


def _cmd_domain(args) -> int:
    report = deriv.analyze(deriv.parse(args.expr))
    print(deriv.format_report(report))
    return EXIT_OK if report.verdict == "exists" else EXIT_EMPTY


def _load_family(path: str) -> chsh.ChshFamily:
    with open(path) as fh:
        return chsh.ChshFamily.from_dict(json.load(fh))


def _cmd_expect(args) -> int:
    summary = _load_family(args.family).to_dict()["expectations"]
    for alpha, beta in chsh.PAIRS:
        print(f"E[a{alpha}*b{beta}] = {summary[f'e{alpha}{beta}']:.12g}")
    for key, value in summary["marginals"].items():
        print(f"<{key}> = {value:.12g}")
    print(f"S = {summary['S']:.12g}")
    return EXIT_OK


def _cmd_saturate(args) -> int:
    if args.grid is None:
        family = chsh.saturating_family()
    else:
        family, _ = chsh.optimize_family((1.0, 1.0, 1.0, -1.0), (args.grid, args.grid))
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
    if args.log:
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


def _column(rv, xs: np.ndarray) -> list:
    """rv at each x as %.17g text, with "nan" where rv is undefined.

    A step function takes few values, so each distinct one is formatted once.
    Values are told apart by their bits, which keeps -0.0 and 0.0 apart.
    """
    values, defined = rv.eval_many(xs)
    bits = np.where(defined, values, math.nan).view(np.int64)
    keys, inverse = np.unique(bits, return_inverse=True)
    text = [f"{v:.17g}" for v in keys.view(np.float64).tolist()]
    return [text[i] for i in inverse.tolist()]


def write_figures(out_dir: str) -> None:
    """Emit fig1.csv, fig2.csv, fig3.csv; deterministic, nan outside domains."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    a0 = make_observable(0.0)
    excluded = thresholds(0.0)  # sign-change points: ln = 0, sign undefined
    steps = np.arange(1001) / 1000
    # x labels k/1000 for k <= 2000: fig1 and fig3 use the first 1001, and
    # fig2's block alpha = i/100 uses entries 10i..10i+1000, which equal
    # f"{alpha + k/1000:.3f}" for every i <= 100 and k <= 1000.
    x_labels = [f"{k / 1000:.3f}" for k in range(2001)]

    def block(alpha_label: str, labels, values) -> str:
        return "".join([f"{alpha_label},{x},{v}\n" for x, v in zip(labels, values)])

    with open(out / "fig1.csv", "w") as fh:
        fh.write("x,a0,logcurve\n")
        for x, label, a in zip(steps.tolist(), x_labels, _column(a0, steps)):
            try:
                curve = math.nan if x in excluded else log_curve(0.0, x)
            except OutOfDomain:
                curve = math.nan
            fh.write(f"{label},{a},{curve:.17g}\n")

    with open(out / "fig2.csv", "w") as fh:
        fh.write("alpha,x,value\n")
        for i in range(101):
            alpha = i / 100
            values = _column(make_observable(alpha), alpha + steps)
            fh.write(block(f"{alpha:.2f}", x_labels[10 * i : 10 * i + 1001], values))

    with open(out / "fig3.csv", "w") as fh:
        fh.write("alpha,x,sumvalue\n")
        for i in range(101):
            alpha = i / 100
            try:
                total = combine(a0, make_observable(alpha), "sum")
            except EmptyDomain:
                values = ["nan"] * len(steps)
            else:
                values = _column(total, steps)
            fh.write(block(f"{alpha:.2f}", x_labels, values))


def _cmd_figures(args) -> int:
    write_figures(args.out)
    return EXIT_OK


_COMMANDS = {
    "eval": _cmd_eval,
    "domain": _cmd_domain,
    "expect": _cmd_expect,
    "saturate": _cmd_saturate,
    "simulate": _cmd_simulate,
    "check-classical": _cmd_check_classical,
    "figures": _cmd_figures,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ExprSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (BellhopError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
