"""Correctness oracles for the benchmark's outputs.

Each check returns a list of problems (empty when the output is correct) and
uses its own arithmetic, not bellhop's: the Monte-Carlo summary is checked
against exact integration, event-log outcomes against the quarter-band rule
recomputed here, and figures against the SHA-256 digests of the seed commit's
output, which the README promises byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

PAIRS = ((0, 0), (1, 0), (0, 1), (1, 1))  # (alpha, beta); sign of the CHSH terms below
SIGNS = (1.0, 1.0, 1.0, -1.0)
# Standard errors allowed between a Monte-Carlo estimate and its exact value.
# A run makes a few thousand such checks and a benchmark campaign ~1e5; at 6
# standard errors a false alarm has probability ~2e-9 per check (5 would give
# ~6e-7, about one false failure per campaign in twenty).
Z = 6.0
LOG_HEADER = "trial,alpha,beta,x,y,a,b"
CLASSICAL_TOL = 1e-12

FIGURE_SHA256 = {
    "fig1.csv": "fcbd477d0c0fae0b9795459c9af72a179baa8c33ef895605ad929f7b52a88baf",
    "fig2.csv": "15d0f131b736bb271176d08c0cf568d808f8f016f6dbfdfc34346ceb46eba627",
    "fig3.csv": "652fe43c6dfa5b88b659203542bfd08feda3cc9379776849c5420e83c4e4a7d4",
}


def quarter_band(t: np.ndarray) -> np.ndarray:
    """+1 iff 0.25 < t < 0.75, else -1, for t = x - alpha in (0, 1)."""
    return np.where((t > 0.25) & (t < 0.75), 1, -1)


def summary_counts(summary) -> list[tuple[int, int, int, int]]:
    """(trials, sum_ab, sum_a, sum_b) per pair of an ExperimentSummary."""
    return [(c.trials, c.sum_ab, c.sum_a, c.sum_b) for c in summary.counts]


def check_summary(counts, n_trials: int, exact_s: float) -> list[str]:
    """Per-pair trials add up; Ŝ is within Z·se of the exact S; every
    marginal is within Z·se of 0."""
    problems = []
    total = sum(c[0] for c in counts)
    if total != n_trials:
        problems.append(f"pair trials sum to {total}, not {n_trials}")
    s_hat = 0.0
    var = 0.0
    for (trials, sum_ab, sum_a, sum_b), sign, pair in zip(counts, SIGNS, PAIRS):
        if trials < 2:
            problems.append(f"pair {pair} has {trials} trials")
            continue
        e = sum_ab / trials
        s_hat += sign * e
        var += max(0.0, 1.0 - e * e) / trials
        margin_se = 1.0 / math.sqrt(trials)  # a ±1 outcome with mean 0 has variance 1
        for label, total_x in (("a", sum_a), ("b", sum_b)):
            if abs(total_x / trials) > Z * margin_se:
                problems.append(f"pair {pair} <{label}> = {total_x / trials:.6g} "
                                f"beyond {Z}·se = {Z * margin_se:.3g} of 0")
    se = math.sqrt(var)
    if abs(s_hat - exact_s) > Z * se + 1e-12:
        problems.append(f"Ŝ = {s_hat:.6g} is {abs(s_hat - exact_s) / max(se, 1e-300):.3g}"
                        f" se from exact S = {exact_s:.6g} (se = {se:.3g})")
    return problems


def check_event_log(path: Path, counts, n_trials: int) -> list[str]:
    """Header, row count, outcomes by the quarter-band rule, settings and
    outcome sums against the summary."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != LOG_HEADER:
            return [f"header {header!r} != {LOG_HEADER!r}"]
        body = fh.read()
    if not body:
        return [f"log has 0 rows, expected {n_trials}"]
    rows = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
    problems = []
    if rows.shape != (n_trials, 7):
        return [f"log has shape {rows.shape}, expected ({n_trials}, 7)"]
    trial, alpha, beta, x, y, a, b = rows.T
    if not np.array_equal(trial, np.arange(n_trials)):
        problems.append("trial column is not 0..n-1")
    bad_a = np.flatnonzero(a != quarter_band(x - alpha))
    bad_b = np.flatnonzero(b != quarter_band(y - beta))
    if len(bad_a) or len(bad_b):
        problems.append(f"{len(bad_a)} a and {len(bad_b)} b outcomes disagree with "
                        f"the quarter-band rule (first row {np.concatenate([bad_a, bad_b]).min()})")
    for (p_alpha, p_beta), (trials, sum_ab, sum_a, sum_b) in zip(PAIRS, counts):
        sel = (alpha == p_alpha) & (beta == p_beta)
        got = (int(sel.sum()), int((a[sel] * b[sel]).sum()), int(a[sel].sum()), int(b[sel].sum()))
        if got != (trials, sum_ab, sum_a, sum_b):
            problems.append(f"pair {(p_alpha, p_beta)}: log gives {got}, summary "
                            f"{(trials, sum_ab, sum_a, sum_b)}")
    return problems


def check_classical(s: float) -> list[str]:
    if not abs(s) <= 2.0 + CLASSICAL_TOL:
        return [f"|S| = {abs(s)!r} > 2 on a common-domain instance"]
    return []


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_figures(out_dir: Path) -> list[str]:
    problems = []
    for name, want in FIGURE_SHA256.items():
        path = Path(out_dir) / name
        if not path.exists():
            problems.append(f"{name} missing")
        elif sha256(path) != want:
            problems.append(f"{name} differs from the seed commit's bytes")
    return problems


def family_json_expectations(text: str) -> list[tuple[float, float, float]]:
    """(E[ab], E[a], E[b]) per pair of a family JSON, integrated here from its
    grid weights: cell mass times the observables' quarter-band signs."""
    d = json.loads(text)
    out = []
    for alpha, beta in PAIRS:
        rho = d[f"rho{alpha}{beta}"]
        nx, ny = rho["nx"], rho["ny"]
        w = np.asarray(rho["weights"], dtype=float).reshape(nx, ny)
        (x_lo, x_hi), (y_lo, y_hi) = rho["x_rect"], rho["y_rect"]
        mass = w * ((x_hi - x_lo) / nx) * ((y_hi - y_lo) / ny)
        fx = quarter_band((np.arange(nx) + 0.5) / nx)
        gy = quarter_band((np.arange(ny) + 0.5) / ny)
        out.append((float(fx @ mass @ gy), float(fx @ mass.sum(axis=1)),
                    float(mass.sum(axis=0) @ gy)))
    return out


def check_saturated_family(text: str, targets, tol: float = 1e-6) -> list[str]:
    """A saturate dump reaches its targets with zero marginals by the weights
    alone, and its stored S agrees with them."""
    problems = []
    moments = family_json_expectations(text)
    es = [m[0] for m in moments]
    for (e, e_a, e_b), target, pair in zip(moments, targets, PAIRS):
        if abs(e - target) > tol:
            problems.append(f"pair {pair}: E = {e!r} from weights, target {target}")
        if abs(e_a) > tol or abs(e_b) > tol:
            problems.append(f"pair {pair}: marginals ({e_a!r}, {e_b!r}) from weights, not 0")
    stored = json.loads(text)["expectations"]["S"]
    s = sum(sign * e for sign, e in zip(SIGNS, es))
    if abs(stored - s) > tol:
        problems.append(f"stored S = {stored!r}, weights give {s!r}")
    return problems
