"""One workload in one fresh process: set up, warm up, run closed-loop rounds,
check every output, and print the measurements as one JSON line.

Started by run.py, never imported by it, so that ``ru_maxrss`` and the
set-up time belong to this workload alone.  ``--setup-only`` stops after
set-up and prints only the set-up time.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here, before bellhop is imported

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracer import CountingLog, Tracer  # noqa: E402

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10  # samples a tail percentile must have beyond it
REFERENCE_EVERY_S = 0.25
SETUP_REFERENCE_RUNS = 5
NPROC = len(os.sched_getaffinity(0))


def import_bellhop():
    """Import bellhop from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "bellhop" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bellhop sources under {src}")
    sys.path.insert(0, str(src))
    import bellhop

    if Path(bellhop.__file__).resolve().parent != (src / "bellhop").resolve():
        raise SystemExit(f"perfbench: bellhop imported from {bellhop.__file__}, not {src}")


def tail_percentile(n: int, planned: float) -> float | None:
    """Highest ladder percentile <= planned with MIN_BEYOND samples beyond it."""
    for p in TAIL_LADDER:
        if p <= planned and n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    return 0.5 * (ordered[(n - 1) // 2] + ordered[n // 2])


def rss_now_bytes() -> int:
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


@dataclass(frozen=True)
class _Span:
    lo: float
    hi: float

    def contains(self, x: float) -> bool:
        return self.lo < x < self.hi


class ReferenceKernel:
    """Fixed work that gauges how fast the machine runs at the moment.  It
    lives here, not in bellhop, so it is the same on every commit.

    The base kernel is an arithmetic loop and a numpy search.  With
    ``objects`` it also builds small frozen dataclasses, calls their methods
    through try/except and formats rows: the interpreter-bound kind of work
    that the exact and event-log workloads do, whose speed swings more with
    the machine's state than arithmetic does."""

    def __init__(self, objects: bool = False):
        import numpy as np

        rng = np.random.default_rng(0)
        self.cum = np.cumsum(rng.random(1024))
        self.u = rng.random(50_000) * self.cum[-1]
        self.objects = objects

    def __call__(self) -> float:
        import numpy as np

        start = time.perf_counter()
        total = 0.0
        for i in range(15_000):
            x = (i * 0.5) % 7.0
            if 1.0 < x < 3.0:
                total += x
        np.searchsorted(self.cum, self.u).sum()
        if self.objects:
            spans = [_Span(i * 0.1, i * 0.1 + 0.5) for i in range(400)]
            for j in range(10):
                x = j * 0.37
                for span in spans:
                    try:
                        if not span.contains(x):
                            raise KeyError(x)
                        total += 1
                    except KeyError:
                        total -= 1
            "".join(f"{i},{i * 0.1:.17g},{int(total) % 2:+d}\n" for i in range(2000))
        return time.perf_counter() - start


def setup_reference() -> float:
    """Median time of SETUP_REFERENCE_RUNS object-heavy reference kernels, timed
    right after set-up.  Set-up (imports, optimize_family, instance generation)
    is interpreter-bound, so its speed follows this kernel's."""
    kernel = ReferenceKernel(objects=True)
    return median([kernel() for _ in range(SETUP_REFERENCE_RUNS)])


class Recorder:
    """Times closed-loop calls by kind and counts attempted and failed ones.

    Before a call, at most every REFERENCE_EVERY_S, it times the reference
    kernel.  It keeps each call's time both in seconds and relative to the
    latest reference time, which follows the machine's speed as it changes."""

    def __init__(self, reference: ReferenceKernel, tracer=None):
        self.reference = reference
        self.reference_s: list[float] = []
        self._last_reference = -math.inf
        self.samples: dict[str, list[float]] = {}  # seconds
        self.relative: dict[str, list[float]] = {}  # seconds / latest reference time
        self.busy_s = 0.0  # all timed calls, seconds
        self.busy_ref = 0.0  # all timed calls, reference times
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer = tracer

    def call(self, kind: str, fn, *args):
        """Run fn(*args) as one timed operation; returns (ok, result)."""
        if time.perf_counter() - self._last_reference >= REFERENCE_EVERY_S:
            self.reference_s.append(self.reference())
            self._last_reference = time.perf_counter()
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.fail(kind, f"{type(exc).__name__}: {exc}")
            return False, None
        seconds = time.perf_counter() - start
        relative = seconds / self.reference_s[-1]
        self.samples.setdefault(kind, []).append(seconds)
        self.relative.setdefault(kind, []).append(relative)
        self.busy_s += seconds
        self.busy_ref += relative
        return True, result

    def fail(self, kind: str, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{kind}: {problem}")

    def check(self, kind: str, problems: list[str]) -> None:
        if problems:
            self.fail(kind, "; ".join(problems))


def call_seed(seed: int, kind: int, k: int) -> int:
    """Master seed of the k-th call of a kind.  Calls 2j and 2j+1 share a
    seed, so every second call checks that a rerun is bit-identical."""
    import numpy as np

    return int(np.random.SeedSequence([seed, kind, k // 2]).generate_state(1, np.uint64)[0])


class McSummary:
    """simulate.run_experiment without a log on an interior 32x32 family."""

    name = "mc-summary"
    nominal_round_s = 7.0
    large_trials = 10_000_000
    small_trials = 100_000
    small_per_round = 50
    latency_kind, latency_per_round = "small_nproc", small_per_round
    reference_objects = False
    targets = (0.7, 0.7, 0.7, -0.7)

    def setup(self, seed, tmp):
        from bellhop import chsh

        family, _ = chsh.optimize_family(self.targets, (32, 32))
        text = json.dumps(family.to_dict(), indent=2, sort_keys=True)
        self.family = chsh.ChshFamily.from_dict(json.loads(text))
        self.exact_s = chsh.chsh_value(*self.family.expectations())
        own = [m[0] for m in checks.family_json_expectations(text)]
        if abs(sum(s * e for s, e in zip(checks.SIGNS, own)) - self.exact_s) > 1e-9:
            raise SystemExit("perfbench: family expectations disagree with its weights")
        self.seed = seed
        self.reset()

    def reset(self):
        self.previous: dict[str, tuple] = {}
        self.calls: dict[str, int] = {}

    def _run(self, rec, kind, kind_index, n_trials, n_workers):
        from bellhop import simulate

        k = self.calls.get(kind, 0)
        self.calls[kind] = k + 1
        config = simulate.ExperimentConfig(
            family=self.family, n_trials=n_trials,
            master_seed=call_seed(self.seed, kind_index, k), n_workers=n_workers,
        )
        ok, summary = rec.call(kind, simulate.run_experiment, config)
        if not ok:
            return
        counts = checks.summary_counts(summary)
        problems = checks.check_summary(counts, n_trials, self.exact_s)
        if k % 2 == 1 and self.previous.get(kind) != counts:
            problems.append("rerun with the same (seed, workers) gave another summary")
        self.previous[kind] = counts
        rec.check(kind, problems)

    def warmup(self):
        from bellhop import simulate

        for workers in (NPROC, 1):
            simulate.run_experiment(simulate.ExperimentConfig(
                self.family, 1_000_000, master_seed=self.seed, n_workers=workers))

    def round(self, rec):
        self._run(rec, "large_nproc", 0, self.large_trials, NPROC)
        self._run(rec, "large_1w", 1, self.large_trials, 1)
        for _ in range(self.small_per_round):
            self._run(rec, "small_nproc", 2, self.small_trials, NPROC)

    def rate(self, samples):
        return self.large_trials / median(samples["large_nproc"])

    def named(self, rec, tail):
        s = rec.samples
        large, large_1w, small = s["large_nproc"], s["large_1w"], s["small_nproc"]
        small_tail, pct = tail(small)
        return {
            "mc_mtrials_per_s": (self.rate(s) / 1e6, "Mtrials/s", len(large)),
            "mc_mtrials_per_s_1w": (self.large_trials / median(large_1w) / 1e6, "Mtrials/s",
                                    len(large_1w)),
            "mc_small_p50_ms": (median(small) * 1e3, "ms", len(small)),
            "mc_small_tail_ms": (small_tail * 1e3, "ms", len(small), pct),
        }

    def inputs(self):
        return {"large_trials": self.large_trials, "small_trials": self.small_trials,
                "small_calls_per_round": self.small_per_round, "n_workers": [NPROC, 1],
                "grid": [32, 32], "targets": list(self.targets), "exact_s": self.exact_s}


class McEventLog:
    """simulate.run_experiment with a CSV event log on the 4x4 saturating family."""

    name = "mc-eventlog"
    nominal_round_s = 1.6
    trials = 20_000
    calls_per_round = 10
    latency_kind, latency_per_round = "logged", calls_per_round
    reference_objects = True  # formatting rows is interpreter-bound, like exact

    def setup(self, seed, tmp):
        from bellhop import chsh

        self.family = chsh.saturating_family()
        self.exact_s = chsh.chsh_value(*self.family.expectations())
        self.seed = seed
        self.path = Path(tmp) / "events.csv"
        self.reset()

    def reset(self):
        self.k = 0
        self.previous = None
        self.log_counts = {"rows": 0, "bytes": 0, "write_calls": 0, "write_ns": 0}

    def _logged_run(self, config, counting):
        from bellhop import simulate

        with open(self.path, "w") as fh:
            log = CountingLog(fh) if counting else fh
            summary = simulate.run_experiment(config, event_log=log)
        if counting:
            for key in self.log_counts:
                self.log_counts[key] += getattr(log, key)
            self.log_counts["rows"] -= 1  # the header line
        return summary

    def warmup(self):
        from bellhop import simulate

        self._logged_run(simulate.ExperimentConfig(self.family, self.trials, self.seed), False)

    def round(self, rec):
        from bellhop import simulate

        counting = rec.tracer is not None
        for _ in range(self.calls_per_round):
            config = simulate.ExperimentConfig(
                self.family, self.trials, master_seed=call_seed(self.seed, 3, self.k))
            ok, summary = rec.call("logged", self._logged_run, config, counting)
            if ok:
                counts = checks.summary_counts(summary)
                problems = checks.check_summary(counts, self.trials, self.exact_s)
                problems += checks.check_event_log(self.path, counts, self.trials)
                if self.k % 2 == 1 and self.previous != counts:
                    problems.append("rerun with the same seed gave another summary")
                self.previous = counts
                rec.check("logged", problems)
            self.k += 1

    def rate(self, samples):
        return self.trials / median(samples["logged"])

    def named(self, rec, tail):
        return {"log_rows_per_s": (self.rate(rec.samples), "rows/s", len(rec.samples["logged"]))}

    def inputs(self):
        return {"trials_per_call": self.trials, "calls_per_round": self.calls_per_round,
                "n_workers": 1, "grid": [4, 4], "exact_s": self.exact_s}


class Exact:
    """classical_bound_check per instance, write_figures, and saturate --grid 32."""

    name = "exact"
    nominal_round_s = 1.5
    instances = 400  # per round
    pool_size = 2000  # distinct instances; rounds take consecutive slices
    saturate_per_round = 3
    latency_kind, latency_per_round = "classical", instances
    reference_objects = True
    targets = (1.0, 1.0, 1.0, -1.0)

    def setup(self, seed, tmp):
        import numpy as np
        from bellhop import chsh

        rng = np.random.default_rng(seed)
        self.pool = [chsh.random_classical_instance(rng) for _ in range(self.pool_size)]
        self.fig_dir = Path(tmp) / "figs"
        self.reset()

    def reset(self):
        self.r = 0
        self.fig_bytes = 0

    def _saturate(self):
        from bellhop import chsh

        family, _ = chsh.optimize_family(self.targets, (32, 32))
        return json.dumps(family.to_dict(), indent=2, sort_keys=True)

    def warmup(self):
        from bellhop import chsh, cli

        for inst in self.pool[:20]:
            chsh.classical_bound_check(*inst)
        cli.write_figures(str(self.fig_dir))
        self._saturate()

    def round(self, rec):
        from bellhop import chsh, cli

        first = (self.r * self.instances) % self.pool_size
        self.r += 1
        for inst in self.pool[first:first + self.instances]:
            ok, s = rec.call("classical", chsh.classical_bound_check, *inst)
            if ok:
                rec.check("classical", checks.check_classical(s))

        ok, _ = rec.call("figures", cli.write_figures, str(self.fig_dir))
        if ok:
            rec.check("figures", checks.check_figures(self.fig_dir))
            self.fig_bytes += sum(p.stat().st_size for p in self.fig_dir.iterdir())

        for _ in range(self.saturate_per_round):
            ok, text = rec.call("saturate", self._saturate)
            if ok:
                rec.check("saturate", checks.check_saturated_family(text, self.targets))

    def _round_sums(self, samples):
        xs = samples["classical"]
        return [sum(xs[i:i + self.instances])
                for i in range(0, len(xs) - self.instances + 1, self.instances)]

    def rate(self, samples):
        """Instances per unit time, from each round's total over its instances."""
        return self.instances / median(self._round_sums(samples))

    def named(self, rec, tail):
        s = rec.samples
        classical = s["classical"]
        classical_tail, pct = tail(classical)
        return {
            "classical_instances_per_s": (self.rate(s), "1/s", len(self._round_sums(s))),
            "classical_p50_us": (median(classical) * 1e6, "us", len(classical)),
            "classical_tail_us": (classical_tail * 1e6, "us", len(classical), pct),
            "figures_s": (median(s["figures"]), "s", len(s["figures"])),
            "saturate_ms": (median(s["saturate"]) * 1e3, "ms", len(s["saturate"])),
        }

    def inputs(self):
        return {"classical_instances_per_round": self.instances,
                "classical_instance_pool": self.pool_size,
                "saturate_per_round": self.saturate_per_round, "saturate_grid": [32, 32]}


WORKLOADS = {w.name: w for w in (McSummary, McEventLog, Exact)}


def planned_rounds(workload, seconds: float, trace: bool) -> int:
    """Rounds a run makes at least (untraced) or exactly (each half of a
    traced run), from the nominal round time, so that sample counts, and so
    the tail percentiles and traced counts, do not depend on how fast the
    code under test is."""
    if trace:
        return max(1, round(seconds / (2 * workload.nominal_round_s)))
    return max(1, math.ceil(seconds / (2 * workload.nominal_round_s)))


def run_rounds(workload, rec, rounds: int, seconds: float) -> tuple[list, list]:
    """Closed loop, one client: each call starts when the previous one has
    returned.  Runs ``rounds`` rounds, and more until ``seconds`` of wall time
    have passed.  Returns each round's timed calls in seconds and in
    reference times."""
    start = time.perf_counter()
    round_s, round_ref = [], []
    while len(round_s) < rounds or time.perf_counter() - start < seconds:
        before_s, before_ref = rec.busy_s, rec.busy_ref
        workload.round(rec)
        round_s.append(rec.busy_s - before_s)
        round_ref.append(rec.busy_ref - before_ref)
    return round_s, round_ref


def tail(values, planned_n: int) -> tuple[float, float]:
    """(value, percentile): the highest ladder percentile with MIN_BEYOND
    samples beyond it at the planned sample count, lowered if fewer samples
    were taken."""
    planned = tail_percentile(planned_n, 100.0) or 50.0
    p = tail_percentile(len(values), planned)
    if p is None:
        return median(values), 50.0
    return percentile(values, p), p


def layer_metrics(tracer, setup_tracer, workload, traced_wall_s, overhead_frac,
                  rss_after_setup) -> dict:
    """Per-layer numbers from the traced rounds; the SETUP_LAYERS also count
    their calls during set-up."""
    spans = tracer.span_totals()
    counters = tracer.counters()
    for name, t in setup_tracer.span_totals().items():
        if name in SETUP_LAYERS:
            merged = spans.setdefault(name, {})
            for key, value in t.items():
                merged[key] = merged.get(key, 0) + value

    def ratio(a, b):
        return a / b if b else 0.0

    def totals(name):
        if name in counters:
            calls, busy, self_ns, _ = counters[name]
            return {"calls": calls, "busy_ns": busy, "self_ns": self_ns}
        return spans.get(name, {})

    run, sample, ev_many = (totals("simulate.run_experiment"), totals("density.sample_many"),
                            totals("steprv.eval_many"))
    trials, draws = run.get("trials", 0), sample.get("draws", 0)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    largest = max((s.attrs.get("trials", 0) for s in tracer.spans
                   if s.name == "simulate.run_experiment"), default=0)
    log = getattr(workload, "log_counts", dict.fromkeys(
        ("rows", "bytes", "write_calls", "write_ns"), 0))
    out = {
        "trace.wall_s": traced_wall_s,
        "trace.overhead_frac": overhead_frac,
        "simulate.trials": trials,
        "simulate.draws": draws,
        "simulate.accept_ratio": ratio(trials, draws),
        "simulate.rss_bytes_per_trial": ratio(max(0, peak - rss_after_setup), largest),
        "simulate.log.rows": log["rows"],
        "simulate.log.bytes": log["bytes"],
        "simulate.log.write_calls": log["write_calls"],
        "simulate.log.write_s": log["write_ns"] / 1e9,
        "density.sample_many.ns_per_draw": ratio(sample.get("busy_ns", 0), draws),
        "steprv.eval_many.points": ev_many.get("points", 0),
        "steprv.eval_many.ns_per_point": ratio(ev_many.get("busy_ns", 0),
                                               ev_many.get("points", 0)),
        "steprv.combine.empty_domain": totals("steprv.combine").get("error.EmptyDomain", 0),
        "cli.write_figures.bytes": getattr(workload, "fig_bytes", 0),
    }
    for name in LAYER_TIMED:
        t = totals(name)
        out[f"{name}.calls"] = int(t.get("calls", 0))
        out[f"{name}.busy_s"] = t.get("busy_ns", 0) / 1e9
        out[f"{name}.self_s"] = t.get("self_ns", 0) / 1e9
        if name not in SETUP_LAYERS:
            out[f"{name}.share"] = ratio(out[f"{name}.busy_s"], traced_wall_s)
    out["density._integrate.us_per_call"] = ratio(out["density._integrate.busy_s"] * 1e6,
                                                  out["density._integrate.calls"])
    return out


# Entry points with calls, busy and self time.  The SETUP_LAYERS also run in
# the mc-* set-up, so a share of the traced rounds' wall time means nothing for them.
SETUP_LAYERS = ("chsh.optimize_family", "chsh.ChshFamily.to_dict", "chsh.ChshFamily.from_dict")
LAYER_TIMED = ("simulate.run_experiment", "density.sample_many", "steprv.eval_many",
               "density._integrate", "steprv.eval", "steprv.combine",
               "intervals.DomainSet.intersect", "chsh.classical_bound_check",
               "cli.write_figures") + SETUP_LAYERS


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", default=None, help="write the traced spans here, one JSON per line")
    args = p.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    runtime = ROOT / ".perfbench-run"
    runtime.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runtime)
    try:
        import_bellhop()
        setup_tracer = Tracer() if args.trace else None
        if setup_tracer is not None:
            setup_tracer.install()
        workload.setup(args.seed, tmp)
        setup_s = time.perf_counter() - T_START
        setup_reference_s = setup_reference()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_reference_s": setup_reference_s}))
            return 0
        if setup_tracer is not None:
            setup_tracer.uninstall()
        rss_after_setup = rss_now_bytes()
        workload.warmup()

        rounds = planned_rounds(workload, args.seconds, bool(args.trace))
        reference = ReferenceKernel(workload.reference_objects)
        rec = Recorder(reference)
        round_s, round_ref = run_rounds(workload, rec, rounds, 0 if args.trace else args.seconds)
        result = {}
        if args.trace:
            # the same rounds again (same seeds, same inputs), traced
            plain_wall = sum(round_s)
            workload.reset()
            tracer = Tracer()
            traced = Recorder(reference, tracer)
            tracer.install()
            try:
                round_s, round_ref = run_rounds(workload, traced, rounds, 0)
            finally:
                tracer.uninstall()
            result["layers"] = layer_metrics(tracer, setup_tracer, workload, sum(round_s),
                                             sum(round_s) / plain_wall - 1.0, rss_after_setup)
            if args.spans:
                tracer.write_spans(args.spans)
            traced.attempted += rec.attempted
            traced.failed += rec.failed
            traced.problems = rec.problems + traced.problems
            rec = traced

        planned_n = rounds * workload.latency_per_round

        def tail_of(values):
            return tail(values, planned_n)

        named = {}
        for name, (value, unit, n, *pct) in workload.named(rec, tail_of).items():
            named[name] = {"value": value, "unit": unit, "n": n}
            if pct:
                named[name]["percentile"] = pct[0]
        latency = rec.samples[workload.latency_kind]
        latency_ref = rec.relative[workload.latency_kind]
        tail_s, tail_pct = tail_of(latency)
        result.update({
            "workload": args.workload,
            "seed": args.seed,
            "attempted": rec.attempted,
            "failed": rec.failed,
            "problems": rec.problems,
            "setup_s": setup_s,
            "setup_reference_s": setup_reference_s,
            "rss_after_setup_bytes": rss_after_setup,
            "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
            "planned_rounds": rounds,
            "inputs": workload.inputs(),
            "named": named,
            "common": {
                "rate_per_s": workload.rate(rec.samples),
                "p50_ms": median(latency) * 1e3,
                "tail_ms": tail_s * 1e3,
                "round_s": median(round_s),
                "rate_per_ref": workload.rate(rec.relative),
                "p50_ref": median(latency_ref),
                "tail_ref": tail_of(latency_ref)[0],
                "round_ref": median(round_ref),
                "tail_percentile": tail_pct,
                "latency_samples": len(latency),
                "round_samples": len(round_s),
                "reference_ms": median(rec.reference_s) * 1e3,
                "reference_samples": len(rec.reference_s),
            },
        })
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            runtime.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
