"""bellhop's benchmark: closed-loop workloads with end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload mc-summary --seed 1 --seconds 30 --trace 0

runs one workload in a fresh process (perfbench/worker.py), sets it up
SETUP_PROBES more times in fresh processes to take the median set-up time,
prints a report (every metric by name, with unit and sample count, and the
run's metadata) and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 the per-layer metrics from a traced run.  --workload all runs every
workload; --trace both makes an untraced and a traced run of each.  --out FILE
writes every result, with metadata, as JSON (perfbench/BENCH_seed.json is made
this way; see perfbench/README.md).  The exit code is 1 when any output fails
its correctness check and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("mc-summary", "mc-eventlog", "exact")
SETUP_PROBES = 10  # extra fresh-process set-ups, half before and half after the measured run
# setup_s is given at the machine speed where the object-heavy reference kernel
# takes this long (its fast-state median on a 2-vCPU Intel Xeon VM)
SETUP_REFERENCE_S = 0.0105
WORKER_TIMEOUT_S = 170



def worker_env() -> dict:
    """One BLAS thread: the client's own threads are run_experiment's n_workers."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def metadata() -> dict:
    import numpy

    git = {"sha": "unknown", "dirty": None, "src_dirty": None}
    if (ROOT / ".git").exists():
        def git_out(*cmd):
            return subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                                  text=True, check=True).stdout.strip()
        try:
            git = {"sha": git_out("rev-parse", "HEAD"),
                   "dirty": bool(git_out("status", "--porcelain", "--untracked-files=no")),
                   "src_dirty": bool(git_out("status", "--porcelain", "--", "src"))}
        except (OSError, subprocess.CalledProcessError):
            pass
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git": git,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Set-up probes, then the measured run, each in its own fresh process."""
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]

    def probe():
        return run_worker(base + ["--setup-only"])

    probes = [probe() for _ in range(SETUP_PROBES // 2)]
    spans = []
    if trace:
        spans_dir = ROOT / ".perfbench-spans"
        spans_dir.mkdir(exist_ok=True)
        spans = ["--spans", str(spans_dir / f"{name}-seed{seed}.jsonl")]
    result = run_worker(base + ["--trace", str(trace)] + spans)
    probes += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    probes.append(result)
    raw = [p["setup_s"] for p in probes]
    reference = [p["setup_reference_s"] for p in probes]
    relative = [s / r for s, r in zip(raw, reference)]
    result["setup"] = {"median_s": statistics.median(relative) * SETUP_REFERENCE_S,
                       "median_ref": statistics.median(relative),
                       "raw_median_s": statistics.median(raw),
                       "samples_s": raw, "reference_s": reference}
    result["trace"] = trace
    return result


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, for BENCHMARK.json's "end_to_end" or "per_layer"."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def end_to_end(result: dict) -> dict:
    values = dict(result["common"], setup_s=result["setup"]["median_s"],
                  peak_rss_mb=result["peak_rss_bytes"] / 1e6)
    return {k: {"value": values[k], "unit": unit} for k, unit in declared("end_to_end").items()}


def per_layer(result: dict) -> dict:
    layers = result["layers"]
    return {k: {"value": layers[k], "unit": unit} for k, unit in declared("per_layer").items()}


def report(result: dict) -> None:
    """Human-readable lines: every metric with unit and sample count."""
    name, c = result["workload"], result["common"]
    tag = f"[{name} seed={result['seed']} trace={result['trace']}]"
    setups = result["setup"]["samples_s"]
    failed_frac = result["failed"] / max(1, result["attempted"])
    print(f"{tag} setup_s = {result['setup']['median_s']:.4f} s "
          f"(= {result['setup']['median_ref']:.4g} ref x {SETUP_REFERENCE_S * 1e3:g} ms; "
          f"raw {result['setup']['raw_median_s']:.4f} s; median of {len(setups)} fresh processes)")
    print(f"{tag} peak_rss_mb = {result['peak_rss_bytes'] / 1e6:.1f} MB (n=1 process)")
    print(f"{tag} failed_ops_frac = {failed_frac:.6g} ({result['failed']} of "
          f"{result['attempted']} operations)")
    for metric, m in result["named"].items():
        pct = f", p{m['percentile']:g}" if "percentile" in m else ""
        print(f"{tag} {metric} = {m['value']:.6g} {m['unit']} (n={m['n']}{pct})")
    tail = f"p{c['tail_percentile']:g}, n={c['latency_samples']}"
    print(f"{tag} reference kernel = {c['reference_ms']:.4g} ms (median, "
          f"n={c['reference_samples']})")
    print(f"{tag} rate_per_ref = {c['rate_per_ref']:.6g} 1/ref ({c['rate_per_s']:.6g} 1/s); "
          f"p50_ref = {c['p50_ref']:.6g} ref ({c['p50_ms']:.6g} ms, n={c['latency_samples']}); "
          f"tail_ref = {c['tail_ref']:.6g} ref ({c['tail_ms']:.6g} ms, {tail}); "
          f"round_ref = {c['round_ref']:.6g} ref ({c['round_s']:.6g} s, n={c['round_samples']})")
    for problem in result["problems"]:
        print(f"{tag} FAILED {problem}")
    if "layers" in result:
        base = result["layers"]["trace.wall_s"]
        for k, m in per_layer(result).items():
            share = f"  (of trace.wall_s = {base:.4g} s)" if k.endswith(".share") else ""
            print(f"{tag} {k} = {m['value']:.6g} {m['unit']}{share}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=("0", "1", "both"), default="0")
    p.add_argument("--out", default=None, help="write all results and metadata as JSON")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "bellhop" / "__init__.py").is_file():
        print(f"perfbench: no bellhop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    meta = metadata()
    print("meta " + json.dumps(meta))
    results = []
    try:
        for name in workloads:
            for trace in traces:
                result = run_workload(name, args.seed, args.seconds, trace)
                report(result)
                results.append(result)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"meta": meta, "seconds": args.seconds, "results": results}, fh,
                      indent=1, sort_keys=True)
            fh.write("\n")

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        r = results[0]
        metrics = per_layer(r) if r["trace"] else end_to_end(r)
    else:
        metrics = {}
        for r in results:
            for k, v in (per_layer(r) if r["trace"] else end_to_end(r)).items():
                metrics[f"{r['workload']}/{k}"] = v
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
