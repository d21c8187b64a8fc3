"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest perfbench -q

Each correctness check must pass on real output and fail on a deliberately
corrupted copy of it.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
from bellhop import chsh, cli, simulate  # noqa: E402
from bellhop.intervals import DomainSet  # noqa: E402
from bellhop.steprv import PartialRV  # noqa: E402


@pytest.fixture(scope="module")
def interior_family():
    family, _ = chsh.optimize_family((0.7, 0.7, 0.7, -0.7), (8, 8))
    return family, chsh.chsh_value(*family.expectations())


def test_summary_check_passes_and_catches_10_se_shift(interior_family):
    family, exact_s = interior_family
    n = 40_000
    summary = simulate.run_experiment(simulate.ExperimentConfig(family, n, master_seed=3))
    counts = checks.summary_counts(summary)
    assert checks.check_summary(counts, n, exact_s) == []

    var = sum((1 - (c[1] / c[0]) ** 2) / c[0] for c in counts)
    trials, sum_ab, sum_a, sum_b = counts[0]
    shifted = [(trials, sum_ab + int(10 * var**0.5 * trials), sum_a, sum_b)] + counts[1:]
    assert any("se from exact S" in p for p in checks.check_summary(shifted, n, exact_s))

    lost = [(trials - 1, sum_ab, sum_a, sum_b)] + counts[1:]
    assert any("sum to" in p for p in checks.check_summary(lost, n, exact_s))


def test_event_log_check_passes_and_catches_one_flipped_outcome(tmp_path):
    family = chsh.saturating_family()
    n = 2_000
    path = tmp_path / "events.csv"
    with open(path, "w") as fh:
        summary = simulate.run_experiment(simulate.ExperimentConfig(family, n, 5), event_log=fh)
    counts = checks.summary_counts(summary)
    assert checks.check_event_log(path, counts, n) == []

    lines = path.read_text().splitlines(keepends=True)
    row = lines[100].rstrip("\n").split(",")
    row[5] = "+1" if row[5] == "-1" else "-1"
    lines[100] = ",".join(row) + "\n"
    path.write_text("".join(lines))
    problems = checks.check_event_log(path, counts, n)
    assert any("quarter-band rule" in p for p in problems)

    path.write_text("".join(lines[:-1]))
    assert checks.check_event_log(path, counts, n)


def test_figure_check_passes_and_catches_one_changed_byte(tmp_path):
    cli.write_figures(str(tmp_path))
    assert checks.check_figures(tmp_path) == []
    fig = tmp_path / "fig2.csv"
    data = bytearray(fig.read_bytes())
    data[1000] ^= 1
    fig.write_bytes(bytes(data))
    assert checks.check_figures(tmp_path) == ["fig2.csv differs from the seed commit's bytes"]


def test_classical_and_saturate_checks():
    assert checks.check_classical(2.0) == []
    assert checks.check_classical(-2.0 - 1e-9)

    family, _ = chsh.optimize_family((1.0, 1.0, 1.0, -1.0), (8, 8))
    text = json.dumps(family.to_dict())
    assert checks.check_saturated_family(text, (1.0, 1.0, 1.0, -1.0)) == []
    d = json.loads(text)
    d["rho11"]["weights"][0] += 0.5
    assert checks.check_saturated_family(json.dumps(d), (1.0, 1.0, 1.0, -1.0))


def test_union_length():
    assert tracer_mod.union_length([(0, 10), (5, 15), (20, 30)], 0, 100) == 25
    assert tracer_mod.union_length([(0, 10), (5, 15)], 8, 12) == 4
    assert tracer_mod.union_length([], 0, 10) == 0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert worker.tail_percentile(1000, 100.0) == 99.0
    assert worker.tail_percentile(150, 100.0) == 90.0
    assert worker.tail_percentile(100, 100.0) == 90.0  # exactly ten beyond
    assert worker.tail_percentile(150, 75.0) == 75.0
    assert worker.tail_percentile(15, 100.0) is None


def test_tracer_attaches_worker_spans_and_restores_originals(interior_family):
    family, _ = interior_family
    originals = (simulate.run_experiment, simulate.sample_many,
                 PartialRV.__dict__["eval_many"], DomainSet.__dict__["intersect"],
                 chsh.ChshFamily.__dict__["from_dict"])
    t = tracer_mod.Tracer()
    t.install()
    try:
        simulate.run_experiment(simulate.ExperimentConfig(family, 20_000, 1, n_workers=2))
        chsh.ChshFamily.from_dict(family.to_dict())
    finally:
        t.uninstall()
    assert (simulate.run_experiment, simulate.sample_many, PartialRV.__dict__["eval_many"],
            DomainSet.__dict__["intersect"], chsh.ChshFamily.__dict__["from_dict"]) == originals

    totals = t.span_totals()
    run = next(s for s in t.spans if s.name == "simulate.run_experiment")
    children = [s for s in t.spans if s.name in ("density.sample_many", "steprv.eval_many")]
    assert children and all(s.parent_id == run.span_id for s in children)
    assert {s.thread for s in children} != {run.thread}  # ran on the pool's threads
    assert totals["density.sample_many"]["draws"] == 20_000
    assert totals["steprv.eval_many"]["points"] == 40_000
    assert 0 <= totals["simulate.run_experiment"]["self_ns"] <= totals["simulate.run_experiment"]["busy_ns"]
    assert totals["chsh.ChshFamily.from_dict"]["calls"] == 1
    calls, busy, self_ns, _ = t.counters()["density._integrate"]
    assert calls == 8 and 0 <= self_ns <= busy  # to_dict integrates each pair twice


def test_counting_log_counts_rows_and_bytes(tmp_path):
    with open(tmp_path / "log.csv", "w") as fh:
        log = tracer_mod.CountingLog(fh)
        log.write("a,b\n")
        log.write("1,2\n3,4\n")
    assert (log.rows, log.bytes, log.write_calls) == (3, 12, 2)
