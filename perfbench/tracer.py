"""Tracing from outside the package: wrappers around bellhop's layer entry points.

Nothing under ``src/`` knows about this module.  ``Tracer.install()`` replaces
module attributes and class methods (``bellhop.simulate.sample_many``,
``bellhop.chsh._integrate``, ``PartialRV.eval_many``, ...) with timing
wrappers and ``uninstall()`` puts the originals back.  End-to-end runs never
call ``install()``.

Two kinds of wrapper:

* span wrappers record one span per call: name, start, end, span id, parent
  span id and the id of the benchmark operation (closed-loop call) it belongs
  to.  Spans are kept in memory and written out by ``write_spans``.
* counter wrappers, for calls that happen ~1e5 times per run (scalar
  ``PartialRV.eval``, ``DomainSet.intersect``, ``_integrate``), keep only
  aggregate call counts, inclusive time and self time per thread.

Self time of a call is its duration minus the time its direct children
cover.  Children on the same thread run one after another, so their
durations add up.  ``run_experiment`` hands trials to a thread pool; a span
opened on a worker thread with nothing open on that thread attaches to the
innermost span open on the client thread, and the part of the parent's
interval that such cross-thread children cover is taken as the union of
their intervals.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

_clock = time.perf_counter_ns


@dataclass
class Span:
    name: str
    span_id: int
    parent_id: int | None
    op_id: int | None
    thread: int
    start_ns: int
    end_ns: int = 0
    child_ns: int = 0  # same-thread direct children, summed
    attrs: dict = field(default_factory=dict)


@dataclass
class _Frame:
    """Open counter call; carries the enclosing span for its descendants."""

    span: Span | None
    child_ns: int = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op_id: int | None = None  # set by the benchmark around each timed call
        self._local = threading.local()
        self._client_thread = threading.get_ident()
        self._client_stack: list = []
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._thread_stats: list[dict] = []
        self._stats_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- per-thread state --------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            if threading.get_ident() == self._client_thread:
                stack = self._client_stack
            else:
                stack = []
            self._local.stack = stack
        return stack

    def _stats(self) -> dict:
        stats = getattr(self._local, "stats", None)
        if stats is None:
            stats = defaultdict(lambda: [0, 0, 0, 0])  # calls, busy, self, errors
            self._local.stats = stats
            with self._stats_lock:
                self._thread_stats.append(stats)
        return stats

    def _new_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    def _enclosing_span(self, stack: list) -> Span | None:
        if stack:
            top = stack[-1]
            return top if isinstance(top, Span) else top.span
        if threading.get_ident() != self._client_thread and self._client_stack:
            top = self._client_stack[-1]
            return top if isinstance(top, Span) else top.span
        return None

    # -- wrappers -----------------------------------------------------------
    def span_wrapper(self, name: str, fn, attrs=None):
        """Wrap fn so each call records a Span.  attrs(args, kwargs, result)
        may return extra per-call numbers (for example points evaluated)."""

        def wrapped(*args, **kwargs):
            stack = self._stack()
            parent = self._enclosing_span(stack)
            span = Span(
                name,
                self._new_id(),
                parent.span_id if parent else None,
                self.op_id,
                threading.get_ident(),
                0,
            )
            same_thread_parent = stack[-1] if stack else None
            stack.append(span)
            span.start_ns = _clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            else:
                if attrs is not None:
                    span.attrs.update(attrs(args, kwargs, result))
                return result
            finally:
                span.end_ns = _clock()
                stack.pop()
                if same_thread_parent is not None:
                    same_thread_parent.child_ns += span.end_ns - span.start_ns
                self.spans.append(span)

        return wrapped

    def counter_wrapper(self, name: str, fn):
        """Wrap fn with aggregate counters only (no span per call)."""

        def wrapped(*args, **kwargs):
            stack = self._stack()
            stat = self._stats()[name]
            frame = _Frame(self._enclosing_span(stack))
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stat[3] += 1
                raise
            finally:
                dur = _clock() - start
                stack.pop()
                if parent is not None:
                    parent.child_ns += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame.child_ns

        return wrapped

    def patch(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the public entry points each module exposes to the one above."""
        from bellhop import chsh, cli, simulate
        from bellhop.intervals import DomainSet
        from bellhop.steprv import PartialRV

        def n_trials(args, kwargs, result):
            return {"trials": args[0].n_trials}

        def n_draws(args, kwargs, result):
            return {"draws": int(args[2])}

        def n_points(args, kwargs, result):
            return {"points": len(args[1])}

        S, C = self.span_wrapper, self.counter_wrapper
        self.patch(simulate, "run_experiment",
                   S("simulate.run_experiment", simulate.run_experiment, n_trials))
        self.patch(simulate, "sample_many",
                   S("density.sample_many", simulate.sample_many, n_draws))
        self.patch(PartialRV, "eval_many",
                   S("steprv.eval_many", PartialRV.eval_many, n_points))
        self.patch(PartialRV, "eval", C("steprv.eval", PartialRV.eval))
        self.patch(cli, "combine", S("steprv.combine", cli.combine))
        self.patch(DomainSet, "intersect",
                   C("intervals.DomainSet.intersect", DomainSet.intersect))
        self.patch(chsh, "_integrate", C("density._integrate", chsh._integrate))
        self.patch(chsh, "classical_bound_check",
                   C("chsh.classical_bound_check", chsh.classical_bound_check))
        self.patch(chsh, "optimize_family",
                   S("chsh.optimize_family", chsh.optimize_family))
        self.patch(chsh.ChshFamily, "to_dict",
                   S("chsh.ChshFamily.to_dict", chsh.ChshFamily.to_dict))
        self.patch(chsh.ChshFamily, "from_dict",
                   staticmethod(S("chsh.ChshFamily.from_dict", chsh.ChshFamily.from_dict)))
        self.patch(cli, "write_figures", S("cli.write_figures", cli.write_figures))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------
    def counters(self) -> dict[str, list[int]]:
        """name -> [calls, busy_ns, self_ns, errors], summed over threads."""
        total: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
        with self._stats_lock:
            for stats in self._thread_stats:
                for name, values in stats.items():
                    for i, v in enumerate(values):
                        total[name][i] += v
        return dict(total)

    def span_self_ns(self) -> dict[int, int]:
        """span id -> self time: duration minus same-thread children minus
        the union of cross-thread children's intervals."""
        by_id = {s.span_id: s for s in self.spans}
        cross: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for s in self.spans:
            parent = by_id.get(s.parent_id)
            if parent is not None and parent.thread != s.thread:
                cross[parent.span_id].append((s.start_ns, s.end_ns))
        out = {}
        for s in self.spans:
            covered = union_length(cross.get(s.span_id, ()), s.start_ns, s.end_ns)
            out[s.span_id] = s.end_ns - s.start_ns - s.child_ns - covered
        return out

    def span_totals(self) -> dict[str, dict[str, float]]:
        """name -> {calls, busy_ns, self_ns, errors, <attr sums>}."""
        self_ns = self.span_self_ns()
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            t = out[s.name]
            t["calls"] += 1
            t["busy_ns"] += s.end_ns - s.start_ns
            t["self_ns"] += self_ns[s.span_id]
            for key, value in s.attrs.items():
                if key == "error":
                    t["errors"] += 1
                    t["error." + value] += 1
                else:
                    t[key] += value
        return {k: dict(v) for k, v in out.items()}

    def write_spans(self, path) -> None:
        """One JSON object per span, in completion order."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "span_id": s.span_id, "parent_id": s.parent_id,
                    "op_id": s.op_id, "thread": s.thread,
                    "start_ns": s.start_ns, "end_ns": s.end_ns, **s.attrs,
                }) + "\n")


def union_length(intervals, lo: int, hi: int) -> int:
    """Length of the union of [start, end) intervals clipped to [lo, hi)."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class CountingLog:
    """Text file wrapper counting the rows, bytes, write calls and write time
    of an event log.  The traced run passes it to ``run_experiment``."""

    def __init__(self, fh):
        self._fh = fh
        self.rows = 0
        self.bytes = 0
        self.write_calls = 0
        self.write_ns = 0

    def write(self, text: str) -> int:
        start = _clock()
        n = self._fh.write(text)
        self.write_ns += _clock() - start
        self.write_calls += 1
        self.rows += text.count("\n")
        self.bytes += len(text.encode())
        return n
