"""The mutation matrix: which tier-1 tests fail under each mutant of bellhop's source.

    python tools/mutants.py > mutants.json

takes no flags.  It reads tools/mutants.json: first the mutations recorded by hand, each an
id, a file, the exact old text and its new text (a retired one, whose code is gone, is not
run); then the functions over which it generates operator mutants with ast: < against <=,
> against >=, + against - (binary and augmented), each integer constant ±1 (but the base of
a power and reshape's -1), and each np.nextafter(a, b) replaced by a.  A generated mutant
whose source equals another mutant's is dropped; recorded mutants of one source share a run.

Each mutant runs tier-1 once, on a fresh copy of the tracked tree in a temporary directory,
one mutant per available CPU at a time, under the "mutants" hypothesis profile of
tests/conftest.py (no shrink or explain phase, derandomized, no database, no deadline), so a
rerun gives the same kills.  A clean run comes first: it must pass, and a mutant's run may
take TIMEOUT_RUNS times as long before it is killed with its whole process group and recorded
as "timeout".

stdout is one JSON object mapping each mutant's id to its failing test ids (a collection
error counts as a failure of its module) or "timeout".  tests/test_mutants.py is left out of
the runs: it checks the list against the source, not the program.  Progress goes to stderr.  The exit
status is 1 if the clean run fails or a mutant survives, an empty list, that mutants.json
does not state to be equivalent; else 0.  The matrix is a lower bound on what tier-1 guards:
a test that kills no mutant here may still guard what no mutant touched.
"""

from __future__ import annotations

import ast
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SPEC = Path(__file__).with_suffix(".json")
TIMEOUT_RUNS = 3  # a mutant's run may take this many clean runs' time
# tests/test_mutants.py fails for any mutant that edits a recorded mutant's old text
PYTEST = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
          "-p", "no:cacheprovider", "--hypothesis-profile=mutants", "--tb=no", "-rfE",
          "--ignore=tests/test_mutants.py"]


class Mutant(NamedTuple):
    id: str
    file: str  # relative to the repository root
    source: str  # the file's whole mutated text


# generated operators: the node type, its label, the operator text and what replaces it
SWAPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
         ast.Add: ("+", "-"), ast.Sub: ("-", "+")}
OP_TEXT = {"<": rb"<(?![<=])", "<=": rb"<=", ">": rb">(?![>=])", ">=": rb">=",
           "+": rb"\+", "-": rb"-"}


def recorded(spec: dict) -> list:
    """The recorded mutants that are not retired, each with its file's mutated text."""
    out = []
    for entry in spec["recorded"]:
        if "retired" in entry:
            continue
        text = (ROOT / entry["file"]).read_text()
        if text.count(entry["old"]) != 1:
            raise SystemExit(f"{entry['id']}: old text found {text.count(entry['old'])} times")
        out.append(Mutant(entry["id"], entry["file"], text.replace(entry["old"], entry["new"])))
    return out


def function(tree: ast.Module, qualname: str):
    """The def named qualname ("f" or "Class.method") in tree."""
    scope = tree
    for name in qualname.split("."):
        scope = next(node for node in scope.body
                     if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name)
    return scope


def skipped(func) -> set:
    """ids of the nodes left alone: the base of a power (its exponent is mutated), reshape's
    -1 (a placeholder, not a count) and anything inside an f-string."""
    out = set()
    for node in ast.walk(func):
        if isinstance(node, ast.JoinedStr):
            out |= {id(n) for n in ast.walk(node)}
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            out.add(id(node.left))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "reshape"):
            out |= {id(arg.operand) for arg in node.args if isinstance(arg, ast.UnaryOp)}
    return out


def sites(func, data: bytes, at) -> list:
    """(start, end, label, new bytes) per mutation site in func's body, in source order:
    start and end are byte offsets into data, at maps ast's (line, column) to one."""
    skip, out = skipped(func), []

    def operator(left, right, op):  # the operator's text between two operands, += too
        old, new = SWAPS[type(op)]
        lo = at(left.end_lineno, left.end_col_offset)
        match = re.search(OP_TEXT[old], data[lo:at(right.lineno, right.col_offset)])
        out.append((lo + match.start(), lo + match.end(), f"{old}>{new}", new.encode()))

    for node in (n for stmt in func.body for n in ast.walk(stmt)):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                if type(op) in SWAPS:
                    operator(left, right, op)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            left, right = (node.left, node.right) if isinstance(node, ast.BinOp) else (
                node.target, node.value)
            operator(left, right, node.op)
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            lo, hi = at(node.lineno, node.col_offset), at(node.end_lineno, node.end_col_offset)
            if data[lo:hi] == str(node.value).encode():  # not written otherwise, e.g. 0x10
                for new in (node.value + 1, node.value - 1):
                    out.append((lo, hi, f"{node.value}>{new}", str(new).encode()))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "nextafter"):
            arg = node.args[0]
            new = data[at(arg.lineno, arg.col_offset):at(arg.end_lineno, arg.end_col_offset)]
            out.append((at(node.lineno, node.col_offset), at(node.end_lineno, node.end_col_offset),
                        "nextafter>arg", b"(" + new + b")"))
    return sorted(out, key=lambda site: site[:2])


def generated(spec: dict, seen: set) -> list:
    """The operator mutants of spec["generate"]'s functions, in file, function and source
    order; ids are module.function:label#k, k counting that label's sites in the function."""
    out = []
    for file, qualnames in spec["generate"].items():
        text = (ROOT / file).read_text()
        data = text.encode()
        starts = [0]
        for line in data.splitlines(keepends=True):
            starts.append(starts[-1] + len(line))
        tree = ast.parse(text)
        for qualname in qualnames:
            counts = {}
            func = function(tree, qualname)
            for lo, hi, label, new in sites(func, data, lambda line, col: starts[line - 1] + col):
                counts[label] = counts.get(label, 0) + 1
                source = (data[:lo] + new + data[hi:]).decode()
                ast.parse(source)
                if (file, source) not in seen:
                    seen.add((file, source))
                    out.append(Mutant(f"{Path(file).stem}.{qualname}:{label}#{counts[label]}",
                                      file, source))
    return out


def copy_tree(dest: Path) -> None:
    """The tracked files of the repository, as they are in its working tree, under dest."""
    files = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, check=True,
                           capture_output=True).stdout.decode().split("\0")
    for name in filter(None, files):
        if (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def run(mutant, timeout):
    """(failing test ids or "timeout", seconds) of tier-1 on a copy with mutant applied."""
    with tempfile.TemporaryDirectory(prefix="bellhop-mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        if mutant is not None:
            (tree / mutant.file).write_text(mutant.source)
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [str(tree / "src"),
                                                           os.environ.get("PYTHONPATH")]))}
        start = time.perf_counter()
        proc = subprocess.Popen(PYTEST, cwd=tree, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the run and every process it started
            proc.communicate()
            return "timeout", time.perf_counter() - start
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        elapsed = time.perf_counter() - start
    failed = sorted({line.split(" ", 1)[1].split(" - ", 1)[0] for line in out.splitlines()
                     if line.startswith(("FAILED ", "ERROR "))})
    if proc.returncode not in (0, 1) or bool(failed) != (proc.returncode == 1):
        failed.append(f"pytest exit status {proc.returncode}")
    return failed, elapsed


def main() -> int:
    spec = json.loads(SPEC.read_text())
    mutants = recorded(spec)
    mutants += generated(spec, {(m.file, m.source) for m in mutants})
    clean, seconds = run(None, None)
    print(f"clean run: {seconds:.1f} s, {len(mutants)} mutants", file=sys.stderr)
    if clean:
        print(f"the clean run fails: {clean}", file=sys.stderr)
        return 1
    timeout = TIMEOUT_RUNS * seconds
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    matrix, runs = {}, {}
    with ThreadPoolExecutor(max_workers=workers or 1) as pool:
        for m in mutants:
            if (m.file, m.source) not in runs:
                runs[m.file, m.source] = pool.submit(run, m, timeout)
        for k, mutant in enumerate(mutants, 1):
            kills, seconds = runs[mutant.file, mutant.source].result()
            matrix[mutant.id] = kills
            shown = kills if isinstance(kills, str) else f"{len(kills)} failed"
            print(f"[{k}/{len(mutants)}] {mutant.id}: {shown} ({seconds:.0f} s)", file=sys.stderr)
    json.dump(matrix, sys.stdout, indent=1)
    print()
    unexplained = [id for id, kills in matrix.items() if not kills and id not in spec["equivalent"]]
    for id in unexplained:
        print(f"survivor without a stated equivalence: {id}", file=sys.stderr)
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
