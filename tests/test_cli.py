import hashlib
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import bellhop
from bellhop import chsh, simulate
from bellhop.chsh import MAX_GRID
from bellhop.cli import EXIT_RUNTIME, MAX_CHECKS, _build_parser, _runs, main, write_figures
from bellhop.intervals import Interval
from bellhop.steprv import PartialRV, make_step
from support import gapped_step_rvs, sub_rectangle_family


# SHA-256 of the reference figure data; perfbench/checks.py pins the same digests
FIGURE_SHA256 = {
    "fig1.csv": "fcbd477d0c0fae0b9795459c9af72a179baa8c33ef895605ad929f7b52a88baf",
    "fig2.csv": "15d0f131b736bb271176d08c0cf568d808f8f016f6dbfdfc34346ceb46eba627",
    "fig3.csv": "652fe43c6dfa5b88b659203542bfd08feda3cc9379776849c5420e83c4e4a7d4",
}


# (argv, the last stderr line after "error: argument "); the test ids are
# argv0, argv1, ... in list order, so a new case goes at the end
BAD_INT_FLAGS = [
    (["simulate", "--family", "f.json", "--seed", "1", "--trials", "0"],
     "--trials: must be a positive integer, got 0"),
    (["simulate", "--family", "f.json", "--seed", "1", "--trials", "9",
      "--workers", "0"],
     "--workers: must be a positive integer, got 0"),
    (["check-classical", "--trials", "-5"],
     "--trials: must be a positive integer, got -5"),
    (["check-classical", "--trials", "many"],
     "--trials: must be an integer, got 'many'"),
    (["saturate", "--out", "f.json", "--grid", "0"],
     "--grid: must be a positive integer, got 0"),
    (["saturate", "--out", "f.json", "--grid", "-4"],
     "--grid: must be a positive integer, got -4"),
    (["simulate", "--family", "f.json", "--seed", "-3", "--trials", "9"],
     "--seed: must be a non-negative integer, got -3"),
    (["check-classical", "--trials", "1", "--seed", "-1"],
     "--seed: must be a non-negative integer, got -1"),
    # just past the int64 trial cap, the largest grid and the worker cap; nothing runs
    (["simulate", "--family", "f.json", "--seed", "1", "--trials", str(2**63)],
     "--trials: at most 9223372036854775807 (2**63 - 1, the int64 limit), "
     "got 9223372036854775808"),
    (["saturate", "--out", "f.json", "--grid", str(MAX_GRID + 1)],
     "--grid: at most 512 (the largest grid measured), got 513"),
    (["simulate", "--family", "f.json", "--seed", "1", "--trials", "9",
      "--workers", "1025"],
     "--workers: at most 1024 (25 ms of per-worker set-up), got 1025"),
    # text that is no integer gets one message on every flag
    (["saturate", "--out", "f.json", "--grid", "4.0"],
     "--grid: must be an integer, got '4.0'"),
    (["simulate", "--family", "f.json", "--seed", "x", "--trials", "9"],
     "--seed: must be an integer, got 'x'"),
    # past int()'s limit on digits: the digits are counted, not echoed
    (["check-classical", "--trials", "9" * 5000],
     "--trials: must have at most 4300 digits, got 5000"),
    (["simulate", "--family", "f.json", "--seed", "1", "--trials", "9" * 5000],
     "--trials: must have at most 4300 digits, got 5000"),
    (["simulate", "--family", "f.json", "--seed", "+" + "9" * 5000, "--trials", "9"],
     "--seed: must have at most 4300 digits, got 5000"),
    # long text that is no integer is echoed up to its 40th character
    (["check-classical", "--trials", "x" * 5000],
     f"--trials: must be an integer, got '{'x' * 40}…'"),
    # an out-of-range integer of more than 40 digits is counted, not echoed
    (["simulate", "--family", "f.json", "--seed", "1", "--trials", "9",
      "--workers", "9" * 4000],
     "--workers: at most 1024 (25 ms of per-worker set-up), got a 4000-digit number"),
    (["check-classical", "--trials", "-" + "9" * 4000],
     "--trials: must be a positive integer, got a 4000-digit number"),
    # check-classical's cap keeps a run near half an hour
    (["check-classical", "--trials", "10000001"],
     "--trials: at most 10000000 (about half an hour at 0.17 ms an instance), got 10000001"),
    (["check-classical", "--trials", "1" + "0" * 40],
     "--trials: at most 10000000 (about half an hour at 0.17 ms an instance), got a 41-digit number"),
]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_section(heading):
    """The lines of README.md under heading, up to the next heading."""
    lines = README.read_text().splitlines()
    start = lines.index(heading) + 1
    ends = (i for i in range(start, len(lines)) if re.match(r"#+ ", lines[i]))
    return lines[start:next(ends, len(lines))]


def readme_commands():
    """The README's CLI examples, in order, as (line, argv, stdout, exit code).  A line
    `bellhop ...  # text  (exit N)` is a command, text the first line of its stdout and N
    its exit code (0 when the line names none); each line after it that holds only
    `# text` is one more line of its stdout."""
    block = readme_section("## CLI")
    block = block[block.index("```sh") + 1:]
    commands = []
    for line in block[:block.index("```")]:
        command, _, comment = line.partition("#")
        out, code = re.fullmatch(r"(?: (.*?)(?:\s+\(exit (\d+)\))?)?", comment).groups()
        out = "" if out is None else out + "\n"
        if command.strip():
            commands.append((line, shlex.split(command)[1:], out, int(code or 0)))
        else:
            line, argv, prior, code = commands.pop()
            commands.append((line, argv, prior + out, code))
    return commands


def readme_example(prefix):
    """(argv, stdout, exit code) of the README's CLI example whose line starts with prefix."""
    return next(example[1:] for example in readme_commands() if example[0].startswith(prefix))


def readme_exit_codes():
    """The rows of the README's exit-code table: (exit code, argv, line printed)."""
    rows = []
    for line in readme_section("### Exit codes"):
        cells = [cell.strip().strip("`") for cell in line.strip("|").split(" | ")]
        if line.startswith("| ") and cells[0].isdigit():
            rows.append((int(cells[0]), shlex.split(cells[1])[1:], cells[2]))
    return rows


def fresh_python(*argv, cwd=None):
    """python argv in a fresh interpreter, in cwd, that imports this checkout's bellhop."""
    src = str(Path(bellhop.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          cwd=cwd, timeout=120)


SIMULATE = ["simulate", "--family", "sub.json", "--trials", "200000", "--seed", "1",
            "--workers", "2"]


@pytest.mark.parametrize("argv, skips_numpy_ma", [
    pytest.param(["--help"], False, id="help"),
    pytest.param(["eval", "--alpha", "0", "--x", "0.5"], False, id="eval"),
    pytest.param(["domain", "--expr", "a0*b0"], False, id="domain"),
    pytest.param(["saturate", "--out", "family.json"], False, id="saturate"),
    pytest.param(["expect", "--family", "sub.json"], False, id="expect"),
    pytest.param(SIMULATE, True, id="simulate"),
    pytest.param([*SIMULATE, "--log", "events.csv"], True, id="simulate-log"),
    pytest.param(["check-classical", "--trials", "1000"], True, id="check-classical"),
    pytest.param(["figures", "--out", "figures"], False, id="figures"),
])
def test_quiet_in_a_fresh_interpreter(tmp_path, argv, skips_numpy_ma):
    # exit 0 and an empty stderr where no earlier test imported a module or filtered a
    # warning: no leaked warning or traceback.  np.unique's first call imports numpy.ma, a
    # cost of a process's set-up (steprv.value_lengths) that runs and check-classical skip
    (tmp_path / "sub.json").write_text(json.dumps(sub_rectangle_family().to_dict()))
    check = 'assert "numpy.ma" not in sys.modules, "numpy.ma imported"' if skips_numpy_ma else ""
    proc = fresh_python("-c", "import sys\nfrom bellhop import cli\n"
                        f"code = cli.main(sys.argv[1:])\n{check}\nsys.exit(code)", *argv,
                        cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")


class TestReadme:
    """README.md's commands are an executed spec, and its module table an index."""

    def test_cli_examples(self, capsys, tmp_path, monkeypatch):
        # every command of the CLI block, in order in one directory: its exit code, its whole
        # stdout and an empty stderr
        monkeypatch.chdir(tmp_path)
        for line, argv, out, code in readme_commands():
            assert run(capsys, *argv) == (code, out, ""), line

    @pytest.mark.parametrize("code, argv, line", readme_exit_codes(),
                             ids=[" ".join(argv) for _, argv, _ in readme_exit_codes()])
    def test_exit_code_row(self, capsys, tmp_path, monkeypatch, code, argv, line):
        # the row's line is the first one printed, or at exit 1 the last, after the usage
        monkeypatch.chdir(tmp_path)
        run(capsys, "saturate", "--out", "family.json")
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
        printed = "".join(capsys.readouterr()).splitlines()
        assert got == code
        if code == 1:
            assert printed[0].startswith("usage: bellhop ") and printed[-1] == line
        else:
            assert printed[0] == line

    def test_module_table_is_an_index(self):
        # one or two sentences and the public names a row: the rest is in the docstrings
        lines = README.read_text().splitlines()
        assert max(map(len, lines)) <= 300
        table = [line for line in readme_section("## Library overview") if line.startswith("|")]
        assert len("\n".join(table).encode()) <= 4096
        for row in table[2:]:
            module, what = re.fullmatch(r"\| `(bellhop\.\w+)` \| (.*) \|", row).groups()
            module = importlib.import_module(module)
            for name in re.findall(r"`([^`]*)`", what):
                assert hasattr(module, name), (module.__name__, name)


class TestEval:
    def test_plus_one(self, capsys):
        argv, out, code = readme_example("bellhop eval ")
        assert argv == ["eval", "--alpha", "0", "--x", "0.5"]
        assert run(capsys, *argv)[:2] == (code, out) == (0, "+1\n")

    def test_out_of_domain(self, capsys):
        code, out, _ = run(capsys, "eval", "--alpha", "0", "--x", "1.5")
        assert code == 0
        assert out.strip() == "OutOfDomain"

    def test_undefined_point(self, capsys):
        code, out, _ = run(capsys, "eval", "--alpha", "0", "--x", "0.25")
        assert code == 0
        assert out.strip() == "UndefinedPoint"

    @pytest.mark.parametrize("argv", [
        ("--alpha", "nan", "--x", "0.5"),
        ("--alpha", "0", "--x", "nan"),
        ("--alpha", "0", "--x", "inf"),
    ], ids=["alpha-nan", "x-nan", "x-inf"])
    def test_non_finite_flag_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "eval", *argv)
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("alpha", ["1e17", "4503599627370495", "1e300", "inf"])
    def test_huge_alpha_exit_2(self, capsys, alpha):
        # alpha + 1/4 rounds back to alpha: there are no quarter bands
        code, out, err = run(capsys, "eval", "--alpha", alpha, "--x", alpha)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "quarter points" in err


class TestDomain:
    # the README's examples are the checker's exact text
    def test_empty_verdict_exit_3(self, capsys):
        argv, out, code = readme_example('bellhop domain --expr "(a0+a1)*b0"')
        assert run(capsys, *argv)[:2] == (code, out)
        assert code == 3 and "(a0 + a1)" in out

    def test_exists_exit_0(self, capsys):
        argv, out, code = readme_example('bellhop domain --expr "a0*b0"')
        assert run(capsys, *argv)[:2] == (code, out)
        assert code == 0 and out.startswith("EXISTS")

    def test_syntax_error_exit_2(self, capsys):
        code, _, err = run(capsys, "domain", "--expr", "a0**b0")
        assert code == 2
        assert "syntax error" in err

    def test_overflowing_index_exit_2(self, capsys):
        # 1e400 is no float: a bad index, not an empty-domain verdict
        code, out, err = run(capsys, "domain", "--expr", "a[1" + "0" * 400 + "]")
        assert code == 2
        assert out == ""
        assert "syntax error" in err and "position 2" in err

    @pytest.mark.parametrize("expr", ["a[100000000000000000]", "a0*b[4503599627370496]"])
    def test_huge_index_exit_2(self, capsys, expr):
        # a float index, but too large for a setting: an error, not an EMPTY verdict
        code, out, err = run(capsys, "domain", "--expr", expr)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "quarter points" in err

    @pytest.mark.parametrize("expr, want", [("-a0*b0", 0), ("-(a0+a1)*b0", 3), ("-a[0.5]", 0)])
    def test_leading_minus(self, capsys, expr, want):
        # --expr takes an expression that starts with "-" as its value, not as an option
        spaced = run(capsys, "domain", "--expr", expr)
        assert spaced == run(capsys, "domain", f"--expr={expr}")
        assert spaced[0] == want and spaced[2] == ""


class TestUsage:
    def test_missing_subcommand_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == 1

    def test_unknown_flag_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["eval", "--nope", "1"])
        assert exc_info.value.code == 1

    @pytest.mark.parametrize("argv, message", BAD_INT_FLAGS,
                             ids=[f"argv{i}" for i in range(len(BAD_INT_FLAGS))])
    def test_bad_int_flag_exit_1(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"error: argument {message}"
        assert len(err.encode()) < 300  # usage and one line: long values are not echoed

    @pytest.mark.parametrize("command", [[], ["eval"], ["domain"], ["expect"], ["saturate"],
                                         ["simulate"], ["check-classical"], ["figures"]],
                             ids=lambda c: " ".join(c) or "bellhop")
    def test_help_exit_0(self, capsys, command):
        with pytest.raises(SystemExit) as exc_info:
            main([*command, "--help"])
        assert exc_info.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith(f"usage: {' '.join(['bellhop', *command])} ")
        assert err == ""

    def test_workers_above_cap_exit_1(self, capsys):
        # rejected by the parser, before any family is read, on every machine
        parse = _build_parser().parse_args
        argv = ["simulate", "--family", "f.json", "--seed", "1", "--trials", "9", "--workers"]
        assert parse([*argv, str(simulate.MAX_WORKERS)]).workers == 1024
        with pytest.raises(SystemExit) as exc_info:
            main([*argv, str(simulate.MAX_WORKERS + 1)])
        assert exc_info.value.code == 1
        assert "at most 1024" in capsys.readouterr().err

    def test_trial_cap_is_int64_max(self):
        parse = _build_parser().parse_args
        args = parse(["simulate", "--family", "f.json", "--seed", "1", "--trials", str(2**63 - 1)])
        assert args.trials == 2**63 - 1 == simulate.MAX_TRIALS

    def test_check_cap_is_accepted(self):
        args = _build_parser().parse_args(["check-classical", "--trials", str(MAX_CHECKS)])
        assert args.trials == MAX_CHECKS == 10**7

    @pytest.mark.parametrize("command", ["saturate", "figures"])
    def test_empty_out_exit_2(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, command, "--out", "")
        assert code == 2
        assert out == ""
        assert err == "error: --out is empty: it names no file or directory\n"
        assert list(tmp_path.iterdir()) == []

    def test_empty_log_exit_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(capsys, "saturate", "--out", "f.json")
        code, out, err = run(capsys, "simulate", "--family", "f.json", "--trials", "100",
                             "--seed", "1", "--log", "")
        assert (code, out) == (2, "")
        assert err == "error: --log is empty: it names no file or directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["f.json"]

    def test_log_limit_exit_2(self, capsys, tmp_path):
        # a logged worker takes fewer than 1e9 trials: refused before any row
        path, log = tmp_path / "f.json", tmp_path / "events.csv"
        run(capsys, "saturate", "--out", str(path))
        code, out, err = run(capsys, "simulate", "--family", str(path), "--trials",
                             str(10**9), "--seed", "1", "--log", str(log))
        assert (code, out) == (2, "")
        assert err.startswith("error: an event log needs fewer than 1e9 trials per worker")
        assert not log.exists()

    def test_out_of_memory_exit_2(self, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError
        monkeypatch.setattr(chsh, "optimize_family", exhausted)
        code, out, err = run(capsys, "saturate", "--out", "f.json", "--grid", str(MAX_GRID))
        assert (code, out, err) == (2, "", "error: MemoryError\n")

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "expect", "--family", "/nonexistent.json")
        assert code == 2

    NESTED = "[" * 100_000 + "]" * 100_000

    @pytest.mark.parametrize("argv, family", [
        (["expect"], NESTED),
        (["simulate", "--trials", "10", "--seed", "1"], '{"rho00": ' + NESTED + "}"),
        (["domain", "--expr", "(" * 5000 + "a0" + ")" * 5000], None),
        (["domain", "--expr", "*".join(["a0"] * 3000)], None),
        (["domain", "--expr=" + "-" * 5000 + "a0"], None),
    ], ids=["family", "rho00", "parentheses", "factors", "unary-minus"])
    def test_deep_nesting_exit_2(self, capsys, tmp_path, argv, family):
        # nested past the interpreter's recursion limit: an error, not a traceback
        if family is not None:
            path = tmp_path / "deep.json"
            path.write_text(family)
            argv = [*argv, "--family", str(path)]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "recursion" in err


class TestFamilyPipeline:
    def test_saturate_then_expect(self, capsys, tmp_path):
        # the closed-form construction saturates exactly, with zero marginals
        for grid in ("4", "8"):
            path = tmp_path / f"sat{grid}.json"
            code, _, _ = run(capsys, "saturate", "--out", str(path), "--grid", grid)
            assert code == 0
            payload = json.loads(path.read_text())
            assert payload["expectations"]["S"] == 4.0
            code, out, _ = run(capsys, "expect", "--family", str(path))
            assert code == 0
            assert out.splitlines()[-1] == "S = 4"
            for line in out.splitlines():
                if line.startswith("<"):
                    assert line.endswith("= 0")

    def test_saturate_default_grid_is_4(self, capsys, tmp_path):
        run(capsys, "saturate", "--out", str(tmp_path / "default.json"))
        run(capsys, "saturate", "--out", str(tmp_path / "grid4.json"), "--grid", "4")
        assert (tmp_path / "default.json").read_bytes() == (tmp_path / "grid4.json").read_bytes()
        # saturating_family() and the command both take their targets from chsh.SIGNS
        library = json.dumps(chsh.saturating_family().to_dict(), indent=2, sort_keys=True)
        assert (tmp_path / "default.json").read_text() == library + "\n"

    def test_saturate_and_expect_integrate_each_pair_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        integrate = chsh._integrate
        monkeypatch.setattr(
            chsh, "_integrate", lambda *args: calls.append(args) or integrate(*args)
        )
        path = tmp_path / "opt.json"
        assert run(capsys, "saturate", "--out", str(path), "--grid", "8")[0] == 0
        assert len(calls) == len(chsh.PAIRS)
        calls.clear()
        assert run(capsys, "expect", "--family", str(path))[0] == 0
        assert len(calls) == len(chsh.PAIRS)

    def test_simulate(self, capsys, tmp_path):
        path = tmp_path / "sat.json"
        run(capsys, "saturate", "--out", str(path))
        log = tmp_path / "events.csv"
        code, out, _ = run(
            capsys, "simulate", "--family", str(path), "--trials", "2000",
            "--seed", "7", "--workers", "2", "--log", str(log),
        )
        assert code == 0
        assert "S = 4.000000" in out
        lines = log.read_text().splitlines()
        assert lines[0] == "trial,alpha,beta,x,y,a,b"
        assert len(lines) == 2001

    @pytest.mark.parametrize("command", ["expect", "simulate"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weight_exit_2(self, capsys, tmp_path, command, bad):
        path = tmp_path / "bad.json"
        run(capsys, "saturate", "--out", str(path))
        payload = json.loads(path.read_text())
        payload["rho01"]["weights"][3] = bad
        path.write_text(json.dumps(payload))
        extra = ["--trials", "100", "--seed", "1"] if command == "simulate" else []
        code, out, err = run(capsys, command, "--family", str(path), *extra)
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_overflowing_weights_print_only_the_error(self, capsys, tmp_path):
        # a fresh interpreter running the script's entry function, so stderr
        # holds what a user sees, numpy's default warning output included
        path = tmp_path / "big.json"
        run(capsys, "saturate", "--out", str(path))
        payload = json.loads(path.read_text())
        payload["rho00"]["weights"] = [1e308] * len(payload["rho00"]["weights"])
        path.write_text(json.dumps(payload))
        proc = fresh_python("-c", "from bellhop.cli import entry; entry()",
                            "expect", "--family", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("corrupt, named", [
        (lambda p: {k: v for k, v in p.items() if k != "rho00"}, "rho00"),
        (lambda p: list(p), "list"),
        (lambda p: {**p, "rho11": {k: v for k, v in p["rho11"].items() if k != "nx"}},
         "nx"),
        # a rectangle off its pair's domains
        (lambda p: {**p, "rho10": {**p["rho10"], "x_rect": [0.0, 1.0]}}, "rho10"),
    ], ids=["no-rho00", "list", "density-no-nx", "rho10"])
    def test_malformed_family_exit_2(self, capsys, tmp_path, corrupt, named):
        path = tmp_path / "bad.json"
        run(capsys, "saturate", "--out", str(path))
        path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
        code, out, err = run(capsys, "expect", "--family", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and named in err

    def test_edited_weight_exit_2(self, capsys, tmp_path):
        # the stored expectations no longer match the weights
        path = tmp_path / "edited.json"
        run(capsys, "saturate", "--out", str(path), "--grid", "8")
        payload = json.loads(path.read_text())
        payload["rho10"]["weights"][9] += 0.5
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "expect", "--family", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "expectations" in err

    @pytest.mark.parametrize("nx, ny", [(0, 4), (4, 0), (-1, 2)])
    def test_grid_size_below_one_exit_2(self, capsys, tmp_path, nx, ny):
        path = tmp_path / "bad.json"
        run(capsys, "saturate", "--out", str(path))
        payload = json.loads(path.read_text())
        payload["rho10"].update(nx=nx, ny=ny, weights=[1.0] * 4)
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "expect", "--family", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "positive integer" in err

    def test_check_classical(self, capsys):
        code, out, _ = run(capsys, "check-classical", "--trials", "20")
        assert code == 0
        assert out.startswith("OK")

    def test_check_classical_fail(self, capsys, monkeypatch):
        # an instance past the bound stops the run at once: its |S| on stdout, exit 2
        monkeypatch.setattr(chsh, "classical_bound_check", lambda *args: 2.0 + 1e-9)
        code, out, err = run(capsys, "check-classical", "--trials", "20")
        assert code == EXIT_RUNTIME == 2
        assert (out, err) == (f"FAIL: |S| = {2.0 + 1e-9!r} > 2\n", "")


class TestFigures:
    def test_byte_identical(self, tmp_path):
        write_figures(tmp_path / "one")
        write_figures(tmp_path / "two")
        for name in ("fig1.csv", "fig2.csv", "fig3.csv"):
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "two" / name
            ).read_bytes()

    def test_pinned_digests(self, tmp_path):
        assert main(["figures", "--out", str(tmp_path)]) == 0
        for name, want in FIGURE_SHA256.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want

    def test_runs(self):
        rv = make_step([0.0, 1.0, 2.0, 3.0], [-0.0, 0.0, -1.0], "x")
        xs = np.array([0.5, 0.6, 1.0, 1.5, 1.7, 2.5, 3.5, 4.0])
        runs = _runs(rv, xs)
        # -0.0 and 0.0 compare equal but make separate runs, with a nan run between or not
        assert runs == [("-0", 2), ("nan", 1), ("0", 2), ("-1", 1), ("nan", 2)]
        assert sum(n for _, n in runs) == len(xs)
        assert _runs(rv, np.array([0.5, 1.5])) == [("-0", 1), ("0", 1)]
        assert _runs(rv, np.array([2.25, 2.5, 2.75])) == [("-1", 3)]
        assert _runs(rv, np.array([-1.0, 1.0, 2.0, 7.0])) == [("nan", 4)]
        assert _runs(rv, np.array([])) == []
        # runs are maximal: one value across a breakpoint, or a gap, that holds no x
        for ends in ([0.0, 1.0, 2.0], [0.0, 1.0, 1.5, 2.0]):
            gapped = PartialRV(((Interval(ends[0], ends[1]), 1.0),
                                (Interval(ends[-2], ends[-1]), 1.0)), "x")
            assert _runs(gapped, np.array([0.5, 1.75])) == [("1", 2)]
            assert _runs(gapped, np.array([-2.0, -1.0, 0.5, 1.75, 1.8])) == [("nan", 2), ("1", 3)]

    @given(gapped_step_rvs(), st.lists(st.floats(-1.0, 3.0)),
           st.sampled_from(["every end", "some points", "empty"]))
    def test_runs_match_eval_many(self, rv, extra, grid):
        # increasing grids: every breakpoint with its float neighbours and points outside
        # the domain (which lies in [0, 2]), or drawn points alone, which may leave a
        # breakpoint or a gap with no x, or no point at all
        ends = np.array(rv.breakpoints())
        points = {*extra} if grid == "some points" else {
            *extra, *ends, *np.nextafter(ends, -np.inf), *np.nextafter(ends, np.inf), -1.0, 3.0}
        xs = np.array(sorted(set() if grid == "empty" else points), dtype=float)
        runs = _runs(rv, xs)
        values, defined = rv.eval_many(xs)
        assert [text for text, n in runs for _ in range(n)] == [
            f"{v:.17g}" if d else "nan" for v, d in zip(values.tolist(), defined.tolist())]
        assert all(n > 0 for _, n in runs)
        assert all(a != b for (a, _), (b, _) in zip(runs, runs[1:]))

    def test_fig2_blocks_have_seven_runs(self):
        # a -1/+1/-1 step function on the closed span of its setting interval:
        # three bands, and a one-row nan run at each of its four breakpoints,
        # which all lie on the x grid
        steps = np.arange(1001) / 1000
        for i in range(101):
            alpha = i / 100
            runs = _runs(bellhop.make_observable(alpha), alpha + steps)
            assert len(runs) == 7
            assert {text for text, _ in runs} <= {"-1", "1", "nan"}
            assert sum(n for _, n in runs) == len(steps)

    def test_fig1_contents(self, tmp_path):
        write_figures(tmp_path)
        lines = (tmp_path / "fig1.csv").read_text().splitlines()
        assert lines[0] == "x,a0,logcurve"
        for line in lines[1:]:
            x_text, a_text, _ = line.split(",")
            x = float(x_text)
            if x in (0.0, 0.25, 0.75, 1.0):
                assert a_text == "nan"
            elif 0.25 < x < 0.75:
                assert a_text == "1"
            else:
                assert a_text == "-1"

    def test_fig3_all_nan_at_alpha_one(self, tmp_path):
        write_figures(tmp_path)
        rows = [
            line for line in (tmp_path / "fig3.csv").read_text().splitlines()
            if line.startswith("1.00,")
        ]
        assert len(rows) == 1001
        assert all(row.endswith(",nan") for row in rows)


def test_benchmark_tracer_patches_and_restores_its_names(monkeypatch):
    # perfbench/tracer.py wraps bellhop's functions by module and attribute name (such as
    # chsh._integrate, cli.combine and DomainSet.intersect): each must still exist, and
    # uninstall must put each original back
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
    finally:
        tracer.uninstall()
    assert patches
    for owner, attr, original in patches:
        now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert now is original, (owner, attr)
