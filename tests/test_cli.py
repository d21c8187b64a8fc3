import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bellhop
from bellhop import chsh, simulate
from bellhop.chsh import MAX_GRID
from bellhop.cli import MAX_CHECKS, _build_parser, _runs, main, write_figures
from bellhop.steprv import make_step


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
     "--workers: at most 1024 (0.1 s of per-worker set-up), got 1025"),
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
     "--workers: at most 1024 (0.1 s of per-worker set-up), got a 4000-digit number"),
    (["check-classical", "--trials", "-" + "9" * 4000],
     "--trials: must be a positive integer, got a 4000-digit number"),
    # check-classical's cap keeps a run near an hour
    (["check-classical", "--trials", "10000001"],
     "--trials: at most 10000000 (about an hour at 0.4 ms an instance), got 10000001"),
    (["check-classical", "--trials", "1" + "0" * 40],
     "--trials: at most 10000000 (about an hour at 0.4 ms an instance), got a 41-digit number"),
]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_plus_one(self, capsys):
        code, out, _ = run(capsys, "eval", "--alpha", "0", "--x", "0.5")
        assert code == 0
        assert out.strip() == "+1"

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
    def test_empty_verdict_exit_3(self, capsys):
        code, out, _ = run(capsys, "domain", "--expr", "(a0+a1)*b0")
        assert code == 3
        assert "(a0 + a1)" in out

    def test_exists_exit_0(self, capsys):
        code, out, _ = run(capsys, "domain", "--expr", "a0*b0")
        assert code == 0
        assert out.startswith("EXISTS")

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
        assert capsys.readouterr().err.splitlines()[-1] == f"error: argument {message}"

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
        path = tmp_path / "sat.json"
        code, _, _ = run(capsys, "saturate", "--out", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["expectations"]["S"] == 4.0
        code, out, _ = run(capsys, "expect", "--family", str(path))
        assert code == 0
        assert "S = 4" in out
        for line in out.splitlines():
            if line.startswith("<"):
                assert line.endswith("= 0")

    def test_saturate_optimized(self, capsys, tmp_path):
        path = tmp_path / "opt.json"
        code, _, _ = run(capsys, "saturate", "--out", str(path), "--grid", "8")
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["expectations"]["S"] == 4.0

    def test_saturate_default_grid_is_4(self, capsys, tmp_path):
        run(capsys, "saturate", "--out", str(tmp_path / "default.json"))
        run(capsys, "saturate", "--out", str(tmp_path / "grid4.json"), "--grid", "4")
        assert (tmp_path / "default.json").read_bytes() == (tmp_path / "grid4.json").read_bytes()

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
        src = str(Path(bellhop.__file__).resolve().parents[1])
        path_dirs = [src, os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path_dirs)}
        proc = subprocess.run(
            [sys.executable, "-c", "from bellhop.cli import entry; entry()",
             "expect", "--family", str(path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("corrupt, named", [
        (lambda p: {k: v for k, v in p.items() if k != "rho00"}, "rho00"),
        (lambda p: list(p), "list"),
        (lambda p: {**p, "rho11": {k: v for k, v in p["rho11"].items() if k != "nx"}},
         "nx"),
    ], ids=["no-rho00", "list", "density-no-nx"])
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


class TestFigures:
    def test_byte_identical(self, tmp_path):
        write_figures(tmp_path / "one")
        write_figures(tmp_path / "two")
        for name in ("fig1.csv", "fig2.csv", "fig3.csv"):
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "two" / name
            ).read_bytes()

    def test_pinned_digests(self, tmp_path):
        write_figures(tmp_path)
        for name, want in FIGURE_SHA256.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want

    def test_runs(self):
        rv = make_step([0.0, 1.0, 2.0, 3.0], [-0.0, 0.0, -1.0], "x")
        xs = np.array([0.5, 0.6, 1.0, 1.5, 1.7, 2.5, 1.5, 3.5, 4.0, 0.5])
        runs = _runs(rv, xs)
        # -0.0 and 0.0 compare equal but make separate runs
        assert runs == [("-0", 2), ("nan", 1), ("0", 2), ("-1", 1), ("0", 1), ("nan", 2),
                        ("-0", 1)]
        assert sum(n for _, n in runs) == len(xs)
        assert _runs(rv, np.array([2.25, 2.5, 2.75])) == [("-1", 3)]
        assert _runs(rv, np.array([-1.0, 1.0, 2.0, 7.0])) == [("nan", 4)]
        assert _runs(rv, np.array([])) == []

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
