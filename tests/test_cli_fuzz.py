"""Random command lines through cli.main.

Every run must end in a documented exit code (0-3), never a traceback, and
an exit-2 run prints exactly one error line.  The runs work in tmp_path, so
every file they read or write is there: a small pool of family files, good
and bad, plus whatever the commands write.
"""

import json

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from bellhop.chsh import MAX_GRID, saturating_family
from bellhop.cli import main
from bellhop.simulate import MAX_TRIALS, MAX_WORKERS

# Paths are relative to the working directory, tmp_path.  Inputs come from
# the pool below; outputs never name a pool file, so no run changes another's.
FAMILIES = ["valid.json", "edited.json", "object-less.json", "truncated.json",
            "junk.bin", "nested.json", "missing.json", "dir"]


def write_pool(root):
    record = saturating_family().to_dict()
    text = json.dumps(record)
    edited = json.loads(text)
    edited["rho10"]["weights"][5] += 0.5
    (root / "valid.json").write_text(text)
    (root / "edited.json").write_text(json.dumps(edited))
    (root / "object-less.json").write_text(json.dumps(list(record)))
    (root / "truncated.json").write_text(text[: len(text) // 2])
    (root / "junk.bin").write_bytes(bytes(range(256)) * 4)
    (root / "nested.json").write_text("[" * 100_000 + "]" * 100_000)
    (root / "dir").mkdir()


def mostly(good, bad):
    """good three times in four, so most runs get past the parser."""
    return st.integers(0, 3).flatmap(lambda i: good if i else bad)


# file names outside the pool; "/" and ".." would leave the working directory
names = st.text(st.characters(exclude_characters="/"), min_size=1, max_size=8).filter(
    lambda s: s not in (".", "..", *FAMILIES)
)
texts = st.one_of(st.just(""), st.text(max_size=12))
hostile_ints = st.one_of(
    st.sampled_from(["", "-0", "1e17", "nan", "inf", "0x10", "٣", "１２", " 3 ", "x"]), texts
)
floats = mostly(
    st.one_of(st.floats().map(repr),
              st.sampled_from(["nan", "inf", "-inf", "1e17", "1e308", "-0", "-0.0", "1e-320"])),
    texts,
)


def ints(lo, hi):
    """Small ints, since a valid one sets the work done, or hostile text."""
    return mostly(st.integers(lo, hi).map(str), hostile_ints)


def past(cap):
    """Values just above cap, and some far above it: the parser rejects
    them all, so none runs."""
    return st.one_of(st.integers(cap + 1, cap + 8), st.integers(cap + 1, 2**80)).map(str)


def flag(name, values):
    """--name=value, left out one time in six."""
    return st.tuples(st.integers(0, 5), values).map(
        lambda t: [f"--{name}={t[1]}"] if t[0] else []
    )


def command(name, *flags):
    return st.tuples(*flags).map(lambda parts: [name, *(a for p in parts for a in p)])


def outputs(*fixed):
    return mostly(st.sampled_from(["", *fixed]), names)


families = mostly(st.just("valid.json"), st.sampled_from(FAMILIES[1:]))
symbols = st.one_of(
    st.builds("{}{}".format, st.sampled_from("abc"), st.integers(0, 3)),
    st.builds("{}[{}]".format, st.sampled_from("ab"), floats),
)
grammar = st.recursive(
    symbols,
    lambda e: st.one_of(
        st.builds("({})".format, e),
        st.builds("-{}".format, e),
        st.builds("{}{}{}".format, e, st.sampled_from("+-*"), e),
    ),
    max_leaves=8,
)
expressions = st.one_of(
    grammar,
    st.text(alphabet="ab01[]()+-*. ", max_size=30),
    st.text(max_size=12),
    st.just("(" * 5000 + "a0" + ")" * 5000),
)

argvs = st.one_of(
    command("eval", flag("alpha", floats), flag("x", floats)),
    command("domain", flag("expr", expressions)),
    command("expect", flag("family", families)),
    command("saturate", flag("out", outputs("out.json", "dir", "nodir/out.json")),
            flag("grid", st.one_of(ints(-8, 64), past(MAX_GRID)))),
    command("simulate", flag("family", families),
            flag("trials", st.one_of(ints(-3, 2000), past(MAX_TRIALS))),
            flag("seed", ints(-3, 2**80)),
            flag("workers", mostly(st.sampled_from(["1", "2"]),
                                   st.one_of(st.sampled_from(["0", "-1", "x"]), past(MAX_WORKERS)))),
            flag("log", outputs("events.csv", "dir", "nodir/events.csv"))),
    command("check-classical", flag("trials", ints(-3, 20)), flag("seed", ints(-3, 2**31))),
    command("figures",
            flag("out", st.sampled_from(["figures", "", "valid.json", "valid.json/figures"]))),
)


@pytest.fixture
def pool(tmp_path, monkeypatch):
    write_pool(tmp_path)
    monkeypatch.chdir(tmp_path)


# the fixtures are set up once for all examples; each example only reads the
# pool and writes outside it
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs)
def test_cli_exits_cleanly(pool, capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    event(f"{argv[0]} exit {code}")  # shown by --hypothesis-show-statistics
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith(("error:", "syntax error:")) and err.count("\n") == 1, err
