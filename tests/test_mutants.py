"""tools/mutants.json stays applicable to the tree: each recorded mutant still finds its code."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "tools" / "mutants.json").read_text())
RECORDED = SPEC["recorded"]


def test_ids_unique():
    ids = [entry["id"] for entry in RECORDED]
    assert len(ids) == len(set(ids))
    assert all(isinstance(reason, str) and reason for reason in SPEC["equivalent"].values())


@pytest.mark.parametrize("entry", RECORDED, ids=[entry["id"] for entry in RECORDED])
def test_recorded_mutant_applies(entry):
    # the old text occurs exactly once in its file, or, once retired with a reason, not at all
    text = (ROOT / entry["file"]).read_text()
    assert entry["new"] != entry["old"]
    if "retired" in entry:
        assert entry["retired"] and entry["old"] not in text
    else:
        assert text.count(entry["old"]) == 1


@pytest.mark.parametrize("file", sorted(SPEC["generate"]))
def test_generated_functions_exist(file):
    text = (ROOT / file).read_text()
    for qualname in SPEC["generate"][file]:
        assert f"def {qualname.rsplit('.', 1)[-1]}(" in text


def test_prefixes_select_mutants():
    # a pure function of the ids: no tier-1 run starts
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    mutants = [module.Mutant(id, "", "") for id in (
        "pr36-ravel-K", "pr37-x-block-nx-plus-1", "cli._runs:+>-#1", "cli._runs:0>1#1",
        "steprv.combine:<><=#1", "steprv._cell_values:0>1#1")]
    ids = lambda *prefixes: [m.id for m in module.selected(mutants, prefixes)]
    assert ids() == [m.id for m in mutants]
    assert ids("pr36-") == ["pr36-ravel-K"]
    assert ids("_runs:") == ids("cli._runs:") == ["cli._runs:+>-#1", "cli._runs:0>1#1"]
    assert ids("cli._runs:0>1#1") == ["cli._runs:0>1#1"]
    assert ids("steprv.combine", "pr37-") == ["pr37-x-block-nx-plus-1", "steprv.combine:<><=#1"]
    assert ids("combine:", "_c") == ["steprv.combine:<><=#1", "steprv._cell_values:0>1#1"]
    assert ids("runs:", "36-", "ravel") == []
