"""tools/mutants.json stays applicable to the tree: each recorded mutant still finds its code."""

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
