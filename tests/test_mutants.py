"""The mutants of ``mutants.json`` still target the code: run them with ``tests/mutate.py``."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = json.loads((ROOT / "tests" / "mutants.json").read_text(encoding="utf-8"))


def test_names_are_unique():
    assert len({m["name"] for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m["name"])
def test_old_text_occurs_exactly_once(mutant):
    text = (ROOT / mutant["file"]).read_text(encoding="utf-8")
    assert text.count(mutant["old"]) == 1
    assert mutant["new"] != mutant["old"] and mutant["defect"]


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m["name"])
def test_mutated_file_compiles(mutant):
    # a mutant that breaks the syntax fails every test at import, whatever they check
    text = (ROOT / mutant["file"]).read_text(encoding="utf-8")
    compile(text.replace(mutant["old"], mutant["new"]), mutant["file"], "exec")
