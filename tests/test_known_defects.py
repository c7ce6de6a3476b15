"""The ledger of known defects, ``known_defects.json``, and a strict xfail per crash.

Each crashing input raises RecursionError from ``main(argv)`` within a few
milliseconds.  Its test is expected to fail with exactly that error, so a fix
turns it into an XPASS, which strict mode reports as a failure: the fixing
change then moves the entry to ``cli_golden.json`` or a named regression test.
Inputs that run without bound, or that end in a MemoryError traceback, are
listed with no test.
"""

import json
from pathlib import Path

import pytest

from k3count.cli import main

LEDGER = json.loads(Path(__file__).with_name("known_defects.json").read_text(encoding="utf-8"))
DEFECTS = LEDGER["defects"]
CRASHES = [d for d in DEFECTS if d["now"] == "RecursionError"]


def argv_of(defect) -> list[str]:
    """The argv, with each nesting item {open, depth, inner, close} written out."""
    return [
        arg if isinstance(arg, str)
        else arg["open"] * arg["depth"] + arg["inner"] + arg["close"] * arg["depth"]
        for arg in defect["argv"]
    ]


def test_ledger_entries_are_complete():
    assert len({d["id"] for d in DEFECTS}) == len(DEFECTS)
    for d in DEFECTS:
        assert d["now"] in ("RecursionError", "MemoryError", "unbounded time", "unbounded memory"), d["id"]
        assert d["fixed_by"] and all(isinstance(item, int) for item in d["fixed_by"]), d["id"]
        assert d["accepted"] and all("exit" in outcome for outcome in d["accepted"]), d["id"]
        assert all(isinstance(arg, str) for arg in argv_of(d)), d["id"]


@pytest.mark.xfail(strict=True, raises=RecursionError, reason="known defect, listed in known_defects.json")
@pytest.mark.parametrize("defect", CRASHES, ids=lambda d: d["id"])
def test_known_crash(defect, capsys):
    try:
        main(argv_of(defect))
    except RecursionError as exc:
        # the same error without its thousand frames, which pytest would
        # spend seconds rendering into a report that xfail then hides
        raise RecursionError(*exc.args) from None
