"""The ledger of known defects, ``known_defects.json``, and a strict xfail per crash.

Each crashing input raises RecursionError from ``main(argv)`` within a few
milliseconds, with the function that its ``where`` names on the stack.  Its
test is expected to fail with exactly that error, so a fix turns it into an
XPASS, which strict mode reports as a failure: the fixing change then moves
the entry to ``cli_golden.json`` or a named regression test.  A ``where``
that names a function off the stack fails the test with an AssertionError.
Inputs that run without bound are listed with no test.
"""

import json
import re
import sys
import traceback
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


def where_function(defect) -> str:
    """The function at the head of ``where``, before the first ':' or space, without
    its module: its qualified name, or before Python 3.11 (no ``co_qualname``) its name."""
    head = re.split("[: ]", defect["where"], maxsplit=1)[0].split(".", 1)[1]
    return head if sys.version_info >= (3, 11) else head.rpartition(".")[2]


def frame_functions(tb) -> set[str]:
    """The qualified name of each frame's function in ``tb``, or its name before 3.11."""
    return {getattr(f.f_code, "co_qualname", f.f_code.co_name) for f, _ in traceback.walk_tb(tb)}


def test_ledger_entries_are_complete():
    assert len({d["id"] for d in DEFECTS}) == len(DEFECTS)
    for d in DEFECTS:
        assert d["now"] in ("RecursionError", "unbounded time", "unbounded memory"), d["id"]
        assert d["fixed_by"] and all(isinstance(item, int) for item in d["fixed_by"]), d["id"]
        assert d["accepted"] and all("exit" in outcome for outcome in d["accepted"]), d["id"]
        assert all(isinstance(arg, str) for arg in argv_of(d)), d["id"]


@pytest.mark.xfail(strict=True, raises=RecursionError, reason="known defect, listed in known_defects.json")
@pytest.mark.parametrize("defect", CRASHES, ids=lambda d: d["id"])
def test_known_crash(defect, capsys):
    try:
        main(argv_of(defect))
    except RecursionError as exc:
        functions = frame_functions(exc.__traceback__)
        # the same error without its thousand frames, which pytest would
        # spend seconds rendering into a report that xfail then hides
        error = RecursionError(*exc.args)
    else:
        return  # answered: strict mode reports the XPASS
    assert where_function(defect) in functions, defect["where"]
    raise error
