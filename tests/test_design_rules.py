"""The package stays stdlib-only, computes with exact integers and recurses only where listed."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import k3count

SOURCES = sorted(Path(k3count.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_stdlib_imports_and_exact_integers(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] in sys.stdlib_module_names, where
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            assert node.module.split(".")[0] in sys.stdlib_module_names, where
        assert not (isinstance(node, ast.Constant) and isinstance(node.value, float)), where
        assert not isinstance(node, ast.Div), where


def test_cli_starts_without_dataclasses_or_inspect():
    # each CLI call is a fresh process, so start-up imports are paid every time
    src = str(Path(k3count.__file__).parents[1])
    code = ("import sys, k3count.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.strip() == "[]"


# Each function in src/ that calls its own name, and what bounds its depth.
RECURSIONS = {
    "semimodule.walk": "one frame per window position, frobenius + genus (ROADMAP item 2)",
    "invariants._parse": "one frame per branches[ level of the token (ROADMAP item 4)",
    "invariants.verify": "MultiBranch.verify: one frame per nesting level (ROADMAP item 4)",
    "invariants.branches_of_ade": "D_n recurses once, into A_(n-3): depth 2",
}


def _self_calls():
    """``module.function`` for every function whose body calls its own name.

    A call counts as ``f(...)`` or ``x.f(...)``; recursion through a
    property read (``b.epsilon``) or through ``str(b)`` is not caught.
    """
    found = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                funcs = (c.func for c in ast.walk(node) if isinstance(c, ast.Call))
                if any(getattr(f, "id", getattr(f, "attr", None)) == node.name for f in funcs):
                    found.add(f"{path.stem}.{node.name}")
    return found


def test_every_recursion_is_allowlisted():
    assert _self_calls() == set(RECURSIONS)
