"""The package stays stdlib-only and computes with exact integers."""

import ast
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
