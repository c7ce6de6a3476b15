"""The package stays stdlib-only, computes with exact integers, recurses only where listed
and keeps the two routes to each epsilon apart."""

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


def _shared_bodies():
    """Names of the functions in src/ with the same body, past any docstring, per body."""
    names = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                body = node.body[1:] if ast.get_docstring(node) is not None else node.body
                key = tuple(ast.dump(stmt) for stmt in body)
                names.setdefault(key, []).append(f"{path.stem}.{node.name}")
    return [found for found in names.values() if len(found) > 1]


def test_no_two_functions_share_a_body():
    # a rule written twice can be mended in one copy and left wrong in the other
    assert _shared_bodies() == []


# Each function, method or property in src/ that nothing else in src/ names,
# and the reader it is kept for.
UNREFERENCED = {
    "qseries.series_one": "acceptance-suite API (tests/test_acceptance.py)",
    "qseries.series_inv": "acceptance-suite API (tests/test_acceptance.py)",
    "semimodule.necklace_to_delta": "acceptance-suite API (tests/test_acceptance.py)",
    "semimodule.delta_to_necklace": "acceptance-suite API (tests/test_acceptance.py)",
    "invariants.delta": "Singularity.delta and its overrides: check's total delta against g (ROADMAP item 15)",
}


def _unreferenced(modules):
    """``module.name`` for every non-dunder def in ``modules`` whose name they never read.

    ``modules`` maps each file name to its parsed source.  A read is a
    loaded ``Name`` or ``Attribute``, or an imported name, in any file but
    ``__init__.py``, whose imports only re-export; a store, such as a class
    attribute sharing a method's name, is not one.  A reference inside the
    function's own body counts.
    """
    defined, read = set(), set()
    for file_name, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                defined.add((file_name.removesuffix(".py"), node.name))
            elif file_name == "__init__.py":
                continue
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return {f"{module}.{name}" for module, name in defined if name not in read}


def test_every_unreferenced_name_is_allowlisted():
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert _unreferenced(modules) == set(UNREFERENCED)


def test_a_stored_name_is_not_a_read():
    # the class attribute only stores ``delta``, so the property stays unread
    source = (
        "class Singularity:\n"
        "    delta: int | None = None\n"
        "class Point(Singularity):\n"
        "    @property\n"
        "    def delta(self):\n"
        "        return 1\n"
    )
    assert _unreferenced({"points.py": ast.parse(source)}) == {"points.delta"}


# Functions both routes of a descriptor may reach, and why each is not a
# shared route: the walk stops at them.
ROUTE_INPUTS = {
    "NumericalSemigroup.__init__": "builds the input semigroup that both routes read",
    "PlanarPQ.__init__": "builds the input point u^p = v^q that both routes read",
    "Route.__init__": "stores a route's outcome, computing nothing",
    "require_coprime": "checks the input p and q",
}


def _loads(node):
    """Names and attribute names that ``node`` loads, outside annotations."""
    if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
        yield getattr(node, "id", getattr(node, "attr", None))
    for field, value in ast.iter_fields(node):
        if field not in ("annotation", "returns"):
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    yield from _loads(child)


def _route_overlap(modules, classes):
    """For each class, the functions that both its ``epsilon`` and its ``verify`` reach.

    Functions are keyed ``Class.method`` or ``function``.  A loaded name
    leads to every def of that name in ``modules`` and a class name to the
    class's ``__init__``; the walk stops at ``ROUTE_INPUTS``.
    """
    defs, by_name = {}, {}
    for tree in modules.values():
        for node in tree.body:
            methods = node.body if isinstance(node, ast.ClassDef) else [node]
            for f in methods:
                if isinstance(f, ast.FunctionDef):
                    key = f"{node.name}.{f.name}" if f is not node else f.name
                    defs[key] = f
                    by_name.setdefault(f.name, []).append(key)
            if isinstance(node, ast.ClassDef) and f"{node.name}.__init__" in defs:
                by_name.setdefault(node.name, []).append(f"{node.name}.__init__")

    def reach(root):
        seen, todo = set(), [root]
        while todo:
            key = todo.pop()
            if key not in seen and key not in ROUTE_INPUTS:
                seen.add(key)
                todo += [k for name in _loads(defs[key]) for k in by_name.get(name, ())]
        return seen

    return {c: reach(f"{c}.epsilon") & reach(f"{c}.verify") for c in classes}


def test_the_two_routes_of_each_descriptor_share_no_function():
    # aim 3: every epsilon keeps two independent routes.  MultiBranch is
    # exempt: its routes are the products of its branches' routes.
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    classes = ("PlanarPQ", "Ade", "SemigroupPoint")
    assert _route_overlap(modules, classes) == {c: set() for c in classes}


def test_a_route_through_epsilon_shares_with_epsilon():
    # by name, ``.epsilon`` reaches every class's epsilon, its own included;
    # the annotation naming Direct is no call of Direct.__init__
    source = (
        "def closed(x):\n"
        "    return 1\n"
        "def listed(x):\n"
        "    return 1\n"
        "class Hop:\n"
        "    @property\n"
        "    def epsilon(self) -> Direct:\n"
        "        return closed(self)\n"
        "    def verify(self):\n"
        "        return Direct(self).epsilon\n"
        "class Direct:\n"
        "    def __init__(self, x):\n"
        "        pass\n"
        "    @property\n"
        "    def epsilon(self):\n"
        "        return listed(self)\n"
        "    def verify(self):\n"
        "        return closed(self)\n"
    )
    overlap = _route_overlap({"points.py": ast.parse(source)}, ("Hop", "Direct"))
    assert overlap == {"Hop": {"Hop.epsilon", "closed"}, "Direct": set()}


def test_exports_are_exactly_the_imported_names():
    tree = ast.parse(Path(k3count.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(k3count.__all__) == imported
    assert len(k3count.__all__) == len(imported)
    assert all(hasattr(k3count, name) for name in k3count.__all__)
