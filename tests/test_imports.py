"""No dead code in ``chordalrig``: unused imports and unreferenced private
definitions.

Two small ``ast`` scans stand in for a linter. A module fails when it binds
a name by ``import`` or ``from ... import`` and never reads it; names
listed in the module's ``__all__`` count as used, so re-exports in
``__init__`` pass. The package fails when a top-level private (``_name``)
function or class is referenced nowhere in it outside its own definition.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "chordalrig"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("source, expected", [
    ("import os\n", ["os (line 1)"]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c\nb\n", ["c (line 1)"]),
    ("from a import b\n__all__ = ['b']\n", []),
    ("from __future__ import annotations\n", []),
    ("from a import B\ndef f(x: B) -> None:\n    pass\n", []),
])
def test_scan(source, expected):
    assert unused_imports(source) == expected


def unreferenced_private(sources: list[str]) -> list[str]:
    """Top-level ``_name`` functions and classes of the given modules that no
    module reads, as a name or an attribute, outside their own definition."""
    defined, referenced = set(), set()
    for source in sources:
        for node in ast.parse(source).body:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.add(node.name)
                names.discard(node.name)
            referenced |= names
    return sorted(defined - referenced)


def test_no_unreferenced_private_definitions():
    assert unreferenced_private([p.read_text() for p in sorted(SOURCE.glob("*.py"))]) == []


@pytest.mark.parametrize("sources, expected", [
    (["def _f():\n    pass\n"], ["_f"]),
    (["def _f():\n    pass\n_f()\n"], []),
    (["def _f():\n    return _f()\n"], ["_f"]),
    (["class _C:\n    pass\n"], ["_C"]),
    (["class _C:\n    pass\nx: _C\n"], []),
    (["def f():\n    pass\n", "def __getattr__(name):\n    pass\n"], []),
    (["def _f():\n    pass\n", "from a import _f\n_f()\n"], []),
    (["def _f():\n    pass\n", "import a\na._f()\n"], []),
    (["def _f():\n    pass\n", "from a import _f\n"], ["_f"]),
    (["def _f():\n    pass\n", "def g():\n    return _f\n"], []),
])
def test_private_scan(sources, expected):
    assert unreferenced_private(sources) == expected
