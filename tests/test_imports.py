"""No dead code in ``chordalrig``: unused imports, unreferenced private
definitions and ``exactmat`` kernels that only tests run.

Three small ``ast`` scans stand in for a linter. A module fails when it
binds a name by ``import`` or ``from ... import`` and never reads it; names
listed in the module's ``__all__`` count as used, so re-exports in
``__init__`` pass. The package fails when a top-level private (``_name``)
function or class is referenced nowhere in it outside its own definition,
and when a top-level public function of ``exactmat`` is read by no other
module but ``__init__``, whose re-exports are not uses.
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


def unread_public_functions(module: str, sources: dict[str, str]) -> list[str]:
    """Top-level public functions of ``module`` that no other module of
    ``sources`` ({module name: source}) reads, either as ``f`` after ``from
    .module import f`` (or from the absolute name) or as ``module.f`` after
    ``from . import module``. ``__init__`` does not count."""
    defined = {node.name for node in ast.parse(sources[module]).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not node.name.startswith("_")}
    read = set()
    for name, source in sources.items():
        if name in (module, "__init__"):
            continue
        tree = ast.parse(source)
        imported, aliases = {}, set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is not None and node.module.split(".")[-1] == module:
                    imported[local] = alias.name
                elif alias.name == module:
                    aliases.add(local)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id in imported):
                read.add(imported[node.id])
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                read.add(node.attr)
    return sorted(defined - read)


def test_exactmat_keeps_only_what_the_library_runs():
    sources = {p.stem: p.read_text() for p in sorted(SOURCE.glob("*.py"))}
    assert unread_public_functions("exactmat", sources) == []


DEF_F = "def f():\n    pass\n"


@pytest.mark.parametrize("sources, expected", [
    ({"m": DEF_F}, ["f"]),
    ({"m": DEF_F + "f()\n"}, ["f"]),
    ({"m": DEF_F, "a": "from .m import f\nf()\n"}, []),
    ({"m": DEF_F, "a": "from .m import f\n"}, ["f"]),
    ({"m": DEF_F, "a": "from chordalrig.m import f as g\ng()\n"}, []),
    ({"m": DEF_F, "a": "from . import m\nm.f()\n"}, []),
    ({"m": DEF_F, "a": "from . import m as n\nn.f\n"}, []),
    ({"m": DEF_F, "__init__": "from .m import f\n__all__ = ['f']\nf()\n"}, ["f"]),
    ({"m": DEF_F, "a": "from .other import f\nf()\n"}, ["f"]),
    ({"m": DEF_F, "a": "def g(report):\n    return report.f\n"}, ["f"]),
    ({"m": DEF_F, "a": "f = 1\n"}, ["f"]),
    ({"m": "def _f():\n    pass\nclass C:\n    pass\n"}, []),
])
def test_public_function_scan(sources, expected):
    assert unread_public_functions("m", sources) == expected
