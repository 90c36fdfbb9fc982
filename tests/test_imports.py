"""No dead code in ``chordalrig``: unused imports, unreferenced private
definitions, and ``exactmat`` kernels and ``Matrix`` and ``StressMatrix``
members that only tests run.

Four small ``ast`` scans stand in for a linter. A module fails when it
binds a name by ``import`` or ``from ... import`` and never reads it; names
listed in the module's ``__all__`` count as used, so re-exports in
``__init__`` pass. The package fails when a top-level private (``_name``)
function or class, or a private method or cached property of a top-level
class, is referenced nowhere in it outside its own definition; when a
top-level public function of ``exactmat`` is read by no other module but
``__init__``, whose re-exports are not uses; and when a public method or
property of ``exactmat.Matrix`` is read, as an attribute, nowhere in the
package outside its own definition and nowhere in the bench harness
(``bench/``), and likewise for ``framework.StressMatrix``,
``framework.GaleMatrix``, ``certify.PsdizeResult`` and
``exactmat.Elimination``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "chordalrig"
BENCH = ROOT / "bench"


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


def _definition_units(tree: ast.Module):
    """(name or None, node, names its references to skip) for each
    top-level statement, with each class split into its header
    (decorators, bases and keywords) and one unit per statement of its
    body. A definition's references to its own name, and a class's to its
    class name, are skipped; a method's name is ``Class._name``."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            name = getattr(node, "name", None)
            yield name, node, {name}
            continue
        header = ast.Module(body=[ast.Expr(e) for e in
                                  [*node.decorator_list, *node.bases,
                                   *(k.value for k in node.keywords)]], type_ignores=[])
        yield node.name, header, {node.name}
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{node.name}.{item.name}", item, {node.name, item.name}
            else:
                yield None, item, {node.name}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unreferenced_private(sources: list[str]) -> list[str]:
    """Private (``_name``) functions and classes at the top level of the
    given modules, and private methods (cached properties too) of their
    top-level classes, as ``Class._name``, that no module reads, as a name
    or an attribute, outside their own definition."""
    defined, referenced = {}, set()
    for source in sources:
        for name, node, own in _definition_units(ast.parse(source)):
            if name is not None and _private(name.rsplit(".", 1)[-1]):
                defined[name] = name.rsplit(".", 1)[-1]
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            referenced |= names - own
    return sorted(name for name, bare in defined.items() if bare not in referenced)


def test_no_unreferenced_private_definitions():
    assert unreferenced_private([p.read_text() for p in sorted(SOURCE.glob("*.py"))]) == []


CLASS_C = "class C:\n"


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
    ([CLASS_C + "    def _m(self):\n        pass\n"], ["C._m"]),
    ([CLASS_C + "    def _m(self):\n        return self._m()\n"], ["C._m"]),
    ([CLASS_C + "    def _m(self):\n        pass\n    def f(self):\n        return self._m()\n"],
     []),
    ([CLASS_C + "    @cached_property\n    def _p(self):\n        return 1\n"], ["C._p"]),
    ([CLASS_C + "    @cached_property\n    def _p(self):\n        return 1\n",
      "def g(c):\n    return c._p\n"], []),
    ([CLASS_C + "    def __init__(self):\n        pass\n    def f(self):\n        pass\n"], []),
    ([CLASS_C + "    def _m(self):\n        pass\n", "x = C()._m\n"], []),
    (["class _C(Base):\n    pass\nclass D(_C):\n    pass\n"], []),
    (["class _C:\n    pass\n@_C\nclass D:\n    pass\n"], []),
    ([CLASS_C + "    x = 1\n    def _m(self):\n        pass\n"], ["C._m"]),
    (["class _C:\n    def f(self):\n        return _C()\n"], ["_C"]),
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


def unread_public_members(cls: str, sources: list[str], outside: list[str]) -> list[str]:
    """Public methods (properties and class methods too) of the top-level
    classes named ``cls`` in ``sources``, as ``Class.name``, whose name no
    module of ``sources`` reads as an attribute outside the member's own
    definition and no module of ``outside`` reads as an attribute at all.
    Dunders are skipped: Python calls them."""
    defined, read = set(), set()
    for source in sources:
        for name, node, own in _definition_units(ast.parse(source)):
            if name is not None and name.startswith(f"{cls}.") and not name.startswith(
                    f"{cls}._"):
                defined.add(name)
            read |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)} - own
    for source in outside:
        read |= {n.attr for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Attribute)}
    return sorted(name for name in defined if name.split(".")[1] not in read)


@pytest.mark.parametrize("cls", ["Matrix", "StressMatrix", "GaleMatrix", "PsdizeResult",
                                 "Elimination"])
def test_class_keeps_only_what_the_package_or_bench_reads(cls):
    assert unread_public_members(cls, [p.read_text() for p in sorted(SOURCE.glob("*.py"))],
                                 [p.read_text() for p in sorted(BENCH.glob("*.py"))]) == []


CLASS_M = "class Matrix:\n    def f(self):\n        pass\n"


@pytest.mark.parametrize("sources, outside, expected", [
    ([CLASS_M], [], ["Matrix.f"]),
    ([CLASS_M, "def g(m):\n    return m.f()\n"], [], []),
    ([CLASS_M], ["m.f()\n"], []),
    ([CLASS_M, "f()\n"], [], ["Matrix.f"]),
    ([CLASS_M], ["f = 1\n"], ["Matrix.f"]),
    (["class Matrix:\n    def f(self):\n        return self.f()\n"], [], ["Matrix.f"]),
    ([CLASS_M + "    def g(self):\n        return self.f()\n"], [], ["Matrix.g"]),
    (["class Matrix:\n    @property\n    def p(self):\n        return 1\n"], [], ["Matrix.p"]),
    (["class Matrix:\n    @classmethod\n    def z(cls):\n        pass\n",
      "x = Matrix.z()\n"], [], []),
    (["class Matrix:\n    def __add__(self, other):\n        pass\n"], [], []),
    (["class Matrix:\n    def _m(self):\n        pass\n"], [], []),
    (["class Other:\n    def f(self):\n        pass\n"], [], []),
])
def test_member_scan(sources, outside, expected):
    assert unread_public_members("Matrix", sources, outside) == expected
