"""No module of the package imports a name that it never uses, none reads
another module's private (`_`-prefixed) name, and every private name that a
module defines at its top level is read."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nocgf"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# perfbench/tracer.py patches control.unitarity_defect by name, so control
# keeps the import although its own code does not call it
KEPT = {("control", "unitarity_defect")}


def _bound_names(tree) -> list[str]:
    """Names bound by the imports of a module."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    return bound


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of a module that no expression reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in _bound_names(tree) if name not in read]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(source: str) -> list[str]:
    """Private names of other modules that a module reads: imported by name
    (`from .m import _x`) or read as an attribute of an imported name
    (`m._x`).  Dunder names such as __version__ are public."""
    tree = ast.parse(source)
    bound = set(_bound_names(tree))
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            reads += [f"{node.module or ''}.{a.name}" for a in node.names
                      if _is_private(a.name)]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in bound and _is_private(node.attr)):
            reads.append(f"{node.value.id}.{node.attr}")
    return reads


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    unused = [name for name in unused_imports(path.read_text())
              if (path.stem, name) not in KEPT]
    assert unused == []


def test_unused_imports_finds_an_unused_name():
    source = "import os\nimport numpy as np\nfrom .a import b, c\nnp.ones(c)\n"
    assert unused_imports(source) == ["os", "b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_name_of_another_module_is_read(path):
    assert private_reads(path.read_text()) == []


def test_private_reads_finds_a_planted_read():
    source = ("from . import __version__, propagate\nfrom .lincore import _table\n"
              "import numpy as np\n\n"
              "def f(self, x):\n"
              "    propagate._check(x, __version__)\n"
              "    return np.ones(3), self._cache, x._y, _table\n")
    assert private_reads(source) == ["lincore._table", "propagate._check"]


def _private_definitions(tree):
    """(name, node) of every private function, class or constant that a
    module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if _is_private(name))


def unread_private_names(source: str) -> list[str]:
    """Private top-level names of a module that nothing outside their own
    definition reads: a function that only calls itself is unread."""
    tree = ast.parse(source)
    unread = []
    for name, definition in _private_definitions(tree):
        inside = {id(node) for node in ast.walk(definition)}
        if not any(isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                   and node.id == name and id(node) not in inside
                   for node in ast.walk(tree)):
            unread.append(name)
    return unread


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_every_private_name_is_read(path):
    assert unread_private_names(path.read_text()) == []


def test_unread_private_names_finds_planted_names():
    source = ("_USED = 2\n_UNUSED = 3\n\n"
              "def _recursive(n):\n    return _recursive(n - 1) if n else _USED\n\n"
              "class _Helper:\n    pass\n\n"
              "def public():\n    return _Helper\n")
    assert unread_private_names(source) == ["_UNUSED", "_recursive"]


def test_importing_the_package_loads_no_scipy():
    # the package's one runtime dependency is numpy (pyproject.toml); scipy
    # is a test dependency only
    code = ("import sys, nocgf\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout.strip() == "[]"
