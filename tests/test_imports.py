"""No module of the package imports a name that it never uses, and none
reads another module's private (`_`-prefixed) name."""

import ast
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
