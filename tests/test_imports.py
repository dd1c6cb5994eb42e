"""No module of the package imports a name that it never uses."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nocgf"
# perfbench/tracer.py patches control.unitarity_defect by name, so control
# keeps the import although its own code does not call it
KEPT = {("control", "unitarity_defect")}


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of a module that no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    unused = [name for name in unused_imports(path.read_text())
              if (path.stem, name) not in KEPT]
    assert unused == []


def test_unused_imports_finds_an_unused_name():
    source = "import os\nimport numpy as np\nfrom .a import b, c\nnp.ones(c)\n"
    assert unused_imports(source) == ["os", "b"]
