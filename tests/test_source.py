"""Checks on the library's source text."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import wildforms

MODULES = sorted(p for p in Path(wildforms.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unread_imports(source: str) -> list[str]:
    """Names a module imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_unread_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport math as m\nfrom .poly import Form, scale\n"
              "def f(x: Form) -> int:\n    return m.floor(x)\n")
    assert unread_imports(source) == ["os", "scale"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []
