"""Checks on the library's source text."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import wildforms

SOURCES = sorted(Path(wildforms.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants that no
    module of ``sources`` reads as a name, an attribute or an imported
    name, as "module: name" in definition order."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return [f"{module}: {name}" for module, name in defined if name not in read]


def test_unread_private_names_are_found():
    sources = {"a.py": ("_A = 1\n_B: int = 2\n__all__ = []\n"
                        "def _f():\n    return _A\nclass _C:\n    pass\n"),
               "b.py": ("from .a import _C\nimport a\nx = a._B\n_unused = 3\n"
                        "def _g():\n    pass\ndef h():\n    pass\n")}
    assert unread_private_names(sources) == ["a.py: _f", "b.py: _unused", "b.py: _g"]


def test_every_private_name_is_read():
    """Aim 2: private code that no module calls is deleted, not kept."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unread_private_names(sources) == []


def float_uses(source: str) -> list[str]:
    """Float literals, reads of the name ``float`` and true divisions,
    as "line: what" in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and type(node.value) is float:
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "name float"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_float_uses_are_found():
    source = ("x = 1.5\ny = float(2) + 1e3\nz = a / b\nw //= 2\nv /= 3\n"
              "u = Fraction(2, 3) // 1\ndef f(t: float) -> int:\n    return t\n")
    assert float_uses(source) == ["1: float literal 1.5", "2: float literal 1000.0",
                                  "2: name float", "3: true division",
                                  "5: true division", "7: name float"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floats_and_no_true_division(path):
    """Aim 3: exact arithmetic only, so no float can enter a result."""
    assert float_uses(path.read_text(encoding="utf-8")) == []
