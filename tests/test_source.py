"""Checks on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "heiscalc"


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads; names listed in __all__
    count as read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_detector():
    tree = ast.parse("import os\nfrom typing import Any, List\nfrom .m import a as b\nx: List = b\n")
    assert _unused_imports(tree) == ["line 2: Any", "line 1: os"]


def _unreferenced_private_functions(trees: dict[str, ast.Module]) -> list[str]:
    """Private module-level functions that no module of `trees` names
    outside their own definition."""
    # (module, top-level definition the name sits in, or None) per name read
    readers: dict[str, set] = {}
    for module, tree in trees.items():
        for statement in tree.body:
            owner = getattr(statement, "name", None)
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                for name in names:
                    readers.setdefault(name, set()).add((module, owner))
    return [
        f"{module}: {node.name}"
        for module, tree in sorted(trees.items())
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and not readers.get(node.name, set()) - {(module, node.name)}
    ]


def test_no_unreferenced_private_functions():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert _unreferenced_private_functions(trees) == []


def test_unreferenced_private_function_detector():
    trees = {
        "a.py": ast.parse("def _used(): pass\ndef _dead(): return _dead\ndef public(): pass\n"
                          "def __getattr__(name): pass\n"),
        "b.py": ast.parse("from .a import _used as alias\nimport a\ndef _via_attribute(): pass\n"
                          "a._via_attribute\n"),
    }
    assert _unreferenced_private_functions(trees) == ["a.py: _dead"]
