"""Checks on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "heiscalc"
TESTS = Path(__file__).resolve().parent


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


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _unbound_exports(tree: ast.Module) -> list[str]:
    """Names listed in the module's __all__ that no module-level
    statement binds."""
    exported, bound = [], set()
    for statement in tree.body:
        if isinstance(statement, (*_FUNCTIONS, ast.ClassDef)):
            bound.add(statement.name)
        elif isinstance(statement, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in statement.names)
        elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
            names = {node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)}
            if "__all__" in names:
                exported = ast.literal_eval(statement.value)
            bound.update(names)
    return [name for name in exported if name not in bound]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_all_names_are_bound(path):
    assert _unbound_exports(ast.parse(path.read_text())) == []


def test_unbound_export_detector():
    tree = ast.parse("from m import a\nimport p.q\ndef f(): pass\nclass C: pass\nx, y = 1, 2\n"
                     "z: int = 3\n__all__ = ['a', 'p', 'f', 'C', 'x', 'y', 'z', 'gone', 'q']\n")
    assert _unbound_exports(tree) == ["gone", "q"]


def _owned_nodes(tree: ast.Module):
    """(owner, node) for every node of `tree`.  The owner is the
    module-level function ('f') or the method of a module-level class
    ('C.m') the node sits in; elsewhere in a class it is the class name,
    and elsewhere in the module the statement's name or None."""
    for statement in tree.body:
        if isinstance(statement, ast.ClassDef):
            for member in statement.body:
                owner = (f"{statement.name}.{member.name}" if isinstance(member, _FUNCTIONS)
                         else statement.name)
                for node in ast.walk(member):
                    yield owner, node
            for part in (*statement.decorator_list, *statement.bases, *statement.keywords):
                for node in ast.walk(part):
                    yield statement.name, node
        else:
            for node in ast.walk(statement):
                yield getattr(statement, "name", None), node


def _unreferenced_private_functions(trees: dict[str, ast.Module]) -> list[str]:
    """Private module-level functions, and private methods of module-level
    classes, that no module of `trees` reads outside their own definition.
    A method counts as read by any attribute of its name; assignment
    targets are not reads."""
    # (module, owner of the read) per name read
    readers: dict[str, set] = {}
    for module, tree in trees.items():
        for owner, node in _owned_nodes(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names = [node.id]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                readers.setdefault(name, set()).add((module, owner))
    definitions = []  # (module, definition, its owner name)
    for module, tree in sorted(trees.items()):
        for statement in tree.body:
            if isinstance(statement, _FUNCTIONS):
                definitions.append((module, statement, statement.name))
            elif isinstance(statement, ast.ClassDef):
                definitions.extend((module, member, f"{statement.name}.{member.name}")
                                   for member in statement.body if isinstance(member, _FUNCTIONS))
    return [
        f"{module}: {owner}"
        for module, node, owner in definitions
        if node.name.startswith("_") and not node.name.startswith("__")
        and not readers.get(node.name, set()) - {(module, owner)}
    ]


def test_no_unreferenced_private_functions():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert _unreferenced_private_functions(trees) == []


def test_unreferenced_private_function_detector():
    trees = {
        "a.py": ast.parse("def _used(): pass\ndef _dead(): return _dead\ndef public(): pass\n"
                          "def __getattr__(name): pass\n"),
        "b.py": ast.parse("from .a import _used as alias\nimport a\ndef _via_attribute(): pass\n"
                          "a._via_attribute\ndef _rebound(): pass\n_rebound = None\n"),
    }
    assert _unreferenced_private_functions(trees) == ["a.py: _dead", "b.py: _rebound"]


def test_unreferenced_private_method_detector():
    trees = {
        "a.py": ast.parse(
            "class C:\n"
            "    def _called(self): pass\n"
            "    def _dead(self): return self._dead()\n"
            "    def _used_elsewhere(self): pass\n"
            "    def _called_from_class_body(self): pass\n"
            "    def __repr__(self): pass\n"
            "    def run(self):\n"
            "        def _nested(): pass\n"
            "        return self._called()\n"
            "    hook = _called_from_class_body\n"
        ),
        "b.py": ast.parse("def public(obj): return obj._used_elsewhere()\nC._dead = None\n"),
    }
    assert _unreferenced_private_functions(trees) == ["a.py: C._dead"]


def _imported_modules(tree: ast.Module) -> set[str]:
    """Top-level names of the modules `tree` imports, relative imports aside."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_nothing_imports_click():
    # The command line runs on argparse; click is no dependency.
    paths = sorted(SRC.parent.rglob("*.py")) + sorted(TESTS.rglob("*.py"))
    assert [p.name for p in paths if "click" in _imported_modules(ast.parse(p.read_text()))] == []
