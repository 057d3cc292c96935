"""Checks on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "heiscalc"
TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"


def _assert_statements(tree: ast.Module) -> list[int]:
    """Lines of the module's assert statements, which `python -O` strips."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # An output check must hold under -O too, so it raises AssertionError.
    assert _assert_statements(ast.parse(path.read_text())) == []


def test_assert_statement_detector():
    tree = ast.parse("assert x\nif y:\n    assert z, 'msg'\nraise AssertionError('kept')\n")
    assert _assert_statements(tree) == [1, 3]


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


def _scoped_nodes(node: ast.AST, params: frozenset = frozenset()):
    """(node, parameters) for `node` and every node below it, where
    parameters holds the names the parameters of the functions and
    lambdas around the node bind, the node's own included."""
    if isinstance(node, (*_FUNCTIONS, ast.Lambda)):
        args = node.args
        params = params | {arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                               args.vararg, args.kwarg) if arg}
    yield node, params
    for child in ast.iter_child_nodes(node):
        yield from _scoped_nodes(child, params)


def _owned_nodes(tree: ast.Module):
    """(owner, node, parameters) for every node of `tree`, parameters as
    `_scoped_nodes` gives them.  The owner is the module-level function
    ('f') or the method of a module-level class ('C.m') the node sits in;
    elsewhere in a class it is the class name, and elsewhere in the
    module the statement's name or None."""
    for statement in tree.body:
        if isinstance(statement, ast.ClassDef):
            for member in statement.body:
                owner = (f"{statement.name}.{member.name}" if isinstance(member, _FUNCTIONS)
                         else statement.name)
                for node, params in _scoped_nodes(member):
                    yield owner, node, params
            for part in (*statement.decorator_list, *statement.bases, *statement.keywords):
                for node, params in _scoped_nodes(part):
                    yield statement.name, node, params
        else:
            for node, params in _scoped_nodes(statement):
                yield getattr(statement, "name", None), node, params


def _unreferenced_definitions(trees: dict[str, ast.Module], public: bool = False,
                              defined_in: dict[str, ast.Module] | None = None) -> list[str]:
    """Module-level functions, and methods of module-level classes, of the
    modules `defined_in` (default: all of `trees`) that no module of
    `trees` reads outside their own definition: the private ones (one
    leading underscore), or with `public` the public ones and the
    module-level classes.  A method counts as read by any name or
    attribute of its name.  A module-level definition counts as read
    only by an import of its name, by `module.name` with `module` the
    name of a module of `trees`, or by a name in its own module that no
    parameter shadows.  Assignment targets are not reads."""
    modules = {Path(module).stem for module in trees}
    # (module, owner of the read, how) per name read; how is "import",
    # "module" for `module.name`, "attribute" for any other attribute,
    # "shadowed" for a name a parameter binds, and else the module's own
    readers: dict[str, set] = {}
    for module, tree in trees.items():
        for owner, node, params in _owned_nodes(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads = [(node.id, "shadowed" if node.id in params else module)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                qualified = isinstance(node.value, ast.Name) and node.value.id in modules
                reads = [(node.attr, "module" if qualified else "attribute")]
            elif isinstance(node, ast.ImportFrom):
                reads = [(alias.name, "import") for alias in node.names]
            else:
                continue
            for name, how in reads:
                readers.setdefault(name, set()).add((module, owner, how))
    definitions = []  # (module, definition, its owner name)
    for module, tree in sorted((trees if defined_in is None else defined_in).items()):
        for statement in tree.body:
            if isinstance(statement, _FUNCTIONS) or (public and isinstance(statement, ast.ClassDef)):
                definitions.append((module, statement, statement.name))
            if isinstance(statement, ast.ClassDef):
                definitions.extend((module, member, f"{statement.name}.{member.name}")
                                   for member in statement.body if isinstance(member, _FUNCTIONS))

    def is_read(module: str, owner: str, name: str) -> bool:
        method = "." in owner
        return any((reader, by) != (module, owner) and (method or how in ("import", "module", module))
                   for reader, by, how in readers.get(name, ()))

    return [
        f"{module}: {owner}"
        for module, node, owner in definitions
        if (not node.name.startswith("_") if public else
            node.name.startswith("_") and not node.name.startswith("__"))
        and not is_read(module, owner, node.name)
    ]


def test_no_unreferenced_private_functions():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert _unreferenced_definitions(trees) == []


def test_unreferenced_private_function_detector():
    trees = {
        "a.py": ast.parse("def _used(): pass\ndef _dead(): return _dead\ndef public(): pass\n"
                          "def __getattr__(name): pass\n"),
        "b.py": ast.parse("from .a import _used as alias\nimport a\ndef _via_attribute(): pass\n"
                          "a._via_attribute\ndef _rebound(): pass\n_rebound = None\n"),
    }
    assert _unreferenced_definitions(trees) == ["a.py: _dead", "b.py: _rebound"]


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
    assert _unreferenced_definitions(trees) == ["a.py: C._dead"]


# Public definitions that no module of src/ or bench/ reads, each kept
# for the reason given.  An entry for a name that gains a reader is stale.
_KEPT_PUBLIC = {
    "coeff.py: PolyCoeff.eval_exact": "oracle: exact evaluation at a rational point",
    "contact.py: A_coefficient": "claim c06, the contactness ledger",
    "contact.py: lambda_coefficient": "claim c06, the contactness ledger",
    "contact.py: is_contact": "tracer binding (bench/tracer.py) until ROADMAP item 11",
    "frame.py: all_blades": "many test readers",
    "frame.py: dx": "many test readers",
    "frame.py: dy": "many test readers",
    "frame.py: form_from_json": "planned caller: ROADMAP item 12",
    "frame.py: inner": "oracle: the blade-orthonormal inner product, read by 3 tests",
    "frame.py: wedge": "the free form of Form.wedge: 75 test call sites in 5 test files",
    "frame.py: orientability_e_to_h": "claim c11, the surface conversions",
    "frame.py: orientability_h_to_e": "claim c11, the surface conversions",
    "frame.py: is_characteristic_normal": "claim c11, the surface conversions",
    "frame.py: heis_tangent_bivector": "claim c11, the surface conversions",
    "rumin.py: P_apply": "tracer binding (bench/tracer.py) until ROADMAP item 11",
    "surface.py: scan_grid": "tracer binding (bench/tracer.py) until ROADMAP item 11",
    "surface.py: mobius_normal_components": "oracle for claim c10; ROADMAP item 9 gives it a caller",
    "surface.py: mobius_characteristic_closed_form": "claim c10, the closed-form characteristic point",
}


def test_no_unreferenced_public_definitions():
    src = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    bench = {f"bench/{path.name}": ast.parse(path.read_text()) for path in sorted(BENCH.glob("*.py"))}
    unreferenced = _unreferenced_definitions({**src, **bench}, public=True, defined_in=src)
    assert [name for name in unreferenced if name not in _KEPT_PUBLIC] == []
    assert [name for name in _KEPT_PUBLIC if name not in unreferenced] == []  # stale entries


def test_unreferenced_public_definition_detector():
    src = {
        "a.py": ast.parse("def used(): pass\ndef dead(): return dead()\ndef _private(): pass\n"
                          "class Read:\n    def method(self): pass\n    def __repr__(self): pass\n"
                          "class Unread:\n    def run(self): return self.run()\n"),
        "b.py": ast.parse("from .a import used\nclass Base: pass\nclass Derived(Base): pass\n"),
    }
    bench = {"bench/c.py": ast.parse("import a\na.Read().method()\ndef unread_in_bench(): pass\n")}
    assert _unreferenced_definitions({**src, **bench}, public=True, defined_in=src) == [
        "a.py: dead", "a.py: Unread", "a.py: Unread.run", "b.py: Derived"]
    # a parameter or a method call of the same name in its own module, or
    # a name another module does not import, is no read of a module-level
    # function; `module.name` is
    src["d.py"] = ast.parse("def shadowed(): pass\ndef lambda_shadowed(): pass\ndef method_named(): pass\n"
                            "def unimported(): pass\ndef qualified(): pass\n"
                            "def uses(shadowed, x): return shadowed, x.method_named()\n"
                            "f = lambda lambda_shadowed: lambda_shadowed\n")
    src["e.py"] = ast.parse("import d\ndef reader(): return unimported, d.qualified, d.uses\n")
    assert _unreferenced_definitions({**src, **bench}, public=True, defined_in=src) == [
        "a.py: dead", "a.py: Unread", "a.py: Unread.run", "b.py: Derived", "d.py: shadowed",
        "d.py: lambda_shadowed", "d.py: method_named", "d.py: unimported", "e.py: reader"]


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


def _float_paths(nodes) -> list[str]:
    """Float paths in the given syntax trees: a parameter named `tol`, a
    `float` annotation or a `float(...)` call, each with its line, in
    line order."""
    found = []
    for node in (sub for tree in nodes for sub in ast.walk(tree)):
        if isinstance(node, ast.arg) and node.arg == "tol":
            found.append((node.lineno, "parameter tol"))
        annotation = (node.annotation if isinstance(node, (ast.arg, ast.AnnAssign))
                      else node.returns if isinstance(node, _FUNCTIONS) else None)
        if annotation is not None and any(isinstance(name, ast.Name) and name.id == "float"
                                          for name in ast.walk(annotation)):
            found.append((node.lineno, "float annotation"))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append((node.lineno, "float call"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


# The exact layers; `frame` holds the normal-field conversions too.
_EXACT_MODULES = ("coeff.py", "frame.py", "rumin.py", "contact.py", "sampling.py", "_linalg.py")
_EXACT_CONVERSIONS = ("orientability_e_to_h", "orientability_h_to_e",
                      "is_characteristic_normal", "heis_tangent_bivector")


@pytest.mark.parametrize("name", _EXACT_MODULES)
def test_exact_modules_have_no_float_path(name):
    assert _float_paths([ast.parse((SRC / name).read_text())]) == []


def test_normal_field_conversions_have_no_float_path():
    # The conversions live in an exact module, with the private helpers they call.
    tree = ast.parse((SRC / "frame.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, _FUNCTIONS)}
    checked = [functions[name] for name in _EXACT_CONVERSIONS]
    read = {node.id for f in checked for node in ast.walk(f) if isinstance(node, ast.Name)}
    checked += [functions[name] for name in sorted(read & functions.keys()) if name.startswith("_")]
    assert _float_paths(checked) == []


def _package_imports(tree: ast.Module) -> list[str]:
    """The package modules that `tree` imports, each with its line: at
    any nesting level, `TYPE_CHECKING` blocks included, relative or
    absolute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "heiscalc" + (f".{node.module}" if node.module else "") if node.level else node.module
            names = [module, *(f"{module}.{alias.name}" for alias in node.names)]
        else:
            continue
        found.update((node.lineno, name.split(".")[1]) for name in names if name.startswith("heiscalc."))
    return [f"line {line}: {module}" for line, module in sorted(found)]


def test_surface_imports_no_symbolic_layer():
    # The numeric scan runs without the exact layers, in any code path.
    symbolic = ("coeff", "frame", "rumin", "contact", "sampling")
    imports = _package_imports(ast.parse((SRC / "surface.py").read_text()))
    assert [found for found in imports if found.split(": ")[1] in symbolic] == []


def test_package_import_detector():
    tree = ast.parse("import numpy\nfrom . import coeff, frame\nfrom .rumin import dims as coeff\n"
                     "if TYPE_CHECKING:\n    from .contact import SmoothMap\n"
                     "def f():\n    from heiscalc.sampling import seeded_rng\n    import heiscalc.coeff\n"
                     "    from heiscalc import surface\n    from numpy import linalg\n")
    assert _package_imports(tree) == ["line 2: coeff", "line 2: frame", "line 3: rumin", "line 5: contact",
                                      "line 7: sampling", "line 8: coeff", "line 9: surface"]


def test_float_path_detector():
    tree = ast.parse(
        "def f(x: Sequence[float], tol=0.0) -> float:\n"
        "    return float(x)\n"
        "def g(*, tol: int | float) -> int:\n"
        "    y: float = 1\n"
        "    return int(y)\n"
        "def h(floats: list, to: float | None = None): return x.float(floats)\n"
    )
    assert _float_paths([tree]) == [
        "line 1: float annotation", "line 1: float annotation", "line 1: parameter tol",
        "line 2: float call", "line 3: float annotation", "line 3: parameter tol",
        "line 4: float annotation", "line 6: float annotation",
    ]


def _reads(tree: ast.Module, names) -> set[str]:
    """The names and attributes that the module-level definitions `names`
    of `tree` read, with what every module-level function, class or
    assignment they read reads in turn; an import's names count as read."""
    definitions = {}
    for statement in tree.body:
        if isinstance(statement, (*_FUNCTIONS, ast.ClassDef)):
            definitions[statement.name] = statement
        elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
            definitions.update((node.id, statement) for t in targets for node in ast.walk(t)
                               if isinstance(node, ast.Name))
    read, todo = set(), list(names)
    while todo:
        for node in ast.walk(definitions[todo.pop()]):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found = {node.id}
            elif isinstance(node, ast.Attribute):
                found = {node.attr}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                found = {alias.name.split(".")[-1] for alias in node.names}
            else:
                continue
            todo += [name for name in found - read if name in definitions and name not in names]
            read |= found
    return read


# The coordinate chart of conftest checks the frame's conventions, so it
# reads none of the code that carries them.
_CHART = ("to_chart", "d_chart", "pullback_chart", "wedge_chart")
_FRAME_CONVENTIONS = {"exterior_derivative", "frame_apply", "twist_polynomial", "d_contact_form", "_d_table",
                      "pullback_form", "wedge", "_merge_blades"}


def test_the_chart_reads_no_frame_convention():
    tree = ast.parse((TESTS / "conftest.py").read_text())
    assert sorted(_reads(tree, _CHART) & _FRAME_CONVENTIONS) == []


def test_read_names_detector():
    tree = ast.parse("import frame\nalias = frame.wedge\n"
                     "def chart(x):\n    return helper(x).coeffs, alias\n"
                     "def helper(y):\n    from m import twist as tw\n    return tw(y)\n"
                     "def unread():\n    return d\n")
    assert _reads(tree, ["chart"]) == {"helper", "x", "coeffs", "alias", "frame", "wedge", "twist", "tw", "y"}
