"""Checks on the package source itself."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import causaleffects

PACKAGE_DIR = Path(causaleffects.__file__).parent


def test_package_has_no_assert_statements():
    """Invariants raise typed errors: ``assert`` vanishes under ``python -O``."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def _unused_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """Names an import binds that the module never reads and ``__all__``
    does not list (``from __future__`` imports excepted)."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted((name, line) for name, line in bound.items() if name not in used)


def test_package_has_no_unused_imports():
    """The repo has no linter; an import nothing reads is dead weight."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line} {name}" for name, line in _unused_imports(tree)]
    assert not found, f"unused imports in the package: {found}"


def test_package_exports_every_module_export():
    """``from causaleffects import X`` works for every name a module lists."""
    missing = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"causaleffects.{path.stem}")
        missing += [f"{path.stem}.{name}" for name in getattr(module, "__all__", ())
                    if name not in causaleffects.__all__]
    assert not missing, f"module exports missing from the package __all__: {missing}"


# the numeric types whose isinstance tests belong to errors.py alone
_NUMERIC_NAMES = {"int", "float", "Number", "Complex", "Real", "Rational", "Integral"}
_NUMERIC_ATTRIBUTES = {"integer", "floating", "number", "Number", "Complex", "Real",
                       "Rational", "Integral"}


def _numeric_type_tests(tree: ast.Module) -> list[int]:
    """Lines of ``isinstance`` calls against ``int``, ``float``,
    ``np.integer``, ``np.floating`` or a ``numbers`` class."""
    def numeric(node) -> bool:
        if isinstance(node, ast.Tuple):
            return any(map(numeric, node.elts))
        if isinstance(node, ast.Name):
            return node.id in _NUMERIC_NAMES
        return isinstance(node, ast.Attribute) and node.attr in _NUMERIC_ATTRIBUTES

    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and numeric(node.args[1])]


def test_numeric_type_tests_live_in_errors_only():
    """What a count and a finite number are is decided once, in
    ``errors._integer`` and ``errors._finite``."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}" for line in _numeric_type_tests(tree)]
    assert not found, f"numeric isinstance tests outside errors.py: {found}"
