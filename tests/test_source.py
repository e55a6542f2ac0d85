"""Checks on the package source itself."""

from __future__ import annotations

import ast
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
