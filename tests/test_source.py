"""Checks on the package source itself, as written."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "orgsim"


def test_no_module_checks_with_assert():
    # `python -O` strips assert statements, so a check made with one is
    # gone from an optimised run: the package raises instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert len(list(SRC.rglob("*.py"))) > 10
    assert found == []
