"""Checks on the library's source text."""

import ast
from pathlib import Path

import hesskit


def test_library_has_no_assert_statement():
    """``python -O`` strips ``assert``; the library must raise instead."""
    sources = sorted(Path(hesskit.__file__).parent.glob("*.py"))
    assert "forms.py" in {path.name for path in sources}
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
