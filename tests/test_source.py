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


def _library_trees():
    sources = sorted(Path(hesskit.__file__).parent.glob("*.py"))
    return [(path.name, ast.parse(path.read_text(), str(path))) for path in sources]


def _raised_name(node: ast.Raise):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_library_raises_no_assertion_error():
    """A failed check raises ``VerificationError``; ``AssertionError`` is
    left to programming errors."""
    found = [f"{name}:{node.lineno}"
             for name, tree in _library_trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and node.exc is not None
             and _raised_name(node) == "AssertionError"]
    assert found == []


def test_every_module_level_import_is_used():
    """``__init__.py`` re-exports; every other module uses what it imports."""
    unused = []
    for name, tree in _library_trees():
        if name == "__init__.py":
            continue
        bound = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}:{line} {ident}" for ident, line in bound.items()
                   if ident not in used]
    assert unused == []


def test_no_import_inside_a_function():
    """Imports sit at module level, where the dependency graph is visible."""
    found = [f"{name}:{inner.lineno}"
             for name, tree in _library_trees()
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for inner in ast.walk(node)
             if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert sorted(set(found)) == []
