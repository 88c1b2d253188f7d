"""The library guards its contracts with typed errors, never with assert.

An assert statement vanishes under python -O, and a bare AssertionError
escapes the CLI as a traceback; both would turn a broken invariant into a
wrong answer or an untyped crash.
"""

import ast
from pathlib import Path

from ahyper import lattice

SRC = Path(lattice.__file__).parent


def _assert_sites(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno, "raise AssertionError"


def test_library_has_no_assert_guards():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{line}: {what}"
        for path in modules
        for line, what in _assert_sites(path)
    ]
    assert found == []
