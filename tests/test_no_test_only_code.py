"""Every module-level function and class in the library has a caller there.

Code that only the tests call belongs in the tests (`tests/helpers.py`, or
the oracles of `test_old_code_equivalence.py`): kept in the library it is
one more thing to read, keep working and keep fast.  A definition counts
as used when its name appears anywhere in src/ahyper outside the
definition itself, as a name, an attribute or an import.  Entry points
that only something outside the package calls are listed below with
their reason.
"""

import ast
from pathlib import Path

from ahyper import lattice

SRC = Path(lattice.__file__).parent

ENTRY_POINTS = {
    # the `ahyper` console script of pyproject.toml
    "cli.main",
}


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]


def _unused_definitions(trees):
    """Module-level functions and classes of {module: tree} that no other
    top-level statement of any module names, as 'module.name'."""
    used = {}
    for module, tree in trees.items():
        for top in tree.body:
            for name in set(_names(top)):
                used.setdefault(name, []).append(top)
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if all(top is node for top in used.get(node.name, ())):
                out.append(f"{module}.{node.name}")
    return out


def _library_trees():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in modules
    }


def test_every_definition_has_a_caller_in_the_library():
    assert set(_unused_definitions(_library_trees())) <= ENTRY_POINTS


def test_entry_points_are_defined():
    defined = {
        f"{module}.{node.name}"
        for module, tree in _library_trees().items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert ENTRY_POINTS <= defined


def test_scan_flags_only_uncalled_definitions():
    trees = {
        "a": ast.parse(
            "from b import g\n"
            "def f(x):\n    return f(x - 1)\n"  # recursion alone is no caller
            "def h():\n    return g()\n"
            "class K:\n    pass\n"
            "T = (K,)\n"
        ),
        "b": ast.parse("import a\ndef g():\n    return a.h\n"),
    }
    assert _unused_definitions(trees) == ["a.f"]
