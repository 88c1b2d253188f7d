"""Every unbounded cache in the library is on the list below on purpose.

An lru_cache(maxsize=None) keeps every argument and result for the life of
the process, so one keyed by a parameter grows with the number of distinct
queries.  A new unbounded cache fails this test until it is added to the
list, with its reason; a cache keyed by a parameter takes the bound
lattice.PARAMETER_CACHE_SIZE instead.
"""

import ast
from pathlib import Path

from ahyper import lattice

SRC = Path(lattice.__file__).parent

UNBOUNDED = {
    # keyed by the matrix alone: one entry per matrix
    "classify.curve_facet_indices",
    "classify.curve_holes",
    "cone.face_lattice",
    "cone.facets",
    "lattice.column_lattice",
    "lattice.homogeneity_witness",
    "lattice.kernel_lattice",
    "semigroup.is_normal",
    "toric.graver_basis",
    "toric.toric_ideal",
    # keyed by a matrix and a small order
    "series.kernel_ball",
}


def _is_unbounded(dec) -> bool:
    target = dec.func if isinstance(dec, ast.Call) else dec
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    if name == "cache":
        return True
    if name != "lru_cache" or not isinstance(dec, ast.Call):
        return False
    sizes = [kw.value for kw in dec.keywords if kw.arg == "maxsize"] + dec.args[:1]
    return bool(sizes) and isinstance(sizes[0], ast.Constant) and sizes[0].value is None


def _unbounded_caches(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(_is_unbounded(dec) for dec in node.decorator_list):
                yield f"{path.stem}.{node.name}"


def test_unbounded_caches_are_the_listed_ones():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = {name for path in modules for name in _unbounded_caches(path)}
    assert found == UNBOUNDED


def test_scan_recognises_each_unbounded_spelling():
    source = (
        "@lru_cache(maxsize=None)\ndef a(x): pass\n"
        "@functools.lru_cache(None)\ndef b(x): pass\n"
        "@cache\ndef c(x): pass\n"
        "@lru_cache(maxsize=PARAMETER_CACHE_SIZE)\ndef d(x): pass\n"
        "@lru_cache\ndef e(x): pass\n"
        "@lru_cache()\ndef f(x): pass\n"
    )
    tree = ast.parse(source)
    flagged = [
        node.name for node in tree.body
        if any(_is_unbounded(dec) for dec in node.decorator_list)
    ]
    assert flagged == ["a", "b", "c"]
