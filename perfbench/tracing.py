"""Spans around the calls into each layer of the package, recorded from
outside it.

Modules import names directly (``from .semigroup import e_tau``), so a
function is wrapped at every module attribute that is bound to it: the
binding its caller looks up at call time.  Each wrapper records one span
(id, parent id, operation, name, start, end); a layer's self time is its
span time minus the time of the spans it caused.  Spans stay in memory
and are written out once, when the traced round ends.
"""

from __future__ import annotations

import json
from time import perf_counter

# (span name, module, attribute) for every wrapped function
SPANS = (
    ("classify.e_profile", "classify", "e_profile"),
    ("classify.iso_witness", "classify", "iso_witness"),
    ("semigroup.e_tau", "semigroup", "e_tau"),
    ("semigroup.in_na_mod_face", "semigroup", "in_NA_mod_face"),
    ("semigroup.is_normal", "semigroup", "is_normal"),
    ("lattice.integer_solve", "lattice", "integer_solve"),
    ("lattice.affine_residue", "lattice", "affine_residue"),
    ("lattice.quotient_representatives", "lattice", "quotient_representatives"),
    ("cone.facets", "cone", "facets"),
    ("cone.face_lattice", "cone", "face_lattice"),
    ("toric.toric_ideal", "toric", "toric_ideal"),
    ("toric.graver_basis", "toric", "graver_basis"),
    ("toric.min_solutions", "toric", "_minimal_inhomogeneous_solutions"),
    ("toric.b_ideal", "toric", "b_ideal"),
    ("weyl.contiguity_operator", "weyl", "contiguity_operator"),
    ("weyl.weyl_mul", "weyl", "weyl_mul"),
    ("weyl.verify", "weyl", "verify_weight"),
    ("weyl.verify", "weyl", "verify_certificate"),
    ("series.exponent_search", "cli", "_series_exponent"),
    ("series.phi_v", "series", "phi_v"),
    ("series.apply_operator", "series", "apply_operator"),
    ("series.check_solution", "series", "check_solution"),
    ("cli", "cli", "main"),
)

MODULES = ("lattice", "cone", "semigroup", "toric", "weyl", "series", "classify", "cli")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        self.op = "setup"
        self.next_id = 0
        self.min_solution_keys: set = set()
        self.min_solution_repeats = 0
        self.b_ideal_keys: set = set()
        self.b_ideal_components = 0
        self.operator_terms = 0
        self.originals: dict[str, object] = {}

    def wrap(self, name, fn, after=None):
        stats = self.stats.setdefault(name, [0, 0.0])
        stack = self.stack
        spans = self.spans

        def traced(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                stats[0] += 1
                stats[1] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                spans.append((span_id, parent, self.op, name, start, end))
            if after is not None:
                after(args, result)
            return result

        return traced

    # hooks for the counts that are not calls or times

    def _min_solutions(self, args, _result):
        key = (args[0], tuple(args[1]))
        if key in self.min_solution_keys:
            self.min_solution_repeats += 1
        self.min_solution_keys.add(key)

    def _b_ideal(self, args, result):
        key = (args[0], tuple(args[1]))
        if key not in self.b_ideal_keys:
            self.b_ideal_keys.add(key)
            self.b_ideal_components += len(result.components)

    def _operator(self, _args, result):
        self.operator_terms += len(result.element.terms)

    def install(self, pkg):
        """Wrap every SPANS function at each module binding that refers to it."""
        hooks = {
            "toric.min_solutions": self._min_solutions,
            "toric.b_ideal": self._b_ideal,
            "weyl.contiguity_operator": self._operator,
        }
        mods = [getattr(pkg, m) for m in MODULES]
        for name, owner, attr in SPANS:
            orig = getattr(getattr(pkg, owner), attr)
            self.originals[name] = orig
            wrapped = self.wrap(name, orig, hooks.get(name))
            for mod in mods:
                if mod.__dict__.get(attr) is orig:
                    setattr(mod, attr, wrapped)
        # a method: the binding is the class attribute
        toric = pkg.toric
        toric.ToricIdeal.groebner = self.wrap("toric.groebner", toric.ToricIdeal.groebner)

    def run_op(self, label, fn):
        """Run one operation inside a root span named after its workload."""
        self.op = label
        return self.wrap("op", fn)()

    def per_layer(self, pkg):
        """Calls and self times per span name, plus cache and shape counts."""
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_ms"] = self_s * 1e3
        out["toric.min_solutions.repeat_calls"] = self.min_solution_repeats
        out["toric.b_ideal.components"] = self.b_ideal_components
        out["weyl.operator_terms"] = self.operator_terms
        out["cone.matrices"] = self.originals["cone.facets"].cache_info().currsize
        out["semigroup.mod_face_cache.hit_ratio"] = _hit_ratio(
            pkg.semigroup._in_na_mod_face_int)
        out["classify.residue_cache.hit_ratio"] = _hit_ratio(
            pkg.classify._residue_table)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _hit_ratio(cached) -> float:
    info = cached.cache_info()
    total = info.hits + info.misses
    return info.hits / total if total else 0.0
