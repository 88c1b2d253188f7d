"""The three workloads: their inputs, their operations and their checks.

Inputs are made in the parent process from the seed and the round number
alone, and handed to the round's worker as JSON.  The expected answers are made with the brute-force mathematics
of ``oracle``; nothing on the input side imports the package under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from fractions import Fraction
from itertools import combinations, product

import oracle

DEMO = ((1, 1, 1, 1), (0, 0, 1, 2), (0, 1, 1, 0))
NORMAL3 = ((1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, -1))
CURVE5 = ((1, 1, 1, 1, 1), (0, 2, 4, 7, 9))
WIDE5 = ((1, 1, 1, 1, 1), (0, 0, 1, 1, 2), (0, 1, 0, 1, 1))

# lattice polygons given by all their lattice points: the cone over such
# a point set is normal, since every lattice polygon has a unimodular
# triangulation
POLYGONS = (
    ((0, 0), (1, 0), (0, 1), (1, 1)),
    ((0, 0), (1, 0), (2, 0), (0, 1)),
    ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1)),
    ((0, 0), (1, 0), (0, 1), (1, 1), (1, 2)),
    ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1)),
)

CLASSIFY_MATRICES = 100
CLASSIFY_SHAPES = ((2, 3), (2, 4), (2, 5), (3, 4), (3, 5))
CLASSIFY_QUERIES_PER_MATRIX = 4
PARAMETER_RANGE = 3


def _frac(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _parse_vec(v):
    return tuple(Fraction(x) for x in v)


# ---------------------------------------------------------------------------
# census: enumerate_classes over overlapping boxes


def _census_matrices(rng):
    """The paper's three matrices plus one seeded normal polygon and one
    seeded monomial curve.  Each comes with a fixed split of its parameter
    box into tiles: per axis, a list of (lo, hi) segments."""
    poly = rng.choice(POLYGONS)
    polygon = ((1,) * len(poly), tuple(p[0] for p in poly), tuple(p[1] for p in poly))
    while True:
        w = (0,) + tuple(sorted(rng.sample(range(1, 8), 3)))
        if oracle.Curve.shape(((1,) * 4, w)):
            break
    curve = ((1, 1, 1, 1), w)
    return [
        ("normal3", NORMAL3, (((-2, -2), (-1, 0), (1, 3)),) * 3),
        ("curve5", CURVE5, (((-1, 0), (1, 2), (3, 4)),
                            ((-3, 4), (5, 12), (13, 20), (21, 28)))),
        ("demo", DEMO, (((-1, -1), (0, 1), (2, 3)),) * 3),
        # the seeded matrices get tiles of one size, 8 or more points, so
        # that their varying cost per point stays away from the median
        ("polygon", polygon, (((-1, 0), (1, 2)),) * 3),
        ("curve4", curve, (((-1, 0), (1, 3)), ((-2, 5), (6, 13), (14, 21)))),
    ]


def _revisit(rng, tile):
    """A random sub-box of a tile already enumerated."""
    box = []
    for lo, hi in tile:
        a, b = sorted((rng.randint(lo, hi), rng.randint(lo, hi)))
        box.append((a, b))
    return tuple(box)


class _Labeller:
    """Class labels for parameters: the paper's rule where it applies, the
    residue oracle elsewhere.  Equal labels mean isomorphic systems."""

    def __init__(self, rows):
        self.rows = rows
        self.cone = oracle.Cone(rows)
        weights = oracle.Curve.shape(rows)
        self.curve = oracle.Curve(weights) if weights else None
        self.normal = self.curve is None and self.cone.is_normal()
        self.reps: list = []
        self.memo: dict = {}

    @property
    def rule(self):
        return "curve" if self.curve else "normal" if self.normal else "oracle"

    def label(self, beta) -> int:
        beta = tuple(Fraction(x) for x in beta)
        if beta not in self.memo:
            self.memo[beta] = self._label(beta)
        return self.memo[beta]

    def _label(self, beta):
        for i, rep in enumerate(self.reps):
            if self.same(rep, beta):
                return i
        self.reps.append(beta)
        return len(self.reps) - 1

    def same(self, beta, beta2) -> bool:
        if self.curve:
            return self.curve.part(beta) == self.curve.part(beta2)
        if self.normal:
            return oracle.normal_rule(self.cone, beta, beta2)
        return self.cone.residue_tables_equal(beta, beta2)


def census_inputs(rng):
    """Every tile of every matrix once, in seeded order, each tile's census
    computing fresh residue profiles; between them, revisits of random
    sub-boxes of tiles already done, answered from the caches.  The tiles
    fix the multiset of fresh work, so only the order depends on the seed."""
    matrices = _census_matrices(rng)
    streams = []
    for index, (name, rows, segments) in enumerate(matrices):
        labeller = _Labeller(rows)
        if name in ("normal3", "polygon") and not labeller.normal:
            raise AssertionError(f"{name} should be normal")
        if name.startswith("curve") and not labeller.curve:
            raise AssertionError(f"{name} should be a monomial curve")
        tiles = list(product(*segments))
        rng.shuffle(tiles)
        boxes = list(tiles)
        for _ in range(len(tiles) // 2):
            at = rng.randint(1, len(boxes))
            done = [b for b in boxes[:at] if b in tiles]
            boxes.insert(at, _revisit(rng, rng.choice(done)))
        stream = []
        for box in boxes:
            points = list(product(*(range(lo, hi + 1) for lo, hi in box)))
            if labeller.rule == "oracle":
                points = rng.sample(points, min(4, len(points)))
            labels = [[list(p), labeller.label(p)] for p in points]
            stream.append({"matrix": index, "box": [list(b) for b in box],
                           "labels": labels})
        streams.append(stream)
    # interleave the matrices, keeping each one's order
    ops = []
    while any(streams):
        stream = rng.choice([s for s in streams if s])
        ops.append(stream.pop(0))
    return {
        "matrices": [{"name": n, "rows": [list(r) for r in rows]} for n, rows, _ in matrices],
        "ops": ops,
    }


def check_census_op(box, classes, labels):
    """classes: one list of member points per class.  Every box point lies
    in exactly one class, and on the labelled points class and label
    determine each other."""
    problems = []
    where = {}
    for k, members in enumerate(classes):
        for p in members:
            p = tuple(p)
            if p in where:
                problems.append(f"point {p} is in two classes")
            where[p] = k
    expected = set(product(*(range(lo, hi + 1) for lo, hi in box)))
    if set(where) != expected:
        problems.append(f"classes cover {len(where)} points, box has {len(expected)}")
    by_label, by_class = {}, {}
    for p, label in labels:
        k = where.get(tuple(p))
        if by_label.setdefault(label, k) != k or by_class.setdefault(k, label) != label:
            problems.append(f"box {box}: class of {tuple(p)} disagrees with the rule")
            break
    return problems


# ---------------------------------------------------------------------------
# classify: scattered pair queries over a pool of random matrices


def _random_rows(rng, d, n):
    while True:
        rows = ((1,) * n,) + tuple(
            tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(d - 1)
        )
        if oracle._rank(rows) == d:
            return rows


def _random_parameter(rng, d):
    q = rng.choice((1, 1, 2, 3))
    r = PARAMETER_RANGE
    return tuple(Fraction(rng.randint(-r * q, r * q), q) for _ in range(d))


def classify_inputs(rng):
    # equal numbers of each shape, so the pool's cost varies little by seed
    pool = [_random_rows(rng, *CLASSIFY_SHAPES[k % len(CLASSIFY_SHAPES)])
            for k in range(CLASSIFY_MATRICES)]
    queries = []
    for index, rows in enumerate(pool):
        labeller = _Labeller(rows)
        cols = oracle.columns(rows)
        d = len(rows)
        for k in range(CLASSIFY_QUERIES_PER_MATRIX):
            beta = _random_parameter(rng, d)
            kind = rng.random()
            if kind < 0.3:
                chi = rng.choice(cols)
                sign = rng.choice((1, -1))
                beta2 = tuple(b + sign * c for b, c in zip(beta, chi))
            elif kind < 0.6:
                i, j = rng.sample(range(len(cols)), 2)
                beta2 = tuple(b + x + y for b, x, y in zip(beta, cols[i], cols[j]))
            else:
                beta2 = _random_parameter(rng, d)
            expected = None
            if labeller.rule != "oracle" or k == 0:
                # the residue oracle is slow: one query per matrix
                expected = labeller.same(beta, beta2)
            queries.append({
                "matrix": index,
                "beta": [_frac(x) for x in beta],
                "beta2": [_frac(x) for x in beta2],
                "expected": expected,
                "shift_in_lattice": labeller.cone.lattice.contains(
                    tuple(b - a for a, b in zip(beta, beta2))),
                "rule": labeller.rule,
            })
    rng.shuffle(queries)
    return {"matrices": [[list(r) for r in rows] for rows in pool], "queries": queries}


def check_classify(queries, answers, reverse_answers):
    """Every answer matches the rule or oracle where the query carries an
    expected answer, is symmetric, and a yes comes with a lattice shift."""
    problems = []
    for q, a, r in zip(queries, answers, reverse_answers):
        what = f"matrix {q['matrix']} {q['beta']} vs {q['beta2']}"
        if q["expected"] is not None and a != q["expected"]:
            problems.append(f"{what}: answered {a}, {q['rule']} says {q['expected']}")
        if a != r:
            problems.append(f"{what}: answer is not symmetric")
        if a and not q["shift_in_lattice"]:
            problems.append(f"{what}: isomorphic without a lattice shift")
    if len(answers) != len(queries):
        problems.append("missing answers")
    return problems


# ---------------------------------------------------------------------------
# witness: the CLI builds contiguity operators for isomorphic pairs

WITNESS_MATRICES = (
    ("demo", DEMO, list(combinations(range(4), 2))),
    ("normal3", NORMAL3, list(combinations(range(4), 2))),
    ("wide5", WIDE5, [(0, 1), (2, 3)]),
    ("curve0134", ((1, 1, 1, 1), (0, 1, 3, 4)), []),
    ("curve0235", ((1, 1, 1, 1), (0, 2, 3, 5)), []),
)


def _nonresonant(rng, cone):
    """A parameter with every facet value non-integral, so every lattice
    shift of it gives an isomorphic system."""
    while True:
        beta = tuple(Fraction(rng.randint(-6, 6), rng.choice((2, 3))) for _ in range(cone.d))
        if all(v.denominator != 1 for v in cone.facet_values(beta)):
            return beta


def witness_inputs(rng):
    ops = []
    for name, rows, pairs in WITNESS_MATRICES:
        cone = oracle.Cone(rows)
        cols = cone.cols
        shifts = [(j,) for j in range(len(cols))] + pairs
        for js in shifts:
            chi = tuple(sum(cols[j][i] for j in js) for i in range(cone.d))
            beta = _nonresonant(rng, cone)
            beta2 = tuple(b + c for b, c in zip(beta, chi))
            ops.append({
                "matrix": name,
                "rows": [list(r) for r in rows],
                "chi": list(chi),
                "beta": [_frac(x) for x in beta],
                "beta2": [_frac(x) for x in beta2],
            })
    rng.shuffle(ops)
    return {"ops": ops}


_EXPONENT = re.compile(r"at exponent \(([^)]*)\)")


def _terms(element):
    return [((tuple(t["x"]), tuple(t["d"])), Fraction(t["c"])) for t in element]


def _bpoly_value(poly, point):
    out = Fraction(1)
    for factor in poly["factors"]:
        out *= oracle.dot(_parse_vec(factor["f"]), point) - Fraction(factor["c"])
    return out


def check_witness_op(op, doc):
    """Returns (problems, informative): informative when the composition
    window of the series check holds a nonzero term."""
    if "result" not in doc:
        return [f"{op['matrix']} chi={op['chi']}: error {doc}"], False
    rows = op["rows"]
    cols = oracle.columns(rows)
    res = doc["result"]
    chi = tuple(op["chi"])
    beta = _parse_vec(op["beta"])
    beta2 = _parse_vec(op["beta2"])
    what = f"{op['matrix']} chi={list(chi)}"
    problems = []
    if tuple(res["chi"]) != chi:
        problems.append(f"{what}: witness chi is {res['chi']}")
    ops = {}
    for key, sign in (("op_plus", 1), ("op_minus", -1)):
        terms = _terms(res[key]["element"])
        ops[key] = terms
        if not terms:
            problems.append(f"{what}: {key} is zero")
        for (alpha, m), _c in terms:
            weight = tuple(
                sum((a - b) * col[i] for a, b, col in zip(alpha, m, cols))
                for i in range(len(rows))
            )
            if weight != tuple(sign * x for x in chi):
                problems.append(f"{what}: {key} term x^{alpha} d^{m} has weight {weight}")
                break
    scalar = _bpoly_value(res["p_plus"], beta2) * _bpoly_value(res["p_minus"], beta)
    if scalar == 0 or scalar != Fraction(res["scalar"]):
        problems.append(f"{what}: scalar {res['scalar']} but the factors give {scalar}")
    informative = False
    found = [_EXPONENT.search(line) for line in doc.get("diagnostics", [])]
    found = [f for f in found if f]
    if found and not problems:
        v = tuple(Fraction(x.strip()) for x in found[0].group(1).split(","))
        order = doc["input_echo"]["order"]
        series = oracle.canonical_series(rows, v, order)
        window = oracle.composition_window(
            series, v, order, ops["op_plus"], ops["op_minus"])
        for w, (image, phi) in window.items():
            if image != scalar * phi:
                problems.append(f"{what}: (op_minus op_plus) phi differs from "
                                f"scalar * phi at x^{w}")
                break
            informative = informative or phi != 0
    return problems, informative


# ---------------------------------------------------------------------------
# running inside a worker


class Census:
    def __init__(self, pkg, inputs):
        self.pkg = pkg
        IntMatrix = pkg.lattice.IntMatrix
        self.matrices = [IntMatrix.from_rows(m["rows"]) for m in inputs["matrices"]]
        self.ops = inputs["ops"]
        # matrix-level precomputation: the census matrices are known up front
        for A in self.matrices:
            pkg.cone.face_lattice(A)
            pkg.lattice.column_lattice(A)

    def operations(self):
        enumerate_classes = self.pkg.classify.enumerate_classes
        for op in self.ops:
            A = self.matrices[op["matrix"]]
            box = tuple(tuple(b) for b in op["box"])
            yield (lambda A=A, box=box: enumerate_classes(A, box)), op

    def check(self, op, result):
        classes = [c.members for c in result.classes]
        return check_census_op(op["box"], classes, op["labels"]), {}


class Classify:
    def __init__(self, pkg, inputs):
        self.pkg = pkg
        self.rows = inputs["matrices"]
        self.queries = inputs["queries"]
        self.answers = []

    def operations(self):
        IntMatrix = self.pkg.lattice.IntMatrix
        isomorphic = self.pkg.classify.isomorphic
        for q in self.queries:
            rows = self.rows[q["matrix"]]
            beta, beta2 = _parse_vec(q["beta"]), _parse_vec(q["beta2"])
            # the matrix arrives with each query, as it would from a client
            yield (lambda rows=rows, beta=beta, beta2=beta2:
                   isomorphic(IntMatrix.from_rows(rows), beta, beta2)), q

    def check(self, op, result):
        self.answers.append(result)
        return [], {}

    def final_check(self):
        IntMatrix = self.pkg.lattice.IntMatrix
        isomorphic = self.pkg.classify.isomorphic
        reverse = [
            isomorphic(IntMatrix.from_rows(self.rows[q["matrix"]]),
                       _parse_vec(q["beta2"]), _parse_vec(q["beta"]))
            for q in self.queries[:len(self.answers)]
        ]
        return check_classify(self.queries, self.answers, reverse)


class Witness:
    def __init__(self, pkg, inputs):
        self.pkg = pkg
        self.ops = inputs["ops"]
        # matrix-level precomputation: Groebner bases for every lowest
        # variable and the Graver basis of each witness matrix
        IntMatrix = pkg.lattice.IntMatrix
        for _name, rows, _pairs in WITNESS_MATRICES:
            A = IntMatrix.from_rows(rows)
            ideal = pkg.toric.toric_ideal(A)
            for i in range(A.n):
                ideal.groebner(i)
            pkg.toric.graver_basis(A)

    def operations(self):
        cli = self.pkg.cli
        for op in self.ops:
            argv = [
                "witness",
                "-A", json.dumps({"A": op["rows"]}),
                "-b", ",".join(op["beta"]),
                "-b2", ",".join(op["beta2"]),
            ]

            def call(argv=argv):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                return code, out.getvalue()

            yield call, op

    def check(self, op, result):
        code, text = result
        doc = json.loads(text)
        if code != 0:
            return [f"{op['matrix']} chi={op['chi']}: exit {code} {doc}"], {}
        problems, _informative = check_witness_op(op, doc)
        return problems, {
            "output_bytes": len(text.encode()),
            "series_checked": int(bool(doc["result"]["series_checked"])),
        }


INPUTS = {"census": census_inputs, "classify": classify_inputs, "witness": witness_inputs}
RUNNERS = {"census": Census, "classify": Classify, "witness": Witness}


def make_inputs(workload, seed, round_index):
    """The operation list of one round; a run's rounds draw fresh lists."""
    return INPUTS[workload](random.Random(f"{workload}:{seed}:{round_index}"))
