"""Each output check of the benchmark passes on the program's real answer
and fails on a tampered copy of it.

Run from the checkout root:  python3 -m pytest perfbench/test_checks.py
"""

import contextlib
import copy
import io
import json
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ahyper import classify, cli  # noqa: E402
from ahyper.lattice import IntMatrix  # noqa: E402


def test_oracle_reproduces_the_papers_examples():
    curve = oracle.Curve(oracle.Curve.shape(workloads.CURVE5))
    holes = [(c, m) for c in range(6) for m in range(60) if curve.is_hole((c, m))]
    assert holes == [(2, 10), (2, 12), (3, 19)]
    assert sorted(curve.s1) == [1, 3, 5] and sorted(curve.s2) == [1, 3]
    cone = oracle.Cone(workloads.NORMAL3)
    assert sorted(f for f, _ in cone.facets) == [(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)]
    assert cone.is_normal()
    assert not oracle.Cone(workloads.DEMO).is_normal()


def _census_case(rows, box):
    labeller = workloads._Labeller(rows)
    points = [(x, y, z) for x in range(box[0][0], box[0][1] + 1)
              for y in range(box[1][0], box[1][1] + 1)
              for z in range(box[2][0], box[2][1] + 1)]
    labels = [[list(p), labeller.label(p)] for p in points]
    result = classify.enumerate_classes(IntMatrix(rows), box)
    return [list(c.members) for c in result.classes], labels


def test_census_check_rejects_a_moved_or_missing_point():
    for rows in (workloads.NORMAL3, workloads.DEMO):
        box = ((-1, 1), (-1, 1), (0, 1))
        classes, labels = _census_case(rows, box)
        assert workloads.check_census_op(box, classes, labels) == []
        moved = copy.deepcopy(classes)
        moved[1].append(moved[0].pop())
        assert workloads.check_census_op(box, moved, labels)
        dropped = copy.deepcopy(classes)
        dropped[-1].pop()
        assert workloads.check_census_op(box, dropped, labels)


def test_classify_check_rejects_a_flipped_or_asymmetric_answer():
    inputs = workloads.classify_inputs(random.Random(3))
    queries = inputs["queries"][:80]
    answers = []
    for q in queries:
        A = IntMatrix.from_rows(inputs["matrices"][q["matrix"]])
        answers.append(classify.isomorphic(
            A, workloads._parse_vec(q["beta"]), workloads._parse_vec(q["beta2"])))
    assert workloads.check_classify(queries, answers, answers) == []
    flipped = answers[:]
    known = next(i for i, q in enumerate(queries) if q["expected"] is not None)
    flipped[known] = not flipped[known]
    assert workloads.check_classify(queries, flipped, flipped)
    reverse = answers[:]
    reverse[5] = not reverse[5]
    assert workloads.check_classify(queries, answers, reverse)
    off_lattice = next(i for i, q in enumerate(queries) if not q["shift_in_lattice"])
    lying = answers[:]
    lying[off_lattice] = True
    problems = workloads.check_classify(queries, lying, lying)
    assert any("without a lattice shift" in p for p in problems)


def _witness_case():
    op = {
        "matrix": "demo",
        "rows": [list(r) for r in workloads.DEMO],
        "chi": [1, 0, 1],
        "beta": ["1/2", "1/3", "-2/3"],
        "beta2": ["3/2", "1/3", "1/3"],
    }
    argv = ["witness", "-A", json.dumps({"A": op["rows"]}),
            "-b", ",".join(op["beta"]), "-b2", ",".join(op["beta2"])]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return op, json.loads(out.getvalue())


def test_witness_check_rejects_a_tampered_operator_or_scalar():
    op, doc = _witness_case()
    problems, informative = workloads.check_witness_op(op, doc)
    assert problems == [] and informative

    bad_weight = copy.deepcopy(doc)
    bad_weight["result"]["op_plus"]["element"][0]["x"][0] += 1
    assert workloads.check_witness_op(op, bad_weight)[0]

    bad_scalar = copy.deepcopy(doc)
    bad_scalar["result"]["scalar"] = str(Fraction(doc["result"]["scalar"]) * 2)
    assert workloads.check_witness_op(op, bad_scalar)[0]

    # same weights, wrong coefficient: only the series composition sees it
    bad_coef = copy.deepcopy(doc)
    term = bad_coef["result"]["op_minus"]["element"][0]
    term["c"] = str(Fraction(term["c"]) + 1)
    problems, _ = workloads.check_witness_op(op, bad_coef)
    assert any("scalar * phi" in p for p in problems)


def test_benchmark_json_lists_what_the_run_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == sorted(workloads.RUNNERS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
