"""Benchmark entry point: python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1, run from the root of a checkout.

Each round runs one list of operations, made from the seed and the round
number, from first to last in a fresh worker process (one caller, one
thread, closed loop) and checks every output.  Rounds repeat until the
operations have been timed for S seconds in total and, untraced, at least
MIN_OPS of them ran.  With --trace 1 the rounds alternate untraced and
traced runs of round 0's list.  The last line of stdout is one JSON object with
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import probe
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WALL_LIMIT_S = 120.0
# enough operations for the 90th percentile to have ten samples above it
MIN_OPS = 100
ROUND_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class RoundFailed(Exception):
    pass


def run_round(workload, inputs, trace, spans=None):
    spec = json.dumps({"workload": workload, "inputs": inputs,
                       "trace": trace, "spans": spans})
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=spec, capture_output=True, text=True, cwd=ROOT, env=env,
        timeout=ROUND_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RoundFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(rounds):
    latencies = [t for r in rounds for t in r["latencies"]]
    values = {
        # median over rounds: one round's rare expensive inputs move it little
        "ops_per_s": statistics.median(len(r["latencies"]) / sum(r["latencies"])
                                       for r in rounds),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    if len(latencies) >= 100:
        values["latency_p90_ms"] = statistics.quantiles(latencies, n=10)[8] * 1e3
    return values


# per-layer metrics: (name, unit, better)
PER_LAYER = tuple(
    (name, _unit, better)
    for names, _unit, better in (
        (("semigroup.e_tau.calls", "semigroup.in_na_mod_face.calls",
          "classify.e_profile.calls", "lattice.integer_solve.calls",
          "lattice.affine_residue.calls", "cone.matrices",
          "toric.min_solutions.calls", "toric.min_solutions.repeat_calls",
          "toric.b_ideal.components", "weyl.weyl_mul.calls",
          "weyl.operator_terms"), "count", "lower"),
        (("semigroup.e_tau.self_ms", "semigroup.in_na_mod_face.self_ms",
          "classify.e_profile.self_ms", "lattice.integer_solve.self_ms",
          "lattice.affine_residue.self_ms", "lattice.quotient_representatives.self_ms",
          "cone.facets.self_ms", "cone.face_lattice.self_ms",
          "semigroup.is_normal.self_ms", "toric.toric_ideal.self_ms",
          "toric.groebner.self_ms", "toric.graver_basis.self_ms",
          "toric.min_solutions.self_ms", "toric.b_ideal.self_ms",
          "classify.iso_witness.self_ms", "weyl.contiguity_operator.self_ms",
          "weyl.weyl_mul.self_ms", "weyl.verify.self_ms",
          "series.exponent_search.self_ms", "series.phi_v.self_ms",
          "series.apply_operator.self_ms", "series.check_solution.self_ms",
          "cli.self_ms"), "ms", "lower"),
        (("semigroup.mod_face_cache.hit_ratio", "classify.residue_cache.hit_ratio",
          "series.informative_ratio"), "ratio", "higher"),
        (("cli.output_bytes",), "bytes", "lower"),
        (("trace.overhead_pct",), "%", "lower"),
        (("bench.probe_ms",), "ms", "lower"),
    )
    for name in names
)


def per_layer(plain, traced):
    """Medians over the traced rounds; counts repeat exactly between them."""
    measured = {
        n: statistics.median(r["per_layer"][n] for r in traced)
        for n in traced[0]["per_layer"]
    }
    ops = len(traced[0]["latencies"])
    counts = traced[0]["counts"]
    measured["cli.output_bytes"] = counts.get("output_bytes", 0)
    measured["series.informative_ratio"] = counts.get("series_checked", 0) / ops
    loop_plain = statistics.median(sum(r["latencies"]) for r in plain)
    loop_traced = statistics.median(sum(r["latencies"]) for r in traced)
    measured["trace.overhead_pct"] = (loop_traced / loop_plain - 1) * 100
    measured["bench.probe_ms"] = statistics.median(
        p for r in plain + traced for p in r["probes"]) * 1e3
    return {name: measured[name] for name, _unit, _better in PER_LAYER}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "ahyper")):
        print(f"no package source under {ROOT}/src/ahyper", file=sys.stderr)
        return 2
    wall = perf_counter()
    spans = None
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl")
        inputs = workloads.make_inputs(args.workload, args.seed, 0)

    plain, traced = [], []
    timed = 0.0
    try:
        while not plain or (
            (timed < args.seconds
             or not args.trace and sum(len(r["latencies"]) for r in plain) < MIN_OPS)
            and perf_counter() - wall < WALL_LIMIT_S
        ):
            if args.trace:
                # traced and untraced rounds repeat one list, so that counts
                # repeat exactly and the overhead compares equal work
                plain.append(run_round(args.workload, inputs, False))
                traced.append(run_round(args.workload, inputs, True, spans))
                timed += traced[-1]["raw_loop_s"]
            else:
                inputs = workloads.make_inputs(args.workload, args.seed, len(plain))
                plain.append(run_round(args.workload, inputs, False))
            timed += plain[-1]["raw_loop_s"]
    except (RoundFailed, subprocess.TimeoutExpired) as err:
        print(f"round failed: {err}", file=sys.stderr)
        return 1
    probes = [p for r in plain + traced for p in r["probes"]]
    raw = sum(r["raw_loop_s"] for r in plain)
    print(f"speed probe median {statistics.median(probes) * 1e3:.2f} ms "
          f"(reference {probe.PROBE_REF_S * 1e3:.2f} ms); raw "
          f"operation time {raw:.2f} s", file=sys.stderr)

    rounds = plain + traced
    problems = [p for r in rounds for p in r["problems"]]
    for p in problems[:10]:
        print(f"check failed: {p}", file=sys.stderr)
    correct = not problems and all(r["problem_count"] == 0 for r in rounds)
    if args.trace:
        values = per_layer(plain, traced)
        units = {name: unit for name, unit, _better in PER_LAYER}
    else:
        values = end_to_end(plain)
        units = END_TO_END_UNITS
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(r["latencies"]) for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
