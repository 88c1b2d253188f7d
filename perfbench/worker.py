"""One round of a workload in a fresh process.

Reads {"workload", "inputs", "trace", "spans"} as JSON on stdin, imports the
package from the checkout's ``src``, runs every operation once in order,
checks each output outside the timed region, and prints one JSON object.
Times are scaled to the reference speed of ``probe``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# operation time between two speed probes
PROBE_EVERY_S = 0.25


def _import_package():
    sys.path.insert(0, SRC)
    import ahyper.classify
    import ahyper.cli
    import ahyper.series

    where = os.path.dirname(os.path.abspath(ahyper.classify.__file__))
    if where != os.path.join(SRC, "ahyper"):
        raise SystemExit(f"package imported from {where}, not from {SRC}")
    return ahyper


def main():
    import probe
    import tracing
    import workloads

    probes = [probe.measure()]
    start = perf_counter()
    spec = json.load(sys.stdin)
    pkg = _import_package()
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracer.install(pkg)
    runner_cls = workloads.RUNNERS[spec["workload"]]
    if tracer:
        runner = tracer.run_op("setup", lambda: runner_cls(pkg, spec["inputs"]))
    else:
        runner = runner_cls(pkg, spec["inputs"])
    setup_s = perf_counter() - start
    probes.append(probe.measure())
    setup_s *= probe.PROBE_REF_S / ((probes[0] + probes[1]) / 2)

    raw = []  # operation times as measured
    latencies = []  # the same, scaled segment by segment
    failed = 0
    problems = []
    extra = {}

    def close_segment():
        probes.append(probe.measure())
        factor = probe.PROBE_REF_S / ((probes[-2] + probes[-1]) / 2)
        latencies.extend(t * factor for t in raw[len(latencies):])

    for index, (fn, op) in enumerate(runner.operations()):
        start = perf_counter()
        try:
            result = tracer.run_op(index, fn) if tracer else fn()
        except Exception as err:  # a failed operation is counted, not fatal
            raw.append(perf_counter() - start)
            failed += 1
            problems.append(f"operation {index} raised {type(err).__name__}: {err}")
            continue
        raw.append(perf_counter() - start)
        found, counts = runner.check(op, result)
        problems.extend(found)
        for key, value in counts.items():
            extra[key] = extra.get(key, 0) + value
        if sum(raw[len(latencies):]) >= PROBE_EVERY_S:
            close_segment()
    close_segment()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    per_layer = {}
    if tracer:
        factor = probe.PROBE_REF_S / (sum(probes) / len(probes))
        per_layer = {
            k: v * factor if k.endswith(".self_ms") else v
            for k, v in tracer.per_layer(pkg).items()
        }
    if hasattr(runner, "final_check"):
        problems.extend(runner.final_check())
    if tracer and spec.get("spans"):
        tracer.write(spec["spans"])
    print(json.dumps({
        "setup_s": setup_s,
        "latencies": latencies,
        "raw_loop_s": sum(raw),
        "probes": probes,
        "failed": failed,
        "problems": problems[:20],
        "problem_count": len(problems),
        "peak_rss_mb": rss_mb,
        "counts": extra,
        "per_layer": per_layer,
    }))


if __name__ == "__main__":
    main()
