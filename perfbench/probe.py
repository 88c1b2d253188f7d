"""A fixed piece of the benchmark's own arithmetic, timed to track the
host's speed.

The host's speed drifts by up to a fifth over minutes for identical code.
Workers time this probe between operations, in their own process so that
it runs where the operations ran, with the garbage collector paused so
that the package's heap does not slow it.  Each operation's time is scaled
by PROBE_REF_S over the mean of the probes on either side of it: figures
read as at the speed where the probe takes PROBE_REF_S.
"""

import gc
import statistics
from time import perf_counter

import oracle
from workloads import DEMO

PROBE_REF_S = 0.0125
PROBE_RUNS = 3
PARAMETERS = ((0, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1), (2, 2, 2), (3, 1, 2))


def measure() -> float:
    """Median time of a fresh residue-oracle computation on the demo matrix."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(PROBE_RUNS):
            start = perf_counter()
            cone = oracle.Cone(DEMO)
            for beta in PARAMETERS:
                for face in cone.faces:
                    cone.residue_set(face, beta)
            times.append(perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times)
