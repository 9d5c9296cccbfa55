"""A machine-speed gauge, independent of hitstat, timed beside the work.

The host's speed drifts by tens of percent within minutes (other tenants
share it), and the drift moves these computations and the work together.
``py`` is an interpreter loop, ``mem`` copies and sorts arrays well beyond
a core's private cache.  The ``mem`` arrays (about 40 MB) are made for
each reading and freed after it, so they are not resident while the work
runs, and only ``stream-bytes`` takes ``mem``: its work peaks near 400 MB,
above any reading's footprint (on ``exact-chains``, which peaks near
115 MB, a ``mem`` reading raised the peak to 156 MB).  A time ``t`` measured between gauge readings ``g0`` and ``g1`` is
reported as ``t * GAUGE_REFERENCE_S[c] / mean(g0[c], g1[c])``, with ``c``
the component that matches the work.
"""
from __future__ import annotations

import time

# Gauge times on a quiet run of the 2-core machine the benchmark was written
# on; reported times are wall times rescaled to that machine speed.
GAUGE_REFERENCE_S = {"py": 0.010, "mem": 0.018}


def py_seconds() -> float:
    """The ``py`` component: an interpreter loop over a small table.

    Needs no import, so a fresh interpreter can read it before it imports
    anything else (``setup_child.py``).
    """
    table = [[(i * 7 + j) % 5 for j in range(4)] for i in range(5)]
    state = 0
    t0 = time.perf_counter()
    for i in range(300_000):
        state = table[state][i & 3]
    return time.perf_counter() - t0


class Gauge:
    """Times the requested gauge components on each call and keeps every reading."""

    def __init__(self, components=("py",)):
        self.components = tuple(components)
        self.times = []

    def __call__(self) -> dict:
        g = {"py": py_seconds()}
        if "mem" in self.components:
            import numpy as np  # not at the top: setup_child.py reads py_seconds before numpy loads

            big = np.arange(2_000_000, dtype=float)
            buf = np.empty_like(big)
            keys = (np.arange(1_000_000, dtype=np.uint64) * np.uint64(2654435761)) % np.uint64(2**40)
            t1 = time.perf_counter()
            np.copyto(buf, big)
            np.copyto(big, buf)
            np.sort(keys)
            g["mem"] = time.perf_counter() - t1
            del big, buf, keys
        self.times.append(g)
        return g


def scale_between(before: dict, after: dict) -> dict:
    return {c: GAUGE_REFERENCE_S[c] / ((before[c] + after[c]) / 2) for c in before}
