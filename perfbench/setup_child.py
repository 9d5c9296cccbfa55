"""Time one set-up of a workload in a fresh interpreter.

Usage: python3 perfbench/setup_child.py WORKLOAD SEED

Prints the seconds spent importing hitstat (with its CLI) plus the
seconds spent in the program's constructors for the workload's models
(the benchmark's own input generation in between is not counted), and
the same time rescaled by the ``py`` gauge read in this interpreter just
before the imports and just after the constructors.
"""
import sys
import time

from gauge import GAUGE_REFERENCE_S, py_seconds

g0 = py_seconds()
t0 = time.perf_counter()
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import hitstat  # noqa: E402,F401
import hitstat.cli  # noqa: E402,F401

t1 = time.perf_counter()
import workloads  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), None)
workload.inputs()
t2 = time.perf_counter()
workload.construct()
t3 = time.perf_counter()
g1 = py_seconds()
raw = (t1 - t0) + (t3 - t2)
print(repr(raw), repr(raw * GAUGE_REFERENCE_S["py"] / ((g0 + g1) / 2)))
