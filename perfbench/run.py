"""hitstat benchmark: one workload per process, end to end or traced.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  With ``--trace 0`` the last line of
standard output is a JSON object holding the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run.  A record
of the run (machine, versions, figures, checks) is written under
``perfbench/out/``.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gauge import Gauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
MIN_ROUNDS = 3


def import_program():
    """Import hitstat from this checkout's ``src``, or exit without a result."""
    if not (SRC / "hitstat" / "__init__.py").is_file():
        sys.exit(f"no hitstat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hitstat
    if Path(hitstat.__file__).resolve().parent != (SRC / "hitstat").resolve():
        sys.exit(f"imported hitstat from {hitstat.__file__}, not from {SRC}")


def steal_ticks() -> int | None:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def blas_info() -> dict:
    import ctypes

    import numpy as np

    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    info["library"] = Path(lib).name
                    return info
    except OSError:
        pass
    return info


def machine_record() -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
    }


def setup_seconds(workload: str, seed: int) -> list[tuple[float, float]]:
    """(raw, rescaled) set-up times of ``SETUP_REPEATS`` fresh interpreters.

    Each interpreter rescales its own time by the ``py`` gauge it reads
    around the set-up; a gauge read in this process, before or after the
    child, followed the drift worse than no rescaling at all.
    """
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        raw, scaled = proc.stdout.strip().splitlines()[-1].split()
        out.append((float(raw), float(scaled)))
    return out


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def measure(workload, seconds: float, tracer):
    """A warm-up round, then rounds until ``seconds`` pass.

    With a tracer, rounds alternate untraced and traced so drift hits both;
    the patches are installed for each traced round only, so untraced rounds
    run the program as it is.
    """
    first = workload.round()
    problems = []
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        untraced = [r for r in rounds if not r.traced]
        traced = [r for r in rounds if r.traced]
        enough = len(untraced) >= MIN_ROUNDS and (tracer is None or len(traced) >= MIN_ROUNDS)
        if enough and time.perf_counter() >= deadline:
            break
        if tracer is not None and len(rounds) % 2 == 1:
            tracer.install()
            try:
                r = workload.round()
            finally:
                tracer.close()
            r.traced = True
        else:
            r = workload.round()
        problems += workload.same(first, r)
        rounds.append(r)
    return first, rounds, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")

    steal_before = steal_ticks()
    gauge = Gauge(getattr(workloads.WORKLOADS[args.workload], "GAUGE", ("py",)))
    workdir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    workload.gauge = gauge
    workload.inputs()
    workload.materialize()

    tracer = tracing.Tracer() if args.trace else None
    first, rounds, problems = measure(workload, args.seconds, tracer)
    # read before the checks, whose own arrays are not the program's footprint,
    # and before the set-up interpreters, which are children too
    peak = peak_rss_mb(args.workload == "cli-sharded")
    problems = workload.check(first) + problems
    setups = [] if args.trace else setup_seconds(args.workload, args.seed)  # only --trace 0 reports it

    untraced = [r for r in rounds if not r.traced]
    figures = workload.figures(untraced)
    raw_figures = workload.figures([dataclasses.replace(r, factors={}) for r in untraced])
    every = [first] + rounds
    attempted = sum(r.attempted for r in every)
    failed = sum(len(r.failed) for r in every)
    known = getattr(workload, "KNOWN_FAULTS", {})

    if args.trace:
        traced = [r for r in rounds if r.traced]
        metrics = tracing.layer_metrics(tracer.spans, len(traced))
        if "workers1_kinds_s" in raw_figures:  # both raw: the workers-1 run is not gauged
            metrics["cli.shard_efficiency"] = (raw_figures["workers1_kinds_s"]
                                               / (2 * raw_figures["sharded_kinds_s"]))
        else:
            metrics["cli.shard_efficiency"] = 0.0
        unit_off = statistics.median(r.unit() for r in untraced)
        unit_on = statistics.median(r.unit() for r in traced)
        metrics["trace.overhead_pct"] = 100.0 * (unit_on - unit_off) / unit_off
        values = {name: {"value": float(metrics[name]), "unit": unit}
                  for name, unit in tracing.PER_LAYER.items()}
        tracer.write(workdir / "spans.json")
    else:
        values = {
            "setup_s": {"value": statistics.median(scaled for _, scaled in setups), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
            "unit_s": {"value": float(figures["unit_s"]), "unit": "s"},
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(),
        "steal_ticks": {"before": steal_before, "after": steal_ticks()},
        "setup_s": setups,
        "gauge_s": gauge.times,
        "rounds": len(rounds),
        "round_wall_s": [r.wall for r in rounds],
        "round_factors": [r.factors for r in rounds],
        "attempted": attempted,
        "failed": failed,
        "failed_operations": {name: known.get(name, "unexpected") for name in sorted(set(first.failed))},
        "problems": problems,
        "figures": figures,
        "raw_figures": raw_figures,
        "metrics": values,
    }
    with open(workdir / "record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)

    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
