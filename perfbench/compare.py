"""Compare two sets of benchmark runs, per workload and metric.

Usage: python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds run records (``record.json``, as ``run.py`` writes
them under ``perfbench/out/``), searched recursively; traced runs are
skipped.  Every end-to-end metric is judged against its bound in
``BENCHMARK.json``; the workload figures in the records are judged
against the bound of ``unit_s``.  A metric whose spread (interquartile
range over median) exceeds its bound in either set is "unresolved",
unless every new run beats every base run.  This only reports: the exit
status is 0 whatever the verdicts.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """workload -> list of trace-0 records."""
    out = defaultdict(list)
    for path in sorted(directory.rglob("record.json")):
        rec = json.loads(path.read_text())
        if rec.get("trace") == 0:
            out[rec["workload"]].append(rec)
    return out


def series(records) -> dict:
    """name -> values over runs, for metrics and float figures."""
    out = defaultdict(list)
    for rec in records:
        for name, m in rec["metrics"].items():
            out[name].append(m["value"])
        for name, value in rec["figures"].items():
            if isinstance(value, float) and name not in rec["metrics"]:
                out[f"figure.{name}"].append(value)
    return out


def spread(values) -> float:
    if len(values) < 2:
        return float("inf")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def verdict(base, new, bound: float, higher_is_better: bool) -> tuple[str, float]:
    mb, mn = statistics.median(base), statistics.median(new)
    worse_by = (mb - mn) / mb if higher_is_better else (mn - mb) / mb
    beats_all = (min(new) > max(base)) if higher_is_better else (max(new) < min(base))
    if beats_all and worse_by < 0:
        return "better", worse_by
    if spread(base) > bound or spread(new) > bound:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "same", worse_by


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"] == "higher") for m in spec["end_to_end"]}
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    print(f"{'workload':<14} {'metric':<32} {'base':>12} {'new':>12} {'better':>8} "
          f"{'spread b/n':>13}  verdict")
    for workload in sorted(set(base) & set(new)):
        sb, sn = series(base[workload]), series(new[workload])
        for name in sb:
            if name not in sn:
                continue
            if name in bounds:
                bound, higher = bounds[name]
            else:
                bound, higher = bounds["unit_s"][0], name.endswith("_per_s")
            word, worse_by = verdict(sb[name], sn[name], bound, higher)
            print(f"{workload:<14} {name:<32} {statistics.median(sb[name]):>12.5g} "
                  f"{statistics.median(sn[name]):>12.5g} {-worse_by:>+8.2%} "
                  f"{spread(sb[name]):>6.1%}/{spread(sn[name]):<6.1%}  {word}")
        for label, recs in (("base", base[workload]), ("new", new[workload])):
            shares = sorted({r["failed"] / r["attempted"] for r in recs})
            print(f"{workload:<14} failed share ({label}): {', '.join(f'{s:.6f}' for s in shares)}")
    for workload in sorted(set(base) ^ set(new)):
        print(f"{workload:<14} only in {'base' if workload in base else 'new'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
