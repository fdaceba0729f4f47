#!/usr/bin/env python3
"""Paired, noise-aware comparison of two commits' benchmark results.

Give result files alternately for the parent and the change, in the
order they ran, alternating which side ran first::

    python benchmarks/e2e/compare.py P1.json C1.json P2.json C2.json ...

A result file is what ``run.py --out FILE`` writes: one ``--trace 0``
workload run (with ``--workload``) or the full report's per-workload
medians.  Every metric of :data:`METRICS` that has a bound gets one
verdict on each workload that reports it, using that metric's better
direction and bound:

``improved``
    The change wins at least nine tenths of at least ten pairs (ties
    count for neither side) and the medians differ, in the better
    direction, by more than the parent's interquartile range.
``unresolved``
    The parent's own spread (IQR over median) is wider than the bound,
    unless every change run reads better than every parent run.
``regressed``
    The change's median is worse than the parent's by more than the
    bound; or the change failed an output check or more operations.
``no worse``
    Everything else.

The exit code is 1 when any verdict is ``regressed``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Every end-to-end metric the benchmark reports, as ``(unit, better,
#: bound)``.  The bounds are the regression bounds this benchmark was
#: specified with: 10% for times and rates, 5% for peak RSS, 2% for store
#: size.  Metrics without a bound get no verdict: failures are judged as
#: counts (any increase regresses), and the server/transport split of the
#: service's latency is a diagnosis, not a goal.  ``setup_s`` and
#: ``wall_s`` are in reference-speed seconds, ``*_raw_s`` as measured
#: (run.py's ``Speed``).  ``BENCHMARK.json``'s wider timing bounds are
#: explained in README.md.
METRICS: Dict[str, Tuple[str, str, Optional[float]]] = {
    "setup_s": ("s", "lower", 0.10),
    "wall_s": ("s", "lower", 0.10),
    "setup_raw_s": ("s", "lower", 0.10),
    "wall_raw_s": ("s", "lower", 0.10),
    "peak_rss_mb": ("MiB", "lower", 0.05),
    "failed_frac": ("ratio", "lower", None),
    "store_bytes": ("bytes", "lower", 0.02),
    "requests_per_s": ("1/s", "higher", 0.10),
    "latency_p50_ms": ("ms", "lower", 0.10),
    "latency_p99_ms": ("ms", "lower", 0.10),
    "server_ms_p50": ("ms", "lower", None),
    "transport_ms_p50": ("ms", "lower", None),
}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def load(path: Path) -> Dict[str, Dict]:
    """``workload -> {"metrics": {name: value}, "correct", "failed"}``."""
    data = json.loads(path.read_text())
    if "workloads" in data:  # the full report
        return {
            name: {
                "metrics": {m: row["median"] for m, row in entry["end_to_end"].items()},
                "correct": not entry["problems"],
                "failed": entry["end_to_end"]["failed_frac"]["median"],
            }
            for name, entry in data["workloads"].items()
        }
    if data.get("trace"):
        raise ValueError(f"{path} holds per-layer metrics (--trace 1); "
                         "compare --trace 0 results")
    return {
        data["workload"]: {
            "metrics": data["end_to_end"],
            "correct": data["correct"],
            "failed": data["end_to_end"]["failed_frac"],
        }
    }


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> Dict:
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    q1, _, q3 = quartiles(parent)
    iqr = q3 - q1
    worse = sign * (c_med - p_med) / p_med if p_med else 0.0
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if len(parent) >= 10 and wins >= 0.9 * len(parent) and worse < 0 and abs(c_med - p_med) > iqr:
        result = "improved"
    elif p_med and iqr / p_med > bound and not all_better:
        result = "unresolved"
    elif worse > bound:
        result = "regressed"
    else:
        result = "no worse"
    return {"pairs": len(parent), "parent": p_med, "change": c_med, "parent_iqr": iqr,
            "worse_by": worse, "wins": wins, "verdict": result}


def compare(files: List[Path]) -> List[Dict]:
    if len(files) % 2:
        raise ValueError("give parent and change result files in pairs")
    loaded = [load(path) for path in files]
    rows = []
    workloads = sorted({name for result in loaded for name in result})
    for name in workloads:
        pairs = [(p[name], c[name]) for p, c in zip(loaded[0::2], loaded[1::2])
                 if name in p and name in c]
        if not pairs:
            continue
        for metric, (unit, better, bound) in METRICS.items():
            if bound is None or not all(metric in side["metrics"]
                                        for pair in pairs for side in pair):
                continue
            parent = [p["metrics"][metric] for p, _ in pairs]
            change = [c["metrics"][metric] for _, c in pairs]
            row = verdict(parent, change, better, bound)
            row.update(workload=name, metric=metric, unit=unit)
            rows.append(row)
        bad = [why for why, hit in (
            ("change failed an output check", not all(c["correct"] for _, c in pairs)),
            ("change failed more operations",
             sum(c["failed"] for _, c in pairs) > sum(p["failed"] for p, _ in pairs)),
        ) if hit]
        rows.append({"workload": name, "metric": "outputs", "unit": "", "pairs": len(pairs),
                     "verdict": "regressed" if bad else "no worse", "why": "; ".join(bad)})
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", type=Path,
                        help="result files: parent, change, parent, change, ...")
    args = parser.parse_args(argv)
    try:
        rows = compare(args.files)
    except ValueError as exc:
        parser.error(str(exc))
    for row in rows:
        if row["metric"] == "outputs":
            print(f"{row['workload']:14s} {'outputs':15s} {row['verdict']}"
                  f"{'  (' + row['why'] + ')' if row['why'] else ''}")
            continue
        print(
            f"{row['workload']:14s} {row['metric']:15s} n={row['pairs']:<3d} "
            f"parent {row['parent']:.4g} (IQR {row['parent_iqr']:.3g}) "
            f"change {row['change']:.4g} {row['unit']:5s} "
            f"worse by {row['worse_by']:+.1%}, wins {row['wins']}/{row['pairs']}: "
            f"{row['verdict']}"
        )
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
