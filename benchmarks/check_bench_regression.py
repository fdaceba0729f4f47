#!/usr/bin/env python
"""Compare a fresh engine-benchmark run against the committed baseline.

CI runs ``bench_engine.py`` and feeds the fresh JSON here together with
the committed ``BENCH_engine.json``.  The check fails when, for any
workload,

* an exact count differs from the baseline: the serial pass's Table 3
  ``TestRecorder`` rows (``recorder_rows``), the cold pass's memory
  hits and misses (``cold_hits``, ``cold_misses``), or the digest of
  the verdict signatures (``verdict_digest``).  The paper judged its
  suite by counting test applications, not by timing them; a count
  changes only with a baseline refresh that CHANGES.md explains;
* the fresh run no longer reports byte-identical verdicts across its
  serial, cold and warm passes;
* the *warm* cached speedup regresses by more than the allowed fraction
  (default 25%) relative to the baseline;
* warm per-pair latency (p50 or p95), taken as a ratio to the same
  run's serial per-pair time (``serial_s / pairs``), exceeds the
  baseline's ratio by more than ``--latency-tolerance`` (default 1.0,
  i.e. 2x).  It is a coarse guard against structural regressions (an
  accidental O(n^2) in the per-pair path), not a tight bound.

Both timed figures are same-run ratios of per-routine minima over fresh
IR, so machine speed cancels out; other absolute times and the cold
ratio are reported but not gated on.

With ``--store FRESH_STORE_JSON`` the check also gates the store
benchmark (``bench_store.py`` vs the committed ``BENCH_store.json``):

* the counted store-cold pass must write exactly the baseline's work:
  records and bytes, checkpoints, and the flushes, lock acquisitions
  and fsyncs behind them (:data:`STORE_COUNTS`);
* the replay pass's store hit rate must not fall below the baseline
  rate (scaled by a tenth of ``--store-tolerance``) and must have
  served at least one verdict;
* the two-writer contention store must still scan clean.

Usage::

    python benchmarks/check_bench_regression.py fresh.json \
        [--baseline BENCH_engine.json] [--tolerance 0.25] \
        [--latency-tolerance 1.0] [--store fresh_store.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"{path} is not valid JSON: {exc}")


LATENCY_KEYS = ("pair_latency_warm_p50_us", "pair_latency_warm_p95_us")

#: Exact per-workload counts of the engine benchmark.
ENGINE_COUNTS = ("recorder_rows", "cold_hits", "cold_misses", "verdict_digest")

#: Exact counts of the store benchmark's store-cold pass.
STORE_COUNTS = (
    "records_written",
    "store_bytes",
    "checkpoints",
    "flushes",
    "lock_acquisitions",
    "fsyncs",
)


def latency_ratio(workload: dict, key: str):
    """Warm pair latency over the same run's serial per-pair time."""
    value = workload.get(key)
    serial_s, pairs = workload.get("serial_s"), workload.get("pairs")
    if not value or not serial_s or not pairs:
        return None
    return value / (serial_s * 1e6 / pairs)


def check_latencies(
    name: str, current: dict, base: dict, latency_tolerance: float, failures
) -> None:
    """Fresh warm pair latencies, as ratios to the serial per-pair time,
    must stay within tolerance of the baseline's ratios."""
    for key in LATENCY_KEYS:
        base_ratio = latency_ratio(base, key)
        ratio = latency_ratio(current, key)
        if base_ratio is None or ratio is None:
            continue
        ceiling = base_ratio * (1.0 + latency_tolerance)
        status = "OK" if ratio <= ceiling else "REGRESSION"
        print(
            f"{name}: {key} {current[key]:.2f}us is {ratio:.4f} of a serial "
            f"pair vs baseline {base_ratio:.4f} (ceiling {ceiling:.4f}) "
            f"... {status}"
        )
        if ratio > ceiling:
            failures.append(
                f"{name}: {key} ratio {ratio:.4f} exceeded {ceiling:.4f} "
                f"({latency_tolerance:.0%} over baseline {base_ratio:.4f})"
            )


def check_counts(
    name: str, current: dict, base: dict, keys, failures
) -> None:
    """Each named count must equal the baseline's exactly."""
    for key in keys:
        if key not in base:
            failures.append(f"{name}: baseline has no {key}; regenerate it")
            continue
        value = current.get(key)
        status = "OK" if value == base[key] else "CHANGED"
        shown = value if not isinstance(value, str) else value[:16]
        print(f"{name}: {key} {shown} ... {status}")
        if value != base[key]:
            failures.append(
                f"{name}: {key} is {value!r}, baseline {base[key]!r}"
            )


def check_store(
    fresh: dict, baseline: dict, store_tolerance: float, failures
) -> None:
    """Gate the store benchmark: exact store-cold counts and replay floor."""
    check_counts("store", fresh, baseline, STORE_COUNTS, failures)
    rate = fresh.get("replay_hit_rate")
    base_rate = baseline.get("replay_hit_rate") or 1.0
    if rate is None:
        failures.append("store: fresh results carry no replay_hit_rate")
    else:
        floor = base_rate * (1.0 - store_tolerance / 10.0)
        status = "OK" if rate >= floor else "REGRESSION"
        print(
            f"store: replay hit rate {rate:.4f} vs baseline {base_rate:.4f} "
            f"(floor {floor:.4f}) ... {status}"
        )
        if rate < floor:
            failures.append(
                f"store: replay hit rate {rate:.4f} fell below {floor:.4f}"
            )
    if not fresh.get("replay_store_hits"):
        failures.append("store: replay pass served no verdicts from the store")
    if fresh.get("contention_store_clean") is False:
        failures.append("store: contention store no longer scans clean")


def check(
    fresh: dict,
    baseline: dict,
    tolerance: float,
    latency_tolerance: float = 1.0,
    store_fresh: dict = None,
    store_baseline: dict = None,
    store_tolerance: float = 0.5,
) -> int:
    failures = []
    if store_fresh is not None:
        check_store(store_fresh, store_baseline or {}, store_tolerance, failures)
    for name, base in baseline.get("workloads", {}).items():
        current = fresh.get("workloads", {}).get(name)
        if current is None:
            failures.append(f"{name}: missing from fresh results")
            continue
        if not current.get("verdicts_identical"):
            failures.append(f"{name}: verdicts no longer identical")
        check_counts(name, current, base, ENGINE_COUNTS, failures)
        check_latencies(name, current, base, latency_tolerance, failures)
        base_warm = base.get("cached_warm_speedup")
        warm = current.get("cached_warm_speedup")
        if not base_warm or not warm:
            continue
        floor = base_warm * (1.0 - tolerance)
        status = "OK" if warm >= floor else "REGRESSION"
        print(
            f"{name}: warm speedup {warm:.2f}x vs baseline {base_warm:.2f}x "
            f"(floor {floor:.2f}x) ... {status}"
        )
        if warm < floor:
            failures.append(
                f"{name}: warm speedup {warm:.2f}x fell below "
                f"{floor:.2f}x ({tolerance:.0%} under baseline "
                f"{base_warm:.2f}x)"
            )
    if failures:
        print()
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("benchmark within tolerance")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "fresh", type=Path, nargs="?", default=None,
        help="freshly generated engine bench JSON (omit for store-only runs)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_engine.json",
        help="committed baseline JSON (default: repo BENCH_engine.json)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed fractional warm-speedup drop (default 0.25)",
    )
    parser.add_argument(
        "--latency-tolerance", type=float, default=1.0,
        help="allowed fractional rise of the warm pair-latency ratio "
             "(to the serial per-pair time) over baseline (default 1.0, "
             "i.e. up to 2x)",
    )
    parser.add_argument(
        "--store", type=Path, default=None, metavar="JSON",
        help="freshly generated store bench JSON; enables the store gate",
    )
    parser.add_argument(
        "--store-baseline",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_store.json",
        help="committed store baseline JSON (default: repo BENCH_store.json)",
    )
    parser.add_argument(
        "--store-tolerance", type=float, default=0.5,
        help="a tenth of it bounds the replay hit-rate drop (default 0.5)",
    )
    args = parser.parse_args(argv)
    if args.fresh is None and args.store is None:
        parser.error("need an engine bench JSON, --store JSON, or both")
    return check(
        load(args.fresh) if args.fresh else {},
        load(args.baseline) if args.fresh else {},
        args.tolerance,
        args.latency_tolerance,
        store_fresh=load(args.store) if args.store else None,
        store_baseline=load(args.store_baseline) if args.store else None,
        store_tolerance=args.store_tolerance,
    )


if __name__ == "__main__":
    sys.exit(main())
