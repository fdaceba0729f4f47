#!/usr/bin/env python
"""Persistent-store microbenchmark: write-through overhead and replay gain.

Three measurements over the bundled kernel corpus (every routine):

* **memory-only cold** — the PR 1 baseline: fresh engine, LRU cache,
  no store;
* **store cold** — the same pass with a write-through store attached:
  the delta is the price of persistence (pickling + buffered appends +
  an fsync'd checkpoint every ``CHECKPOINT_INTERVAL`` records);
* **store replay** — a fresh engine (cold memory tier) reopening the
  populated store: every verdict served from disk, no test runs — the
  resumed-run fast path.

A fourth, **contention**, section runs the store-cold workload in two
concurrent writer processes sharing one store directory: the store
lock is held per append batch, not per process, so neither process
excludes the other, and the interesting numbers are the wall-clock
cost of sharing and how many verdicts each writer served from the
other's freshly flushed records (cross-process hits).  A tail read
fetches only the bytes appended since the reader's last look.

Results land in ``BENCH_store.json`` and are **gated**: CI feeds a
fresh run to ``check_bench_regression.py --store`` which fails on a
write-through overhead rise beyond tolerance or a replay hit-rate drop
below the committed baseline (both are same-process ratios, so machine
speed cancels out).  The store still stays out of the engine gate
(``BENCH_engine.json``): persistence is opt-in (``--store``) and must
not move the warm-path numbers that gate watches.

Usage::

    python benchmarks/bench_store.py [--repeats R] [--out BENCH_store.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.corpus.loader import default_symbols, load_corpus  # noqa: E402
from repro.engine import DependenceEngine, VerdictStore  # noqa: E402
from repro.instrument import TestRecorder  # noqa: E402

#: One store-cold pass in a child process, printing its stats as JSON —
#: the contention section runs two of these against one shared store.
CHILD_PASS = """
import json, sys, time
sys.path.insert(0, sys.argv[2])
from repro.corpus.loader import default_symbols, load_corpus
from repro.engine import DependenceEngine, VerdictStore
from repro.instrument import TestRecorder
work = [
    routine.body
    for programs in load_corpus().values()
    for program in programs
    for routine in program.routines
]
start = time.perf_counter()
with VerdictStore(sys.argv[1]) as store:
    engine = DependenceEngine(symbols=default_symbols(), store=store)
    for nodes in work:
        engine.build_graph(nodes, recorder=TestRecorder())
    stats = engine.stats.as_dict()
    engine.close()
stats["elapsed_s"] = time.perf_counter() - start
print(json.dumps(stats))
"""


def kernel_workload():
    work = []
    for suite, programs in load_corpus().items():
        for program in programs:
            for routine in program.routines:
                work.append(routine.body)
    return work


def build_all(work, engine):
    for nodes in work:
        engine.build_graph(nodes, recorder=TestRecorder())


def timed(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def contention_pass(db, writers):
    """Run ``writers`` concurrent store-cold passes; returns per-writer
    stats dicts (the wall clock covers all of them together)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULTS", None)
    start = time.perf_counter()
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", CHILD_PASS, str(db), str(ROOT / "src")],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        for _ in range(writers)
    ]
    outs = [proc.communicate(timeout=600) for proc in procs]
    wall = time.perf_counter() - start
    stats = []
    for proc, (out, err) in zip(procs, outs):
        if proc.returncode != 0:
            raise SystemExit(
                f"contention writer exited {proc.returncode}:\n{err[-2000:]}"
            )
        stats.append(json.loads(out.splitlines()[-1]))
    return wall, stats


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--out", type=Path, default=ROOT / "BENCH_store.json"
    )
    args = parser.parse_args(argv)

    symbols = default_symbols()
    work = kernel_workload()
    print(f"workload: {len(work)} corpus routines", flush=True)

    def memory_cold():
        engine = DependenceEngine(symbols=symbols)
        build_all(work, engine)

    memory_s = timed(memory_cold, args.repeats)

    with tempfile.TemporaryDirectory() as tmp:
        db = Path(tmp) / "bench.db"

        def store_cold():
            if db.exists():
                shutil.rmtree(db)  # each repeat pays the full write-through cost
            with VerdictStore(db) as store:
                engine = DependenceEngine(symbols=symbols, store=store)
                build_all(work, engine)
                engine.close()

        store_cold_s = timed(store_cold, args.repeats)
        scan = VerdictStore.scan(db)
        size = scan.size
        with VerdictStore(db) as store:
            verdicts = len(store)

        replay_stats = {}

        def store_replay():
            with VerdictStore(db) as store:
                engine = DependenceEngine(symbols=symbols, store=store)
                build_all(work, engine)
                replay_stats.update(engine.stats.as_dict())
                engine.close()

        replay_s = timed(store_replay, args.repeats)

        # Contention: two concurrent writers, fresh shared store.
        contended_db = Path(tmp) / "contended.db"
        contention_wall, writer_stats = contention_pass(contended_db, 2)
        contention_clean = VerdictStore.scan(contended_db).clean

    if replay_stats.get("misses"):
        raise SystemExit(
            f"replay pass tested {replay_stats['misses']} pair(s); "
            "the store should have served everything"
        )

    replay_lookups = (
        replay_stats.get("store_hits", 0)
        + replay_stats.get("store_foreign_hits", 0)
        + replay_stats.get("misses", 0)
    )
    replay_hit_rate = (
        round(1.0 - replay_stats.get("misses", 0) / replay_lookups, 4)
        if replay_lookups
        else None
    )
    overhead = (store_cold_s - memory_s) / memory_s if memory_s else 0.0
    shared_overhead = (
        (contention_wall - store_cold_s) / store_cold_s if store_cold_s else 0.0
    )
    cross_process = sum(s.get("store_foreign_hits", 0) for s in writer_stats)
    report = {
        "benchmark": "store",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "routines": len(work),
        "memory_cold_s": round(memory_s, 4),
        "store_cold_s": round(store_cold_s, 4),
        "write_through_overhead": round(overhead, 4),
        "store_replay_s": round(replay_s, 4),
        "replay_speedup": round(memory_s / replay_s, 2) if replay_s else None,
        "store_bytes": size,
        "verdicts": verdicts,
        "bytes_per_verdict": round(size / verdicts, 1) if verdicts else None,
        "replay_store_hits": replay_stats.get("store_hits", 0),
        "replay_hit_rate": replay_hit_rate,
        "contention_writers": len(writer_stats),
        "contention_wall_s": round(contention_wall, 4),
        "contention_overhead": round(shared_overhead, 4),
        "contention_cross_process_hits": cross_process,
        "contention_store_clean": contention_clean,
    }
    print(
        f"memory cold {report['memory_cold_s']}s  "
        f"store cold {report['store_cold_s']}s "
        f"({overhead:+.1%} write-through overhead)  "
        f"replay {report['store_replay_s']}s "
        f"({report['replay_speedup']}x)  "
        f"{size} bytes for {verdicts} verdicts",
        flush=True,
    )
    print(
        f"contention: 2 writers sharing one store took "
        f"{report['contention_wall_s']}s wall "
        f"({shared_overhead:+.1%} vs one exclusive writer), "
        f"{cross_process} cross-process hit(s), "
        f"store clean: {contention_clean}",
        flush=True,
    )
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
