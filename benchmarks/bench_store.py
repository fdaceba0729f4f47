#!/usr/bin/env python
"""Persistent-store microbenchmark: the work a store write costs, and replay.

Three measurements over the bundled kernel corpus (every routine):

* **memory-only cold** — fresh engine, LRU cache, no store;
* **store cold** — the same pass with a write-through store attached:
  the difference is the price of persistence (pickling + buffered
  appends + an fsync'd checkpoint every ``CHECKPOINT_INTERVAL``
  records).  One extra, untimed store-cold pass *counts* that work by
  wrapping the calls from here (nothing in ``src/`` counts): records
  written, checkpoints, and the flushes, lock acquisitions and fsyncs
  behind them, plus the store's bytes per verdict;
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
fresh run to ``check_bench_regression.py --store``, which fails when a
store-cold count differs from the committed baseline's, the replay hit
rate drops below it, or the contention store stops scanning clean.
Times (and the write-through overhead they give) are reported but not
gated: two passes of ~0.1 s differ by more run to run than the store
costs.  Cross-process hit counts vary with scheduling and stay
ungated too.

Usage::

    python benchmarks/bench_store.py [--repeats R] [--out BENCH_store.json]
"""

from __future__ import annotations

import argparse
import builtins
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
from repro.engine import store as store_module  # noqa: E402
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


class _FlushCounter:
    """A file handle whose ``flush`` calls are counted."""

    def __init__(self, handle, counts):
        self._handle = handle
        self._counts = counts

    def flush(self):
        self._counts["flushes"] += 1
        return self._handle.flush()

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        self._handle.__enter__()
        return self

    def __exit__(self, *exc):
        return self._handle.__exit__(*exc)


def counted_store_pass(db, work, symbols):
    """One store-cold pass into a fresh ``db`` with the store's
    durability calls counted: every ``checkpoint`` that had records to
    write, every lock acquisition, and every flush and fsync of a file
    the store opened."""
    counts = {
        "checkpoints": 0, "flushes": 0, "lock_acquisitions": 0, "fsyncs": 0,
    }
    lock_class = store_module._SidecarLock
    saved = (
        VerdictStore.checkpoint, lock_class.acquire, os.fsync, os.fdopen,
    )

    def checkpoint(self):
        if self._pending and self.failure is None and not self.closed:
            counts["checkpoints"] += 1
        return saved[0](self)

    def acquire(self, *args, **kwargs):
        counts["lock_acquisitions"] += 1
        return saved[1](self, *args, **kwargs)

    def fsync(fd):
        counts["fsyncs"] += 1
        return saved[2](fd)

    VerdictStore.checkpoint = checkpoint
    lock_class.acquire = acquire
    os.fsync = fsync
    os.fdopen = lambda *a, **k: _FlushCounter(saved[3](*a, **k), counts)
    store_module.open = lambda *a, **k: _FlushCounter(
        builtins.open(*a, **k), counts
    )
    try:
        with VerdictStore(db) as store:
            engine = DependenceEngine(symbols=symbols, store=store)
            build_all(work, engine)
            engine.close()
    finally:
        VerdictStore.checkpoint, lock_class.acquire, os.fsync, os.fdopen = saved
        del store_module.open
    scan = VerdictStore.scan(db)
    counts["records_written"] = scan.records
    counts["store_bytes"] = scan.size
    counts["verdicts"] = scan.verdicts
    return counts


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
        counted_db = Path(tmp) / "counted.db"
        counts = counted_store_pass(counted_db, work, symbols)
        size, verdicts = counts["store_bytes"], counts["verdicts"]
        checkpoints = counts["checkpoints"]

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
        "records_written": counts["records_written"],
        "checkpoints": checkpoints,
        "flushes": counts["flushes"],
        "lock_acquisitions": counts["lock_acquisitions"],
        "fsyncs": counts["fsyncs"],
        "flushes_per_checkpoint": round(counts["flushes"] / checkpoints, 4),
        "locks_per_checkpoint": round(
            counts["lock_acquisitions"] / checkpoints, 4
        ),
        "fsyncs_per_checkpoint": round(counts["fsyncs"] / checkpoints, 4),
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
        f"store cold wrote {counts['records_written']} records in "
        f"{checkpoints} checkpoints: {counts['flushes']} flushes, "
        f"{counts['lock_acquisitions']} lock acquisitions, "
        f"{counts['fsyncs']} fsyncs",
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
