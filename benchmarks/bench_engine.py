#!/usr/bin/env python
"""Engine throughput benchmark: serial vs cached, on fresh IR.

Builds the dependence graph of three workloads —

* **kernels** — every routine of the bundled corpus (the paper's suites),
* **generated** — random nests with deliberately low coefficient/constant
  diversity, modelling the paper's observation that real programs repeat a
  small number of subscript shapes,
* **coupled** — nests dominated by coupled subscript groups (the Delta
  test's constraint-propagation path),

three ways: the plain serial builder, and the serial builder behind the
canonical-pair LRU cache both cold (a fresh engine per pass) and warm (an
engine that has seen the workload).  Like ``analyze``, ``corpus run`` and
``serve``, every timed pass builds from IR that no earlier pass has seen:
each workload is a factory that parses or generates its routines afresh,
and every serial, cold and warm pass gets its own copy, built before any
timing starts.  The configurations are interleaved routine by routine, and
a configuration's time is the sum over routines of that routine's fastest
build over ``--passes`` passes, so a slow stretch of a shared machine is
discarded rather than charged to one ratio.  Warm p50/p95 per-pair latency
is each routine's fastest warm build over its candidate-pair count.

The report also carries exact counts, which the CI gate requires to equal
the committed baseline:

* ``recorder_rows`` — the serial pass's Table 3 ``TestRecorder`` rows
  (test applications and proved independences per test); every cold
  and warm pass's rows must equal them, or the benchmark exits
  non-zero;
* ``cold_hits`` / ``cold_misses`` — the cold pass's memory-cache lookups;
* ``verdict_digest`` — a SHA-256 over every graph's verdict signature
  (edge endpoints, type, direction vectors and carried levels).

Every pass's signatures are checked against the serial ones outside the
timed regions.  Each workload also reports a per-phase wall-time
breakdown from one profiled cold pass.  Results land in
``BENCH_engine.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py [--quick]
        [--passes P] [--out BENCH_engine.json]
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.corpus.generator import coupled_group_nest, random_nest
from repro.corpus.loader import default_symbols, load_corpus
from repro.engine import DependenceEngine
from repro.graph.depgraph import build_dependence_graph
from repro.instrument import TestRecorder

CONFIGS = ("serial", "cold", "warm")


def kernel_workload():
    """(name, nodes) per routine of the bundled corpus, freshly parsed."""
    work = []
    for suite, programs in load_corpus().items():
        for program in programs:
            for routine in program.routines:
                work.append((f"{suite}/{program.name}/{routine.name}", routine.body))
    return work


def generated_workload(nests: int, shapes: int = 12):
    """Random nests drawn from a small pool of idioms.

    Models the paper's empirical premise: a large program body repeats a
    small number of subscript shapes.  Routine ``i`` is generated from
    seed ``i % shapes``, so ``shapes`` distinct nests repeat round-robin
    as separate objects, and a cold corpus-wide pass hits the cache on
    roughly ``1 - shapes/nests`` of the pairs by canonical key alone.
    ``coupled_fraction`` follows the paper's survey: subscript positions
    overwhelmingly use their own loop index (separable ZIV/SIV dominate;
    coupled groups are rare).
    """
    return [
        (
            f"nest{i}",
            random_nest(
                i % shapes,
                depth=2 + (i % shapes) % 2,
                statements=5,
                arrays=3,
                ndim=2,
                extent=100,
                max_coeff=1,
                max_const=2,
                miv_fraction=0.1,
                coupled_fraction=0.1,
            ),
        )
        for i in range(nests)
    ]


def coupled_workload(nests: int):
    """Nests dominated by coupled subscript groups.

    The inverse mix of ``generated_workload``: most subscript positions
    reuse another position's loop index, so almost every reference pair
    lands in the Delta test's constraint-propagation path instead of a
    single separable ZIV/SIV query.  Interleaves the minimal
    ``coupled_group_nest`` family (one group of 2–4 positions per pair,
    varied offsets — Section 5.4's linear-complexity workload) with
    random nests at ``coupled_fraction=0.9``.
    """
    work = []
    for i in range(nests):
        if i % 2 == 0:
            nodes = coupled_group_nest(
                2 + (i // 2) % 3, extent=100, offset=1 + (i // 2) % 3
            )
        else:
            nodes = random_nest(
                1000 + i % 8,
                depth=2 + i % 2,
                statements=5,
                arrays=3,
                ndim=2,
                extent=100,
                max_coeff=1,
                max_const=2,
                miv_fraction=0.1,
                coupled_fraction=0.9,
            )
        work.append((f"coupled{i}", nodes))
    return work


def graph_signature(graph):
    """Hashable summary of every verdict a graph carries.

    Carried loops appear as nesting levels, not ``Loop.uid`` keys, so
    the signature is the same for every fresh copy of a routine.
    """
    edges = []
    for edge in graph.edges:
        edges.append(
            (
                edge.source.position,
                edge.sink.position,
                edge.dep_type.name,
                tuple(sorted(str(v) for v in edge.vectors)),
                edge.reversed_from_test,
                tuple(sorted(edge.carried_levels())),
            )
        )
    edges.sort()
    return (graph.tested_pairs, graph.independent_pairs, tuple(edges))


def verdict_digest(signatures) -> str:
    """SHA-256 over a workload's graph signatures, in routine order."""
    return hashlib.sha256(repr(signatures).encode()).hexdigest()


def percentile(samples, q):
    """The q-quantile (0..1) of a sample list by nearest-rank."""
    if not samples:
        return None
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def timed_build(build, nodes, recorder):
    start = time.perf_counter()
    graph = build(nodes, recorder=recorder)
    return time.perf_counter() - start, graph


def bench_workload(name, make, symbols, passes):
    # Every pass of every configuration gets its own IR, built up front
    # so no timed region pays for parsing or generation.
    copies = {config: [make() for _ in range(passes)] for config in CONFIGS}
    routines = len(copies["serial"][0])

    def serial(nodes, recorder):
        return build_dependence_graph(nodes, symbols=symbols, recorder=recorder)

    # Warm: an engine that has already built the workload once, as a
    # driver re-analyzing a program after a transformation would hold.
    warm_engine = DependenceEngine(symbols=symbols)
    for _, nodes in make():
        warm_engine.build_graph(nodes, recorder=TestRecorder())
    gc.collect()

    best = {config: [float("inf")] * routines for config in CONFIGS}
    reference = None
    serial_rows = None
    cold_counts = None
    for p in range(passes):
        # Cold: a fresh engine per pass, so each pays its own misses.
        cold_engine = DependenceEngine(symbols=symbols)
        recorders = {config: TestRecorder() for config in CONFIGS}
        builds = {
            "serial": serial,
            "cold": cold_engine.build_graph,
            "warm": warm_engine.build_graph,
        }
        sigs = {config: [] for config in CONFIGS}
        for r in range(routines):
            for config in CONFIGS:
                nodes = copies[config][p][r][1]
                elapsed, graph = timed_build(
                    builds[config], nodes, recorders[config]
                )
                best[config][r] = min(best[config][r], elapsed)
                sigs[config].append(graph_signature(graph))
        # Free this pass's IR before the next one runs.
        for config in CONFIGS:
            copies[config][p] = None
        if reference is None:
            reference = sigs["serial"]
            serial_rows = recorders["serial"].rows()
            cold_counts = (cold_engine.stats.hits, cold_engine.stats.misses)
        for config in CONFIGS:
            if sigs[config] != reference:
                raise SystemExit(f"{name}: {config} verdicts diverge from serial")
        for config, recorder in recorders.items():
            if recorder.rows() != serial_rows:
                raise SystemExit(
                    f"{name}: {config} pass {p} Table 3 rows diverge "
                    f"({recorder.rows()} vs {serial_rows})"
                )
        if (cold_engine.stats.hits, cold_engine.stats.misses) != cold_counts:
            raise SystemExit(f"{name}: cold pass {p} hit counts differ")
        cold_stats = cold_engine.stats.as_dict()

    pairs = [sig[0] for sig in reference]
    totals = {config: sum(best[config]) for config in CONFIGS}
    latencies = [
        best["warm"][r] / pairs[r] for r in range(routines) if pairs[r]
    ]

    # Phase breakdown from one profiled cold pass (untimed: profiling
    # itself perturbs the hot path, so it never contributes to speedups).
    profiled = DependenceEngine(symbols=symbols, profile=True)
    for _, nodes in make():
        profiled.build_graph(nodes, recorder=TestRecorder())
    phase_profile = profiled.profile.as_dict()

    serial_s, cold_s, warm_s = totals["serial"], totals["cold"], totals["warm"]
    p50 = percentile(latencies, 0.50)
    p95 = percentile(latencies, 0.95)
    return {
        "routines": routines,
        "pairs": sum(pairs),
        "serial_s": round(serial_s, 4),
        "cached_cold_s": round(cold_s, 4),
        "cached_cold_speedup": round(serial_s / cold_s, 2) if cold_s else None,
        "cached_warm_s": round(warm_s, 4),
        "cached_warm_speedup": round(serial_s / warm_s, 2) if warm_s else None,
        "pair_latency_warm_p50_us": round(p50 * 1e6, 2) if p50 else None,
        "pair_latency_warm_p95_us": round(p95 * 1e6, 2) if p95 else None,
        "recorder_rows": [list(row) for row in serial_rows],
        "cold_hits": cold_counts[0],
        "cold_misses": cold_counts[1],
        "verdict_digest": verdict_digest(reference),
        "cache": cold_stats,
        "phases": phase_profile,
        "verdicts_identical": True,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small generated corpus, two passes (smoke mode)",
    )
    parser.add_argument(
        "--passes", type=int, default=None,
        help="timed passes per configuration (per-routine minima); "
             "default 5, 2 with --quick",
    )
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_engine.json",
    )
    args = parser.parse_args(argv)
    passes = args.passes or (2 if args.quick else 5)
    nests = 40 if args.quick else 150
    coupled = 12 if args.quick else 36

    symbols = default_symbols()
    workloads = {
        "kernels": kernel_workload,
        "generated": lambda: generated_workload(nests),
        "coupled": lambda: coupled_workload(coupled),
    }
    results = {}
    for name, make in workloads.items():
        print(f"benchmarking {name} ...", flush=True)
        results[name] = r = bench_workload(name, make, symbols, passes)
        print(
            f"  {r['routines']} routines, {r['pairs']} pairs  "
            f"serial {r['serial_s']}s  "
            f"cached cold {r['cached_cold_s']}s ({r['cached_cold_speedup']}x, "
            f"{r['cold_hits']} hits / {r['cold_misses']} misses)  "
            f"warm {r['cached_warm_s']}s ({r['cached_warm_speedup']}x)  "
            f"pair p50/p95 {r['pair_latency_warm_p50_us']}/"
            f"{r['pair_latency_warm_p95_us']}us",
            flush=True,
        )

    report = {
        "benchmark": "engine",
        "mode": "quick" if args.quick else "full",
        "passes": passes,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": results,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
