"""Layer spans for the end-to-end benchmark, recorded from outside the program.

The benchmark does not instrument ``src/``: :class:`Tracer` replaces the
analyzer's public functions at every module that binds them (and a few
methods on their classes) with wrappers that record a span — name,
start, end, parent span, request id — and bump counters computed from
the call's result.  Spans stay in memory until the traced run ends;
then the run's aggregates (per-span calls, total and self time, counts,
and how much of the wall clock any span covered) go to a JSON file,
optionally with a Chrome trace-event file of every span.

A span's *self time* is its duration minus the time its child spans
cover.  ``symbolic`` is called millions of times, so it gets no span;
its time lands in the self time of whichever test tier called it.

Run as a script this module is the traced child process: it runs one
``python -m repro`` command line — or, for the service workload, an
in-process ``serve`` driven by the benchmark's closed loop — under the
tracer and writes its aggregates::

    python benchmarks/e2e/spans.py SPEC.json RESULT.json [--chrome FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import sys
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

# -- what is wrapped --------------------------------------------------------


def _count_tokens(counts, result, args):
    counts["fortran.tokens"] += len(result)


def _count_sites(counts, result, args):
    counts["ir.sites"] += len(result)


def _count_graph(counts, result, args):
    counts["graph.pairs"] += result.tested_pairs
    counts["graph.edges"] += len(result.edges)


def _count_lookup(counts, result, args):
    counts["engine.lookups"] += 1
    counts["engine.misses"] += result is None


def _count_test(counts, result, args):
    counts["single.applications"] += result.applicable
    counts["single.independent"] += result.applicable and result.independent


def _counter(name):
    def count(counts, result, args):
        counts[name] += 1

    return count


def _count_walk(counts, result, args):
    counts["corpus.routines"] += result.routines
    counts["corpus.replayed"] += result.skipped


#: ``(target, span name or None for count-only, counter, request-id)``.
#: A target is ``module:function`` or ``module:Class.method``.
WRAPPED = (
    ("repro.fortran.lexer:preprocess", "fortran.preprocess", None, None),
    ("repro.fortran.lexer:tokenize", "fortran.tokenize", _count_tokens, None),
    ("repro.fortran.parser:parse_program", "fortran.parse_program", None, None),
    ("repro.ir.scalars:substitute_scalars_program", "ir.scalars", None, None),
    ("repro.ir.normalize:normalize_program", "ir.normalize", None, None),
    ("repro.ir.loop:collect_access_sites", "ir.collect", _count_sites, None),
    ("repro.graph.depgraph:build_dependence_graph", "graph.build", _count_graph, None),
    ("repro.graph.depgraph:DependenceGraph.__str__", "graph.render", None, None),
    ("repro.engine.cache:CachedDriver.prepare", "engine.prepare", None, None),
    ("repro.engine.cache:CachedDriver.resolve", "engine.resolve", None, None),
    ("repro.engine.cache:CachedDriver.lookup", None, _count_lookup, None),
    ("repro.core.driver:test_dependence", "core.test_dependence", None, None),
    ("repro.classify.partition:partition_subscripts", "classify.partition", None, None),
    ("repro.classify.subscript:classify", "classify.classify", None, None),
    ("repro.single.ziv:ziv_test", "single.ziv", _count_test, None),
    ("repro.single.siv:siv_test", "single.siv", _count_test, None),
    ("repro.single.rdiv:rdiv_test", "single.rdiv", _count_test, None),
    ("repro.single.miv:banerjee_gcd_test", "single.miv", _count_test, None),
    ("repro.delta.delta:delta_test", "delta.delta", _counter("delta.groups"), None),
    ("repro.transform.parallel:find_parallel_loops", "transform.parallel", None, None),
    ("repro.transform.parallel:LoopParallelism.__str__", "transform.render", None, None),
    ("repro.corpus.stream:StreamingCorpusRunner.run", "corpus.walk", _count_walk, None),
    (
        "repro.corpus.stream:StreamingCorpusRunner._run_file",
        "corpus.walk",
        None,
        lambda args: str(args[1]),
    ),
    ("repro.corpus.stream:render_routine_report", "corpus.render", None, None),
    ("repro.corpus.stream:file_token", "corpus.token", None, None),
    ("repro.corpus.stream:routine_token", "corpus.token", None, None),
    ("repro.engine.store:VerdictStore.__init__", "store.open", None, None),
    ("repro.engine.store:VerdictStore.get", "store.get", None, None),
    ("repro.engine.store:VerdictStore.get_plan", "store.get", None, None),
    ("repro.engine.store:VerdictStore.get_report", "store.get", None, None),
    ("repro.engine.store:VerdictStore.put", "store.put", _counter("store.verdict_records"), None),
    ("repro.engine.store:VerdictStore.put_plan", "store.put", _counter("store.plan_records"), None),
    ("repro.engine.store:VerdictStore.put_report", "store.put", _counter("store.report_records"), None),
    ("repro.engine.store:VerdictStore.checkpoint", "store.checkpoint", None, None),
    ("repro.engine.store:VerdictStore.close", "store.checkpoint", None, None),
    ("os:fsync", None, _counter("store.fsyncs"), None),
    ("repro.service.protocol:AnalyzeRequest.from_body", "service.decode", None, None),
    ("repro.service.protocol:graph_payload", "service.encode", None, None),
    ("repro.service.protocol:parallelism_payload", "service.encode", None, None),
    ("repro.service.protocol:analysis_payload", "service.encode", None, None),
    ("repro.engine.engine:DependenceEngine.serve_build", "service.serve_build", None, None),
    (
        "repro.service.server:DependenceService._analyze_sync",
        "service.handler",
        None,
        lambda args: args[2].name,
    ),
)


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class _ThreadState:
    __slots__ = ("index", "spans", "stack", "request")

    def __init__(self, index: int):
        self.index = index
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.request: Optional[str] = None


class Tracer:
    """Span store plus the wrappers that feed it.

    ``install`` patches every target in :data:`WRAPPED`; ``uninstall``
    puts the originals back.
    """

    def __init__(self):
        self.counts: Counter = Counter()
        self.threads: List[_ThreadState] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[tuple] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                state = _ThreadState(len(self.threads))
                self.threads.append(state)
            self._local.state = state
            return state

    def wrap(
        self,
        fn: Callable,
        name: Optional[str],
        counter: Optional[Callable] = None,
        request: Optional[Callable] = None,
    ) -> Callable:
        counts = self.counts
        if name is None:

            @functools.wraps(fn)
            def counting(*args, **kwargs):
                result = fn(*args, **kwargs)
                counter(counts, result, args)
                return result

            return counting

        state_of = self._state

        @functools.wraps(fn)
        def spanning(*args, **kwargs):
            state = state_of()
            spans, stack = state.spans, state.stack
            saved = state.request
            if request is not None:
                state.request = request(args)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, state.request]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
                state.request = saved
            if counter is not None:
                counter(counts, result, args)
            return result

        return spanning

    def install(self) -> None:
        importlib.import_module("repro.cli")
        for target, name, counter, request in WRAPPED:
            owner, attr = _resolve(target)
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    patched = classmethod(self.wrap(raw.__func__, name, counter, request))
                else:
                    patched = self.wrap(raw, name, counter, request)
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, patched)
                continue
            fn = getattr(owner, attr)
            wrapper = self.wrap(fn, name, counter, request)
            for module in list(sys.modules.values()):
                if module is owner or getattr(module, "__name__", "").startswith("repro"):
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._undo.append((module, key, fn))
                            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- aggregation -------------------------------------------------------

    def aggregate(self, start: float, end: float) -> Dict:
        """Per-span ``[calls, total_s, self_s]``, counts, and the part of
        ``[start, end]`` covered by at least one span on any thread."""
        table: Dict[str, List[float]] = {}
        intervals = []
        for state in self.threads:
            spans = state.spans
            child = [0.0] * len(spans)
            for record in spans:
                if record[3] >= 0:
                    child[record[3]] += record[2] - record[1]
            for i, (name, begin, finish, parent, _) in enumerate(spans):
                row = table.setdefault(name, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += finish - begin
                row[2] += finish - begin - child[i]
                if parent < 0:
                    intervals.append((max(begin, start), min(finish, end)))
        covered = 0.0
        reach = start
        for begin, finish in sorted(intervals):
            if finish > reach:
                covered += finish - max(begin, reach)
                reach = finish
        return {
            "wall": end - start,
            "covered": covered,
            "spans": table,
            "counts": dict(self.counts),
        }

    def write_chrome(self, path: Path, origin: float) -> None:
        """All spans as Chrome trace-event JSON (``chrome://tracing``)."""
        events = []
        for state in self.threads:
            for i, (name, begin, finish, parent, request) in enumerate(state.spans):
                events.append({
                    "name": name,
                    "cat": name.split(".")[0],
                    "ph": "X",
                    "ts": round((begin - origin) * 1e6, 3),
                    "dur": round((finish - begin) * 1e6, 3),
                    "pid": 1,
                    "tid": state.index,
                    "args": {"id": i, "parent": parent, "request": request},
                })
        path.write_text(json.dumps({"traceEvents": events}))


# -- per-layer metrics --------------------------------------------------------

#: Layers whose time is reported as a share of the traced wall clock
#: rather than in seconds, because some workloads never enter them.
SHARES = {
    "ir.scalars_share": ("ir.scalars",),
    "corpus.walk_share": ("corpus.walk",),
    "corpus.render_share": ("corpus.render",),
    "corpus.token_share": ("corpus.token",),
    "store.open_share": ("store.open",),
    "store.get_share": ("store.get",),
    "store.put_share": ("store.put",),
    "store.checkpoint_share": ("store.checkpoint",),
    "service.decode_share": ("service.decode",),
    "service.encode_share": ("service.encode",),
    "service.lock_wait_share": ("service.serve_build",),
    "service.handler_share": ("service.handler",),
}

#: Layers every workload enters, reported as self time in seconds.
SECONDS = {
    "fortran.lex_s": ("fortran.preprocess", "fortran.tokenize"),
    "fortran.parse_s": ("fortran.parse_program",),
    "ir.normalize_s": ("ir.normalize",),
    "ir.collect_s": ("ir.collect",),
    "graph.build_s": ("graph.build",),
    "engine.prepare_s": ("engine.prepare",),
    "engine.resolve_s": ("engine.resolve",),
    "core.test_dependence_s": ("core.test_dependence",),
    "classify.partition_s": ("classify.partition",),
    "classify.classify_s": ("classify.classify",),
    "single.ziv_s": ("single.ziv",),
    "single.siv_s": ("single.siv",),
    "single.rdiv_s": ("single.rdiv",),
    "single.miv_s": ("single.miv",),
    "delta.delta_s": ("delta.delta",),
    "transform.parallel_s": ("transform.parallel",),
    # Turning graphs into what the user reads: report text or JSON.
    "render_s": ("graph.render", "transform.render", "corpus.render", "service.encode"),
}

COUNTS = (
    "fortran.tokens",
    "ir.sites",
    "graph.pairs",
    "graph.edges",
    "engine.misses",
    "single.applications",
    "delta.groups",
    "store.fsyncs",
    "store.verdict_records",
    "store.plan_records",
    "store.report_records",
)

#: Span groups the acceptance split is stated in.
FRONT_END = ("fortran.preprocess", "fortran.tokenize", "fortran.parse_program",
             "ir.scalars", "ir.normalize", "ir.collect")
TEST_TIERS = ("core.test_dependence", "classify.partition", "classify.classify",
              "single.ziv", "single.siv", "single.rdiv", "single.miv", "delta.delta")
FORTRAN = ("fortran.preprocess", "fortran.tokenize", "fortran.parse_program")


def merge(raws: Sequence[Dict]) -> Dict:
    """Sum the aggregates of several traced processes (one pass)."""
    total = {"wall": 0.0, "covered": 0.0, "spans": {}, "counts": Counter()}
    for raw in raws:
        total["wall"] += raw["wall"]
        total["covered"] += raw["covered"]
        total["counts"].update(raw["counts"])
        for name, (calls, spent, own) in raw["spans"].items():
            row = total["spans"].setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += spent
            row[2] += own
    total["counts"] = dict(total["counts"])
    return total


def self_time(raw: Dict, names: Sequence[str]) -> float:
    return sum(raw["spans"].get(name, (0, 0.0, 0.0))[2] for name in names)


def layer_metrics(raw: Dict) -> Dict[str, float]:
    """Every per-layer metric of one traced pass (see README.md)."""
    wall = raw["wall"]
    counts = raw["counts"]
    metrics: Dict[str, float] = {}
    for metric, names in SECONDS.items():
        metrics[metric] = self_time(raw, names)
    for metric, names in SHARES.items():
        metrics[metric] = self_time(raw, names) / wall
    for name in COUNTS:
        metrics[name] = counts.get(name, 0)
    metrics["fortran.tokens_per_s"] = counts.get("fortran.tokens", 0) / max(
        self_time(raw, FORTRAN), 1e-9
    )
    lookups = counts.get("engine.lookups", 0)
    metrics["engine.hit_ratio"] = 1.0 - counts.get("engine.misses", 0) / lookups if lookups else 0.0
    applied = counts.get("single.applications", 0)
    metrics["single.independent_ratio"] = (
        counts.get("single.independent", 0) / applied if applied else 0.0
    )
    routines = counts.get("corpus.routines", 0)
    metrics["corpus.replay_ratio"] = counts.get("corpus.replayed", 0) / routines if routines else 0.0
    metrics["traced_wall_s"] = wall
    metrics["unattributed_s"] = wall - raw["covered"]
    metrics["front_end_share"] = self_time(raw, FRONT_END) / wall
    metrics["test_tiers_share"] = self_time(raw, TEST_TIERS) / wall
    metrics["fortran_share"] = self_time(raw, FORTRAN) / wall
    metrics["unattributed_share"] = metrics["unattributed_s"] / wall
    return metrics


def self_time_table(raw: Dict) -> str:
    """Plain-text table of every span, heaviest self time first."""
    wall = raw["wall"]
    lines = [f"traced wall {wall:.4f} s, unattributed {wall - raw['covered']:.4f} s",
             f"{'span':28s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s} {'self%':>7s}"]
    for name, (calls, spent, own) in sorted(
        raw["spans"].items(), key=lambda item: -item[1][2]
    ):
        lines.append(
            f"{name:28s} {calls:9d} {spent:10.4f} {own:10.4f} {100 * own / wall:6.1f}%"
        )
    for name, value in sorted(raw["counts"].items()):
        lines.append(f"count {name} = {value}")
    return "\n".join(lines) + "\n"


# -- the traced child process ---------------------------------------------------


class _Capture:
    """Keeps every graph ``DependenceEngine.build_graph`` returns."""

    def __init__(self):
        self.graphs = []
        self._original = None

    def install(self):
        from repro.engine.engine import DependenceEngine

        original = self._original = DependenceEngine.build_graph
        graphs = self.graphs

        def build_graph(engine, *args, **kwargs):
            graph = original(engine, *args, **kwargs)
            graphs.append(graph)
            return graph

        DependenceEngine.build_graph = build_graph

    def uninstall(self):
        from repro.engine.engine import DependenceEngine

        DependenceEngine.build_graph = self._original


def oracle_check(graphs, pairs: int, seed: int, env: Dict[str, int]) -> List[str]:
    """Brute-force soundness of a seeded sample of depth-2 pairs.

    For every sampled ordered pair ``(first, second)`` of a routine whose
    accesses all sit in two loops, each direction vector that actually
    occurs with ``env`` pinning the symbolic bounds must be reported by
    the graph: plausible vectors on the ``first -> second`` edge, the
    others reversed on ``second -> first``.  Returns the violations.
    """
    import random

    sys.path.insert(0, str(ROOT / "tests"))
    from oracle import brute_force_vectors

    from repro.dirvec.direction import Direction
    from repro.dirvec.vectors import is_plausible, reverse_vector
    from repro.graph.depgraph import iter_candidate_pairs

    candidates = []
    for graph in graphs:
        if graph.sites and all(len(site.loops) == 2 for site in graph.sites):
            reported: Dict[tuple, set] = {}
            for edge in graph.edges:
                reported.setdefault((id(edge.source), id(edge.sink)), set()).update(edge.vectors)
            candidates += [(reported, a, b) for a, b in iter_candidate_pairs(graph.sites)]
    sample = random.Random(f"oracle:{seed}").sample(candidates, min(pairs, len(candidates)))
    problems = []
    if pairs and not sample:
        problems.append("oracle: no depth-2 pairs to check")
    for reported, first, second in sample:
        for vector in brute_force_vectors(first, second, env):
            if first is second and all(d is Direction.EQ for d in vector):
                continue  # an access paired with itself in one iteration
            if is_plausible(vector):
                key, want = (id(first), id(second)), vector
            else:
                key, want = (id(second), id(first)), reverse_vector(vector)
            if want not in reported.get(key, ()):
                problems.append(
                    f"oracle: {first.ref} -> {second.ref} misses a real dependence"
                )
                break
    return problems


def _run_cli(argv: List[str]) -> tuple:
    from repro.cli import main as cli_main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue()


def _run_service(spec: Dict, tracer: Tracer) -> tuple:
    """An in-process ``serve`` on a loop thread, driven by the closed loop."""
    import asyncio

    from repro.service.server import DependenceService, ServiceConfig
    from workloads import ClosedLoop, check_replies

    plan = [tuple(item) for item in json.loads(Path(spec["plan"]).read_text())]
    service = DependenceService(ServiceConfig(port=0))
    loop = asyncio.new_event_loop()
    ready = threading.Event()

    def serve():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(service.start())
        ready.set()
        loop.run_forever()

    thread = threading.Thread(target=serve)
    thread.start()
    ready.wait(60)
    try:
        clients = ClosedLoop(f"http://127.0.0.1:{service.port}", plan)
        warm = spec["warmup"]
        clients.run(stop_after=120.0, limit=warm)
        tracer.install()
        start = perf_counter()
        clients.run(stop_after=120.0, start=warm, limit=spec["requests"])
        end = perf_counter()
        tracer.uninstall()
    finally:
        asyncio.run_coroutine_threadsafe(service.stop(), loop).result(60)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(60)
        loop.close()
    problems = []
    failed = check_replies(clients.replies, {})
    if failed:
        problems.append(f"traced service pass: {failed} of {len(clients.replies)} requests failed")
    return start, end, problems


def child_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="one traced benchmark pass")
    parser.add_argument("spec", type=Path)
    parser.add_argument("result", type=Path)
    parser.add_argument("--chrome", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads(args.spec.read_text())
    os.fsync = lambda fd: None  # as in the untraced samples (run.RUNNER); still counted
    tracer = Tracer()
    result: Dict = {"problems": []}
    if spec["kind"] == "service":
        start, end, result["problems"] = _run_service(spec, tracer)
    else:
        capture = _Capture() if spec.get("oracle") else None
        if capture is not None:
            capture.install()
        tracer.install()
        start = perf_counter()
        code, text = _run_cli(spec["argv"])
        end = perf_counter()
        tracer.uninstall()
        result["code"] = code
        Path(spec["stdout"]).write_text(text)
        if capture is not None:
            capture.uninstall()
            oracle = spec["oracle"]
            result["problems"] += oracle_check(
                capture.graphs, oracle["pairs"], oracle["seed"], oracle["env"]
            )
    result["raw"] = tracer.aggregate(start, end)
    if args.chrome is not None:
        tracer.write_chrome(args.chrome, start)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(child_main())
