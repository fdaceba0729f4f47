#!/usr/bin/env python3
"""End-to-end benchmark: fresh ``python -m repro`` processes, from Fortran
bytes on disk to the final report or HTTP response.

One workload, as ``BENCHMARK.json``'s command is invoked; the last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``) holding the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0`` and its per-layer metrics with
``--trace 1``::

    python benchmarks/e2e/run.py --workload idiom-cold --seed 3 --seconds 36 --trace 0

Every workload, interleaved over ``--repeats`` rounds whose starting
workload rotates, then one traced pass each; prints every metric with
its unit, median, quartiles and sample count, and checks the outputs::

    python benchmarks/e2e/run.py --seed 1 [--repeats 5] [--out FILE] [--trace-dir DIR]

Inputs are generated from ``--seed`` under ``benchmarks/e2e/_work``
(``--work`` moves it) and removed afterwards.  Any failed output check
makes the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import http.client
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from compare import METRICS, quartiles
from spans import layer_metrics, merge, self_time_table
from workloads import (
    MISMATCH,
    SERVICE_BLOCK,
    ClosedLoop,
    apply_edits,
    check_replies,
    dense_routines,
    edit_plan,
    request_plan,
    tree_sources,
    write_dense_file,
    write_idiom_tree,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Fewest setup probes per run; ``setup_s`` is their median.  CLI
#: workloads take one before each sample, so most runs take more.
PROBES = 9
#: Hard limit on any one child process (seconds); a sample takes a few.
CHILD_TIMEOUT = 45
#: Service requests sent before any timing starts (engine warm-up).
WARMUP_REQUESTS = 200
#: The server's peak RSS is read when this many replies have arrived, so
#: every run reads it after the same work however fast the machine is.
RSS_AT_REQUESTS = 1000
#: Timed requests of one traced service pass.
TRACED_REQUESTS = 400
#: Length of the generated service request plan (never exhausted).
PLAN_LENGTH = 20000
#: Objects built by one :func:`calibrate` run.
CALIBRATION_CELLS = 150_000
#: What one :func:`calibrate` run takes at the reference speed: its median
#: on the 2-vCPU VM this benchmark was written on.  Reference-speed
#: seconds are measured seconds times ``CALIBRATION_S / calibration``.
CALIBRATION_S = 0.25


def child_env() -> Dict[str, str]:
    """The environment of every analyzer process: ``src`` importable, no
    fault injection; ``REPRO_BACKEND`` passes through untouched."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_FAULT_MARKER", None)
    return env


ENV = child_env()


@dataclass
class Sample:
    """One timed unit of work and what it printed."""

    wall: float
    rss_mb: float
    code: int = 0
    stdout: bytes = b""
    stderr: str = ""
    attempted: int = 0
    failed: int = 0
    store_bytes: int = 0
    #: Reference-speed factor of the moment it ran (:class:`Speed`).
    scale: float = 1.0


class _Cell:
    __slots__ = ("weight", "key", "pair")

    def __init__(self, weight: float, key: int, pair: tuple):
        self.weight, self.key, self.pair = weight, key, pair


def calibrate() -> float:
    """Seconds a fixed pure-Python job takes now.

    The job does the analyzer's kind of work (allocating small objects,
    dict lookups, sorting by attribute) and none of its code, so a change
    to the analyzer never changes it.  The collector is paused so the
    benchmark's own heap does not add to it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        rng = random.Random(0)
        cells = [_Cell(rng.random(), k, (k, k + 1)) for k in range(CALIBRATION_CELLS)]
        index = {cell.key: cell for cell in cells}
        cells.sort(key=lambda cell: cell.weight)
        total = 0
        for cell in cells:
            total += index[cell.key].pair[1]
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speed:
    """The machine's speed of the moment, from :func:`calibrate` runs
    placed between the measured steps.

    A shared VM's speed can drift by a third within minutes (README.md,
    "Noise on this machine"), far more than a run can average away.
    Scaling each step by calibrations taken just before and after it
    removes most of that drift, so times are given in reference-speed
    seconds as well as measured ones.
    """

    def __init__(self):
        self.last = calibrate()

    def scale(self) -> float:
        """The factor for the steps since the last call: ``CALIBRATION_S``
        over the mean of the calibrations either side of them."""
        now = calibrate()
        factor = 2 * CALIBRATION_S / (self.last + now)
        self.last = now
        return factor


#: ``python -m repro`` that, at exit, writes its peak RSS in KiB to the
#: file named by its first argument.  It reads ``VmHWM``, because a
#: child's ``ru_maxrss`` includes the memory of the parent it was forked
#: from, which would hide the analyzer's own peak behind the benchmark's.
#:
#: It also makes ``os.fsync`` a no-op, as it is on tmpfs.  Only the store
#: calls it, thousands of times a run; the store lives under the
#: benchmark's directory, which may sit on a shared disk whose latency
#: swings would otherwise swamp the analyzer's own time.  The traced
#: pass does the same and still counts the calls (``store.fsyncs``).
RUNNER = """
import atexit, os, re, runpy, sys
path = sys.argv.pop(1)
os.fsync = lambda fd: None
def report():
    with open('/proc/self/status') as status, open(path, 'w') as out:
        out.write(re.search(r'VmHWM:\\s+(\\d+) kB', status.read()).group(1))
atexit.register(report)
runpy.run_module('repro', run_name='__main__', alter_sys=True)
"""


def reap(proc: subprocess.Popen, timeout: float = CHILD_TIMEOUT) -> None:
    """Wait for ``proc``, killing it after ``timeout`` or on interruption.

    The wait blocks rather than polls: ``Popen.wait(timeout)`` sleeps up
    to 50 ms between polls, which would land in every timing.  A hung
    child is killed by the timer, and its nonzero exit fails the sample.
    """
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()


def spawn(args: List, scratch: Path) -> Sample:
    """Run ``python -m repro ARGS`` to completion, timing spawn to exit."""
    out_path, err_path, hwm_path = scratch / "stdout", scratch / "stderr", scratch / "hwm"
    hwm_path.unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", RUNNER, str(hwm_path), *map(str, args)],
            stdout=out, stderr=err, env=ENV,
        )
        reap(proc)
        wall = perf_counter() - start
    rss = int(hwm_path.read_text()) / 1024.0 if hwm_path.exists() else 0.0
    return Sample(wall, rss, proc.returncode, out_path.read_bytes(), err_path.read_text())


def count_units(sample: Sample, corpus: bool) -> None:
    """Routines attempted and failed: a routine fails when quarantined,
    when it carries an ``[assumed]`` edge, or when its process failed."""
    text = sample.stdout.decode("utf-8", "replace")
    blocks = text.split("-- routine " if corpus else "== routine ")[1:]
    failed = sum("[assumed]" in block for block in blocks)
    attempted = len(blocks)
    if corpus:
        for pattern in (r"corpus: files=\d+ replayed=\d+ quarantined=(\d+)",
                        r"corpus: routines=\d+ analyzed=\d+ skipped=\d+ quarantined=(\d+)"):
            match = re.search(pattern, sample.stderr)
            quarantined = int(match.group(1)) if match else 0
            attempted += quarantined
            failed += quarantined
    else:
        failed += sum("routine skipped after failure" in block for block in blocks)
    if sample.code != 0:
        attempted = max(attempted, 1)
        failed = attempted
    sample.attempted += attempted
    sample.failed += failed


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def reset_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_work(work: Path) -> None:
    """Delete one invocation's inputs, and their parent once it is empty."""
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:
        pass  # another invocation's inputs are still there


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (0 for no values)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


# -- workloads ------------------------------------------------------------------


@dataclass
class Run:
    """What one measured run of one workload produced."""

    #: ``(seconds, reference-speed factor)`` of each setup probe.
    setups: List[Tuple[float, float]] = field(default_factory=list)
    samples: List[Sample] = field(default_factory=list)
    raws: List[Dict] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)


class Workload:
    """One workload: its inputs, probes, samples, traced pass and checks.

    The base class times ``python -m repro`` command lines; subclasses
    say which (``prepare``, ``probe_args``, ``sample_args``) and add
    their own checks.
    """

    name = ""
    corpus = True
    #: Analyzer processes per sample (each pays the setup cost).
    processes = 1
    #: Whether samples leave a store whose size is reported.
    has_store = False

    def __init__(self, work: Path, seed: int, scale: float):
        self.work = reset_dir(work / self.name)
        self.scratch = reset_dir(self.work / "scratch")
        self.seed = seed
        self.scale = scale
        self.empty_tree = reset_dir(self.work / "empty")
        self.problems: List[str] = []
        #: The first sample's stdout, which every later output must equal.
        self.first_stdout: Optional[bytes] = None

    def probe(self) -> float:
        """Spawn to exit of the entry point on empty input."""
        sample = spawn(self.probe_args(), self.scratch)
        if sample.code != 0:
            self.problems.append(f"setup probe exited {sample.code}: {sample.stderr[-300:]}")
        return sample.wall

    def sample(self) -> Sample:
        sample = spawn(self.sample_args(), self.scratch)
        count_units(sample, self.corpus)
        return sample

    def collect(self, run: Run, seconds: float, trace: bool, chrome: Optional[Path]) -> None:
        """A setup probe and a sample (then, when tracing, a traced pass)
        while another round still fits in ``seconds``; always at least
        one.  Interleaving puts the probes in the same stretch of machine
        speed as the samples, and both share one :class:`Speed` factor."""
        speed = Speed()
        start = perf_counter()
        while True:
            setup, sample = self.probe(), self.sample()
            sample.scale = speed.scale()
            run.setups.append((setup, sample.scale))
            run.samples.append(sample)
            if self.first_stdout is None:
                self.first_stdout = run.samples[0].stdout
            if trace:
                run.raws.append(self.traced(None if run.raws else chrome))
            spent = perf_counter() - start
            if spent * (1 + 1 / len(run.samples)) > seconds:
                return

    def traced(self, chrome: Optional[Path]) -> Dict:
        """One in-process pass of a sample under the tracer."""
        return self.child({"kind": "cli", "argv": [str(a) for a in self.sample_args()]},
                          chrome, self.first_stdout)

    def child(self, spec: Dict, chrome: Optional[Path], expected: Optional[bytes]) -> Dict:
        """Run ``spans.py`` on ``spec``; returns its aggregates."""
        spec = dict(spec, stdout=str(self.scratch / "traced.out"))
        spec_path, result_path = self.scratch / "spec.json", self.scratch / "result.json"
        spec_path.write_text(json.dumps(spec))
        command = [sys.executable, str(HERE / "spans.py"), str(spec_path), str(result_path)]
        if chrome is not None:
            command += ["--chrome", str(chrome)]
        subprocess.run(command, env=ENV, check=True, timeout=CHILD_TIMEOUT,
                       stdout=subprocess.DEVNULL)
        result = json.loads(result_path.read_text())
        self.problems += result["problems"]
        if spec["kind"] == "cli":
            if result["code"] != 0:
                self.problems.append(f"traced pass exited {result['code']}")
            if expected is not None and Path(spec["stdout"]).read_bytes() != expected:
                self.problems.append("traced in-process output differs from the CLI stdout")
        return result["raw"]

    def check(self, run: Run) -> None:
        """Output checks that need no extra work: byte-identical stdout."""
        if any(sample.stdout != self.first_stdout for sample in run.samples):
            self.problems.append("stdout differs between samples")

    def finish(self) -> None:
        """Checks against an untimed reference run, once per invocation."""

    def trace_overhead(self, traced_wall: float, setup_s: float, wall_s: float) -> float:
        """Traced pass wall over the untraced sample's wall after start-up."""
        return traced_wall / (wall_s - self.processes * setup_s) - 1.0


class IdiomCold(Workload):
    name = "idiom-cold"

    def prepare(self) -> None:
        self.tree = self.work / "tree"
        self.generated = write_idiom_tree(self.tree, self.seed, self.scale)

    def probe_args(self):
        return ["corpus", "run", self.empty_tree]

    def sample_args(self):
        return ["corpus", "run", self.tree]


class DenseAnalyze(Workload):
    name = "dense-analyze"
    corpus = False
    #: Depth-2 pairs brute-forced per run, with ``n`` pinned to 10.
    oracle_pairs = 100

    def prepare(self) -> None:
        self.file = self.work / "dense.f"
        write_dense_file(self.file, self.seed, self.scale)
        self.empty_file = self.work / "empty.f"
        self.empty_file.write_text("")
        self.oracle_checked = False

    def probe_args(self):
        return ["analyze", self.empty_file]

    def sample_args(self):
        return ["analyze", self.file]

    def traced(self, chrome: Optional[Path]) -> Dict:
        """The first traced pass also brute-forces a sample of its pairs."""
        spec = {"kind": "cli", "argv": [str(a) for a in self.sample_args()]}
        if not self.oracle_checked:
            spec["oracle"] = {"pairs": self.oracle_pairs, "seed": self.seed, "env": {"n": 10}}
            self.oracle_checked = True
        return self.child(spec, chrome, self.first_stdout)

    def finish(self) -> None:
        if not self.oracle_checked:
            self.traced(chrome=None)


class StoreWrite(IdiomCold):
    name = "store-write"
    has_store = True

    def prepare(self) -> None:
        super().prepare()
        self.store = self.work / "store"
        self.probe_store = self.work / "probe-store"

    def probe(self) -> float:
        shutil.rmtree(self.probe_store, ignore_errors=True)
        return super().probe()

    def probe_args(self):
        return ["corpus", "run", self.empty_tree, "--store", self.probe_store]

    def sample_args(self):
        return ["corpus", "run", self.tree, "--store", self.store]

    def sample(self) -> Sample:
        shutil.rmtree(self.store, ignore_errors=True)
        sample = super().sample()
        sample.store_bytes = tree_bytes(self.store)
        return sample

    def traced(self, chrome: Optional[Path]) -> Dict:
        shutil.rmtree(self.store, ignore_errors=True)
        return super().traced(chrome)

    def finish(self) -> None:
        cold = spawn(["corpus", "run", self.tree], self.scratch)
        if cold.stdout != self.first_stdout:
            self.problems.append("store-write stdout differs from a no-store run")


class StoreEdit(IdiomCold):
    name = "store-edit"
    has_store = True

    def prepare(self) -> None:
        super().prepare()
        self.plan = edit_plan(self.generated, self.seed)
        self.processes = len(self.plan)
        self.store = self.work / "store"
        self.snapshot_tree = self.work / "snapshot-tree"
        self.snapshot_store = self.work / "snapshot-store"
        warm = spawn(["corpus", "run", self.tree, "--store", self.snapshot_store],
                     self.scratch)
        if warm.code != 0:
            self.problems.append(f"warming the store exited {warm.code}")
        shutil.copytree(self.tree, self.snapshot_tree)

    def restore(self, tree: bool = True) -> None:
        """Put back the unedited tree and the warm store (untimed)."""
        if tree:
            shutil.rmtree(self.tree)
            shutil.copytree(self.snapshot_tree, self.tree)
        shutil.rmtree(self.store, ignore_errors=True)
        shutil.copytree(self.snapshot_store, self.store)

    def probe(self) -> float:
        self.restore(tree=False)
        return super().probe()

    def probe_args(self):
        return ["corpus", "run", self.empty_tree, "--store", self.store]

    def sample_args(self):
        return ["corpus", "run", self.tree, "--store", self.store]

    def sample(self) -> Sample:
        self.restore()
        total = Sample(0.0, 0.0)
        for edits in self.plan:
            apply_edits(edits)
            cycle = super().sample()
            total.wall += cycle.wall
            total.rss_mb = max(total.rss_mb, cycle.rss_mb)
            total.code = total.code or cycle.code
            total.attempted += cycle.attempted
            total.failed += cycle.failed
            total.stdout, total.stderr = cycle.stdout, cycle.stderr
        total.store_bytes = tree_bytes(self.store)
        return total

    def traced(self, chrome: Optional[Path]) -> Dict:
        self.restore()
        raws = []
        for cycle, edits in enumerate(self.plan):
            apply_edits(edits)
            last = cycle == len(self.plan) - 1
            raws.append(self.child(
                {"kind": "cli", "argv": [str(a) for a in self.sample_args()]},
                None if chrome is None else chrome.with_suffix(f".cycle{cycle}.json"),
                self.first_stdout if last else None,
            ))
        return merge(raws)

    def finish(self) -> None:
        # The tree still holds the last sample's edits; a cold run must agree.
        cold = spawn(["corpus", "run", self.tree], self.scratch)
        if cold.stdout != self.first_stdout:
            self.problems.append("store-edit stdout differs from a no-store run "
                                 "over the same edited tree")


class ServiceMixed(Workload):
    """The service; a sample is a block of ``SERVICE_BLOCK`` replies."""

    name = "service-mixed"

    def prepare(self) -> None:
        tree = self.work / "tree"
        write_idiom_tree(tree, self.seed, self.scale)
        self.plan = request_plan(
            self.seed, tree_sources(tree / "kernels"), tree_sources(tree / "gen"),
            dense_routines(self.seed, self.scale), PLAN_LENGTH,
        )
        self.plan_path = self.work / "plan.json"
        self.plan_path.write_text(json.dumps(self.plan))
        self.first_routines: Dict[str, list] = {}

    def start_server(self):
        """Spawn ``serve --port 0``; returns ``(proc, port, spawn-to-healthy)``."""
        banner = self.scratch / "serve.out"
        with open(banner, "wb") as out:
            start = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0"],
                stdout=out, stderr=subprocess.DEVNULL, env=ENV,
            )
        try:
            port = None
            while port is None:
                match = re.search(rb"serving on http://[\d.]+:(\d+)", banner.read_bytes())
                if match:
                    port = int(match.group(1))
                elif proc.poll() is not None or perf_counter() - start > CHILD_TIMEOUT:
                    raise RuntimeError("service did not start")
                else:
                    time.sleep(0.002)
            while not self.healthy(port):
                if perf_counter() - start > CHILD_TIMEOUT:
                    raise RuntimeError("service never became healthy")
                time.sleep(0.002)
            return proc, port, perf_counter() - start
        except BaseException:
            self.stop_server(proc)
            raise

    @staticmethod
    def healthy(port: int) -> bool:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        try:
            conn.request("GET", "/healthz")
            return conn.getresponse().status == 200
        except OSError:
            return False
        finally:
            conn.close()

    def stop_server(self, proc: subprocess.Popen) -> None:
        """SIGTERM (graceful drain), then reap; a clean drain exits 0."""
        if proc.returncode is None:
            proc.send_signal(signal.SIGTERM)
            reap(proc)
            if proc.returncode != 0:
                self.problems.append(f"service exited {proc.returncode} on SIGTERM")

    @staticmethod
    def peak_rss(proc: subprocess.Popen) -> float:
        """The running server's peak RSS so far, in MiB."""
        status = Path(f"/proc/{proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def probe(self) -> float:
        proc, _, elapsed = self.start_server()
        self.stop_server(proc)
        return elapsed

    def collect(self, run: Run, seconds: float, trace: bool, chrome: Optional[Path]) -> None:
        """One server session, then (when tracing) traced in-process passes.
        The client threads share this process, so the session's samples
        share the :class:`Speed` factor of calibrations either side of it."""
        start = perf_counter()
        speed = Speed()
        self.session(seconds / 2 if trace else seconds, run)
        factor = speed.scale()
        for sample in run.samples:
            sample.scale = factor
        while trace and (not run.raws or perf_counter() - start < seconds):
            run.raws.append(self.traced(None if run.raws else chrome))

    def session(self, seconds: float, run: Run) -> None:
        """One server: warm-up requests, then timed blocks for ``seconds``."""
        proc, port, _ = self.start_server()
        rss: List[float] = []
        try:
            loop = ClosedLoop(f"http://127.0.0.1:{port}", self.plan)
            cursor = loop.run(stop_after=CHILD_TIMEOUT, limit=WARMUP_REQUESTS)
            warm = len(loop.replies)
            start = perf_counter()
            loop.run(stop_after=seconds, start=cursor,
                     at=(RSS_AT_REQUESTS, lambda: rss.append(self.peak_rss(proc))))
            elapsed = perf_counter() - start
            if not rss:  # fewer replies than RSS_AT_REQUESTS: read it now
                rss.append(self.peak_rss(proc))
        finally:
            self.stop_server(proc)
        failed = check_replies(loop.replies, self.first_routines)
        if any(reply.error == MISMATCH for reply in loop.replies):
            self.problems.append(f"service-mixed: {MISMATCH}")
        timed = sorted(loop.replies[warm:], key=lambda reply: reply.received)
        edge = start
        for k in range(len(timed) // SERVICE_BLOCK):
            last = timed[(k + 1) * SERVICE_BLOCK - 1].received
            run.samples.append(Sample(last - edge, rss[0]))
            edge = last
        if not run.samples:
            run.samples.append(Sample(elapsed, rss[0]))
        run.samples[0].attempted = len(loop.replies)
        run.samples[0].failed = failed
        answered = [r for r in timed if r.elapsed_ms is not None]
        latencies = [1000.0 * (r.received - r.sent) for r in answered]
        run.extra.update({
            "requests_per_s": len(timed) / elapsed,
            "latency_p50_ms": percentile(latencies, 50),
            "latency_p99_ms": percentile(latencies, 99),
            "server_ms_p50": percentile([r.elapsed_ms for r in answered], 50),
            "transport_ms_p50": percentile(
                [lat - r.elapsed_ms for lat, r in zip(latencies, answered)], 50
            ),
        })

    def traced(self, chrome: Optional[Path]) -> Dict:
        spec = {"kind": "service", "plan": str(self.plan_path),
                "warmup": WARMUP_REQUESTS, "requests": TRACED_REQUESTS}
        return self.child(spec, chrome, None)

    def check(self, run: Run) -> None:
        """Replies are checked per session, against the first answer."""

    def trace_overhead(self, traced_wall: float, setup_s: float, wall_s: float) -> float:
        return (traced_wall / TRACED_REQUESTS) / (wall_s / SERVICE_BLOCK) - 1.0


WORKLOAD_TYPES = {cls.name: cls for cls in (IdiomCold, DenseAnalyze, StoreWrite,
                                            StoreEdit, ServiceMixed)}


# -- measuring --------------------------------------------------------------------


def measure(workload: Workload, seconds: float, trace: bool,
            chrome: Optional[Path] = None) -> Run:
    """One run: probes and samples for ``seconds``, then checks."""
    run = Run()
    workload.probe()  # untimed: compiles bytecode, warms the page cache
    workload.collect(run, seconds, trace, chrome)
    if len(run.setups) < PROBES:
        speed = Speed()
        while len(run.setups) < PROBES:
            setup = workload.probe()
            run.setups.append((setup, speed.scale()))
    workload.check(run)
    return run


def e2e_metrics(workload: Workload, run: Run) -> Dict[str, float]:
    """The run's end-to-end metrics; ``setup_s`` and ``wall_s`` are in
    reference-speed seconds (:class:`Speed`), ``*_raw_s`` as measured."""
    samples = run.samples
    metrics = {
        "setup_s": statistics.median(seconds * scale for seconds, scale in run.setups),
        "wall_s": statistics.median(s.wall * s.scale for s in samples),
        "setup_raw_s": statistics.median(seconds for seconds, _ in run.setups),
        "wall_raw_s": statistics.median(s.wall for s in samples),
        "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
        "failed_frac": sum(s.failed for s in samples) / max(sum(s.attempted for s in samples), 1),
    }
    if workload.has_store:
        metrics["store_bytes"] = statistics.median(s.store_bytes for s in samples)
    metrics.update(run.extra)
    return metrics


def layer_summary(workload: Workload, run: Run, setup_s: float,
                  wall_s: float) -> Dict[str, float]:
    """Median per-layer metrics over the run's traced passes, plus the
    tracing overhead against the untraced samples."""
    per_pass = [layer_metrics(raw) for raw in run.raws]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    latency = run.extra.get("latency_p50_ms")
    metrics["service.transport_share"] = (
        run.extra["transport_ms_p50"] / latency if latency else 0.0
    )
    metrics["trace_overhead"] = workload.trace_overhead(
        metrics["traced_wall_s"], setup_s, wall_s
    )
    return metrics


def benchmark_spec() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workload_run(args) -> int:
    """``--workload``: one run, result as the last line of stdout."""
    work = args.work / f"{args.workload}-{os.getpid()}"
    spec = benchmark_spec()
    try:
        workload = WORKLOAD_TYPES[args.workload](work, args.seed, args.scale)
        workload.prepare()
        chrome = None
        if args.trace_dir is not None:
            args.trace_dir.mkdir(parents=True, exist_ok=True)
            chrome = args.trace_dir / f"{args.workload}.trace.json"
        run = measure(workload, args.seconds, bool(args.trace), chrome)
        workload.finish()
        e2e = e2e_metrics(workload, run)
        if args.trace:
            layers = layer_summary(workload, run, e2e["setup_raw_s"], e2e["wall_raw_s"])
            if args.trace_dir is not None:
                (args.trace_dir / f"{args.workload}.selftime.txt").write_text(
                    self_time_table(run.raws[0])
                )
            chosen = {m["name"]: (layers[m["name"]], m["unit"]) for m in spec["per_layer"]}
        else:
            chosen = {m["name"]: (e2e[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    finally:
        remove_work(work)
    problems = workload.problems
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(s.attempted for s in run.samples),
        "failed": sum(s.failed for s in run.samples),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()},
    }
    if args.out is not None:
        args.out.write_text(json.dumps(dict(result, workload=args.workload, seed=args.seed,
                                            trace=args.trace, end_to_end=e2e)) + "\n")
    print(json.dumps(result))
    return 0 if not problems else 1


def acceptance(name: str, layers: Dict[str, float]) -> List[str]:
    """The workload split this benchmark is built to show (README.md)."""
    rules = {
        "idiom-cold": [("front_end_share", ">=", 0.40), ("test_tiers_share", "<=", 0.05)],
        "dense-analyze": [("test_tiers_share", ">=", 0.50), ("fortran_share", "<=", 0.15)],
        "store-edit": [("corpus.replay_ratio", ">=", 0.90)],
    }.get(name, [])
    if name != "service-mixed":
        rules.append(("unattributed_share", "<=", 0.20))
    lines = []
    for metric, op, bound in rules:
        value = layers[metric]
        ok = value >= bound if op == ">=" else value <= bound
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {metric} = {value:.3f} {op} {bound}")
    return lines


def full_run(args) -> int:
    """Every workload, ``--repeats`` interleaved rounds, one traced pass each."""
    names = list(WORKLOAD_TYPES)
    work = args.work / f"all-{os.getpid()}"
    summary: Dict = {"seed": args.seed, "repeats": args.repeats, "seconds": args.seconds,
                     "scale": args.scale, "workloads": {}}
    if args.trace_dir is not None:
        args.trace_dir.mkdir(parents=True, exist_ok=True)
    try:
        workloads = {n: WORKLOAD_TYPES[n](work, args.seed, args.scale) for n in names}
        for workload in workloads.values():
            workload.prepare()
        runs: Dict[str, List[Run]] = {n: [] for n in names}
        for round_ in range(args.repeats):
            for name in names[round_ % len(names):] + names[:round_ % len(names)]:
                runs[name].append(measure(workloads[name], args.seconds, False))
                print(f"round {round_ + 1}/{args.repeats}: {name} done", file=sys.stderr)
        for name in names:
            workload, per_round = workloads[name], runs[name]
            chrome = None if args.trace_dir is None else args.trace_dir / f"{name}.trace.json"
            traced = Run(raws=[workload.traced(chrome)], extra=per_round[-1].extra)
            workload.finish()
            rounds = [e2e_metrics(workload, r) for r in per_round]
            table = {}
            for m in rounds[0]:
                q1, median, q3 = quartiles([r[m] for r in rounds])
                table[m] = {"median": median, "q1": q1, "q3": q3, "n": len(rounds),
                            "unit": METRICS[m][0]}
            layers = layer_summary(workload, traced, table["setup_raw_s"]["median"],
                                   table["wall_raw_s"]["median"])
            if args.trace_dir is not None:
                (args.trace_dir / f"{name}.selftime.txt").write_text(
                    self_time_table(traced.raws[0]))
            summary["workloads"][name] = {
                "end_to_end": table,
                "per_layer": layers,
                "acceptance": acceptance(name, layers),
                "problems": workload.problems,
            }
    finally:
        remove_work(work)
    problems = [f"{name}: {p}" for name, entry in summary["workloads"].items()
                for p in entry["problems"]]
    for name, entry in summary["workloads"].items():
        print(f"== {name} ==")
        for metric, row in entry["end_to_end"].items():
            print(f"  {metric:18s} {row['median']:12.4f} {row['unit']:6s} "
                  f"(q1 {row['q1']:.4f}, q3 {row['q3']:.4f}, n={row['n']})")
        for line in entry["acceptance"]:
            print(f"  {line}")
    for problem in problems:
        print(f"check failed: {problem}")
    summary["output_ok"] = not problems
    summary["claim"] = None
    print(f"output_ok={'true' if not problems else 'false'}")
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if not problems else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOAD_TYPES), default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json's "
                        "run_seconds with --workload, 4 per round otherwise)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--trace-dir", type=Path, default=None)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every input size (tests use a tiny scale)")
    parser.add_argument("--work", type=Path, default=HERE / "_work")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2e benchmark: no analyzer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    # Turn SIGTERM into SystemExit so every child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"] if args.workload else 4.0
    if args.workload:
        return workload_run(args)
    return full_run(args)


if __name__ == "__main__":
    sys.exit(main())
