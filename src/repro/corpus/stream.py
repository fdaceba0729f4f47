"""Streaming corpus driver: incremental, crash-resumable, bounded-memory.

``repro-deps corpus run <tree>`` walks a directory tree of Fortran
sources and analyzes each routine exactly once per *content version*.
The unit of work is the routine, identified by a **routine token** — a
:func:`run_token` over the report schema, the file's content digest,
and the routine's position and name.  Finished
routines persist their rendered report in the verdict store as a
report document (kind ``"d"``), and a clean file persists a **file
token** record listing its routine tokens, so:

* a killed run resumes where it left off — completed routines replay
  from the store byte-identically, only the tail is re-analyzed;
* a re-run after edits touches only edited files — unchanged files
  replay wholesale off their file token without even being parsed;
* the emitted corpus report is byte-identical either way, because
  cached text and freshly rendered text go through the same renderer
  with per-routine-dense statement numbering (process-global statement
  ids drift between parses; report text must not).

Robustness rules (the conservative-degradation contract at tree scale):

* **File quarantine** — an unreadable or malformed file produces a
  ``"file"`` :class:`~repro.engine.faults.FailureRecord` and the walk
  continues; nothing about that file lands in the store.
* **Routine quarantine** — a crash inside one routine's analysis
  produces a ``"routine"`` record and skips only that routine; the
  file's other routines still stream, but the file token is withheld
  so the failed routine is retried next run.
* **Degraded output is never cached** — a report rendered while the
  engine absorbed faults (assumed-dependence verdicts, store failures)
  is emitted but not persisted, so a later healthy run repairs it.
* **Backpressure** — store write failures (e.g. ENOSPC) degrade the
  run to memory-only via the PR 3 fault machinery; an RSS watermark
  (``--max-rss-mb``) sheds the driver's caches and records a
  ``"pressure"`` failure instead of dying.

Strict mode (``--strict``) turns engine faults into an abort as
everywhere else; file-level syntax quarantine is input validation, not
an engine fault, and stays quarantine-and-continue even in strict runs.

Worker pool.  Files are independent, content-tokened units, so a large
walk analyzes them in spawned worker processes
(``ProcessPoolExecutor`` over ``multiprocessing.get_context("spawn")``):

* **When** — only with at least two usable CPUs and enough *pending*
  (not replayed) source to repay worker start-up: one worker per
  :data:`POOL_MIN_BYTES` of pending source, capped by the CPU count,
  and no pool unless that comes to two or more.  Anything smaller (a
  few edited files, the CI gate trees) runs the same functions
  in-process.
* **Who does what** — a worker decodes, parses, substitutes scalars,
  normalizes, builds each routine's graph, finds its parallel loops
  and renders its report.  The parent keeps everything ordered or
  durable: the walk, file tokens and wholesale replay, the ``die-file``
  hook, the report text in walk order, every store write and the
  per-file checkpoint, pressure checks, the summary and the fault
  report.  Workers hold no store: per routine they return the text,
  its degraded flag, quarantine errors, counter deltas and the fresh
  verdicts their engine computed, and the parent writes those through
  its store exactly as the in-process path would have.  Kill points,
  resume grain and store fault handling therefore stay in one process.
  A routine the store already holds (a file a killed run left half
  done) is replayed and the worker's result for it — text, counters,
  failures and records — is dropped.
* **Memory** — files are read a bounded window ahead of the one being
  printed and sent :data:`POOL_BATCH` to a task; results print in walk
  order, so the tree's results are never buffered.  A worker peaks
  at 45-50 MiB; ``--max-rss-mb`` applies to every process: workers shed
  their own caches too.
* **Counters** — each worker caches separately, so the verdict
  provenance line sums their caches and counts more pairs ``tested``
  than an in-process run; the report text is the same.  A tracer that
  patches functions from outside (``benchmarks/e2e/spans.py``) sees
  only the parent.
* **Failure** — a pool that breaks (a worker killed, or workers that
  cannot start because the caller's ``__main__`` re-runs on import:
  library callers need an ``if __name__ == "__main__":`` guard) costs
  one ``"pool"`` failure record, and the parent finishes the walk
  in-process with byte-identical output.  Workers exit when the parent
  does, however it dies.
"""

from __future__ import annotations

import gc
import hashlib
import os
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from typing import Dict, List, NamedTuple, Optional, Sequence, TextIO, Tuple

from repro.dirvec.vectors import format_vector
from repro.engine import faultinject
from repro.engine.engine import DependenceEngine
from repro.engine.faults import EngineFaultError, FailureRecord, describe_error
from repro.engine.profile import PhaseProfile
from repro.engine.stats import EngineStats
from repro.fortran.parser import parse_program
from repro.ir.normalize import normalize_program
from repro.ir.scalars import substitute_scalars_program
from repro.transform.parallel import find_parallel_loops

#: Bump when the rendered report format changes: tokens embed the schema,
#: so a format change invalidates cached report documents instead of
#: replaying stale text.
REPORT_SCHEMA = 1

#: File suffixes the tree walk considers Fortran sources.
CORPUS_SUFFIXES = (".f", ".f77", ".for")

#: Pending source bytes per pool worker.  Measured on a 2-vCPU VM over
#: prefixes of the end-to-end benchmark's seed-1 idiom tree (median of 7
#: alternating fresh-process runs each): in-process analysis costs 4-6 us
#: per source byte and a spawned pool takes 0.3-0.4 s from creation to
#: its first result, so two workers lost at 128 KB of pending source
#: (+13% wall) and won from 192 KB (-9%, -17% at 256 KB, -39% on the
#: whole 600 KB tree).  Two workers therefore need 256 KB.
POOL_MIN_BYTES = 128 * 1024

#: Files per pool task (amortizes the per-task round trip).
POOL_BATCH = 4

#: Files read ahead of the one being printed, per pool worker.
POOL_WINDOW = 32


def walk_tree(root: Path) -> List[PurePosixPath]:
    """Fortran source files under ``root``, as sorted relative paths.

    The order is the deterministic spine of the whole subsystem: tokens,
    kill points, resume, and byte-identity all assume two walks of the
    same tree visit files identically.
    """
    found = []
    for path in root.rglob("*"):
        if path.is_file() and path.suffix.lower() in CORPUS_SUFFIXES:
            found.append(PurePosixPath(path.relative_to(root).as_posix()))
    return sorted(found)


def run_token(*parts: object) -> str:
    """A stable hex token identifying one input + option set.

    ``parts`` may be str/bytes/int/bool/None; anything else contributes
    its ``repr``.  Each part is length-prefixed, so ``("a", "bc")`` and
    ``("ab", "c")`` differ, and the token survives process restarts (no
    ids, no addresses) so a killed run and its resume agree.
    """
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            blob = part
        elif isinstance(part, str):
            blob = part.encode("utf-8", "surrogatepass")
        else:
            blob = repr(part).encode("utf-8")
        digest.update(len(blob).to_bytes(8, "little"))
        digest.update(blob)
    return digest.hexdigest()[:16]


def file_token(data: bytes) -> str:
    """Content token for one source file (schema-qualified)."""
    return run_token("corpus-file", REPORT_SCHEMA, data)


def routine_token(file_digest: str, ordinal: int, name: str) -> str:
    """Content token for one routine of a file.

    Keyed by the file digest (not the routine's own text): a routine's
    analysis can depend on anything in its file (shared symbol
    environment, statement context), so editing a file invalidates all
    its routines — coarse but sound.
    """
    return run_token("corpus-routine", REPORT_SCHEMA, file_digest, ordinal, name)


def render_routine_report(name: str, graph, verdicts) -> str:
    """Deterministic per-routine report text.

    Mirrors ``DependenceGraph.__str__`` but renumbers statement ids
    densely in access-site order: the global statement counter drifts
    between parses, and cached reports must compare byte-equal with
    freshly rendered ones.
    """
    stmt_ids: Dict[int, int] = {}
    for site in graph.sites:
        raw = site.stmt.stmt_id
        if raw not in stmt_ids:
            stmt_ids[raw] = len(stmt_ids) + 1
    lines = [f"-- routine {name} --"]
    for edge in graph.edges:
        vectors = ", ".join(sorted(format_vector(v) for v in edge.vectors))
        src = stmt_ids.get(edge.source.stmt.stmt_id, 0)
        snk = stmt_ids.get(edge.sink.stmt.stmt_id, 0)
        text = (
            f"{edge.dep_type} {edge.source.ref} (S{src})"
            f" -> {edge.sink.ref} (S{snk}) {{{vectors}}}"
        )
        if edge.assumed:
            text += " [assumed]"
        lines.append(text)
    lines.append(
        f"({graph.tested_pairs} pairs tested, "
        f"{graph.independent_pairs} independent)"
    )
    for verdict in verdicts:
        lines.append(str(verdict))
    lines.append("")
    return "\n".join(lines)


def parse_source(data: bytes, stem: str):
    """Decode, parse, substitute scalars in and normalize one file."""
    return normalize_program(
        substitute_scalars_program(parse_program(data.decode("utf-8"), name=stem))
    )


class RoutineResult(NamedTuple):
    """One routine's analysis, wherever it ran."""

    name: str
    #: The rendered report; None when the routine crashed (quarantine).
    text: Optional[str]
    degraded: bool
    #: The crash, for the quarantine record.
    error: str = ""
    #: A worker's counters for this routine, not yet merged.
    stats: Optional[EngineStats] = None
    #: A worker's fresh ``(key, entry)`` verdicts, not yet written.
    records: Sequence[Tuple] = ()
    #: A worker's ``--strict`` abort, raised when the parent reaches it.
    abort: Optional[BaseException] = None


class FileResult(NamedTuple):
    """A pool worker's answer for one file."""

    #: Why the file did not parse (quarantine); empty when it did.
    error: str
    routines: List[RoutineResult]
    #: The worker's ``(rss, shed entries)`` when it was over the watermark.
    pressure: Optional[Tuple[float, int]] = None


def analyze_routine(engine: DependenceEngine, routine) -> RoutineResult:
    """Build, search and render one routine through ``engine``.

    Engine faults, and any crash under a strict policy, propagate (the
    CLI turns them into exit 3); other crashes come back as a
    quarantine result.
    """
    stats = engine.stats
    assumed_before = stats.assumed
    failures_before = len(stats.failures)
    try:
        faultinject.on_routine(routine.name)
        graph = engine.build_graph(routine.body)
        verdicts = find_parallel_loops(routine.body, engine.symbols, graph)
    except EngineFaultError:
        raise
    except Exception as exc:
        if engine.policy.strict:
            raise  # same contract as `analyze --strict`
        return RoutineResult(routine.name, None, False, describe_error(exc))
    degraded = (
        stats.assumed > assumed_before or len(stats.failures) > failures_before
    )
    return RoutineResult(
        routine.name, render_routine_report(routine.name, graph, verdicts), degraded
    )


@dataclass
class CorpusStats:
    """Walk-level counters for one streaming run (engine counters live
    in :class:`~repro.engine.stats.EngineStats` and are reported
    separately)."""

    files: int = 0
    files_replayed: int = 0
    files_quarantined: int = 0
    routines: int = 0
    analyzed: int = 0
    skipped: int = 0
    quarantined: int = 0
    pressure_events: int = 0
    shed_entries: int = 0
    #: Pool workers the walk started (0: it ran in-process).
    workers: int = 0
    elapsed: float = 0.0

    @property
    def skip_rate(self) -> float:
        """Fraction of routines replayed from the store (1.0 = no-op run)."""
        return self.skipped / self.routines if self.routines else 0.0

    @property
    def throughput(self) -> float:
        """Freshly analyzed routines per second of wall clock."""
        return self.analyzed / self.elapsed if self.elapsed > 0 else 0.0

    def summary_lines(self) -> List[str]:
        return [
            (
                f"corpus: files={self.files} replayed={self.files_replayed} "
                f"quarantined={self.files_quarantined}"
            ),
            (
                f"corpus: routines={self.routines} analyzed={self.analyzed} "
                f"skipped={self.skipped} quarantined={self.quarantined}"
            ),
            (
                f"corpus: elapsed={self.elapsed:.2f}s "
                f"throughput={self.throughput:.1f} routines/s "
                f"skip_rate={self.skip_rate:.2f} "
                f"pressure_events={self.pressure_events} "
                f"workers={self.workers}"
            ),
        ]


def current_rss_mb() -> Optional[float]:
    """Resident set size in MiB, or None when unknowable.

    ``REPRO_FAULTS=fake-rss:<mb>`` overrides the probe so pressure
    handling is testable without actually ballooning a process.
    """
    fake = faultinject.fake_rss()
    if fake is not None:
        return fake
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB; the probe only feeds a watermark comparison,
        # so peak-vs-current imprecision errs toward shedding earlier.
        return peak / 1024.0
    except Exception:
        return None


def relieve_pressure(
    driver, max_rss_mb: Optional[float]
) -> Optional[Tuple[float, int]]:
    """Shed ``driver``'s memory tiers when this process is over the
    watermark; returns ``(rss, shed entries)`` then, else None."""
    if max_rss_mb is None:
        return None
    rss = current_rss_mb()
    if rss is None or rss <= max_rss_mb:
        return None
    shed = driver.shed_memory()
    gc.collect()
    return rss, shed


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# -- the pool worker ----------------------------------------------------------


class _FreshRecords:
    """A pool worker's stand-in for the verdict store.

    The worker's driver writes fresh verdicts through to it as it would
    to a store; the parent writes them to the real one.  Reads always
    miss: a worker answers from its own memory tier.
    """

    events = ()

    def __init__(self):
        self.records: List[Tuple] = []

    def get(self, key):
        return None

    def put(self, key, entry) -> None:
        self.records.append((key, entry))


class _PoolWorker:
    """A worker process's engine, rebuilt from the caller's settings."""

    def __init__(self, settings: dict, max_rss_mb: Optional[float]):
        self.sink = _FreshRecords()
        self.engine = DependenceEngine(store=self.sink, **settings)
        self.profile = settings["profile"]
        self.max_rss_mb = max_rss_mb

    def analyze(self, stem: str, data: bytes) -> FileResult:
        driver = self.engine.driver
        try:
            program = parse_source(data, stem)
        except Exception as exc:
            return FileResult(
                describe_error(exc), [], relieve_pressure(driver, self.max_rss_mb)
            )
        routines = []
        for routine in program.routines:
            # Counters and records per routine, so the parent can drop a
            # routine it replays from its store instead.
            driver.stats = EngineStats(
                profile=PhaseProfile() if self.profile else None
            )
            self.sink.records = []
            try:
                result = analyze_routine(self.engine, routine)
            except Exception as exc:  # --strict: raised when the parent gets here
                result = RoutineResult(routine.name, None, False, abort=exc)
            driver.stats.store_writes = 0  # the parent counts its own writes
            routines.append(
                result._replace(stats=driver.stats, records=self.sink.records)
            )
        return FileResult("", routines, relieve_pressure(driver, self.max_rss_mb))


_WORKER: Optional[_PoolWorker] = None


def _start_worker(settings: dict, max_rss_mb: Optional[float]) -> None:
    """Pool initializer: follow the parent out, then build the engine."""
    import atexit
    import multiprocessing

    # Exit without tearing the interpreter down: freeing a worker's
    # caches object by object takes longer than its last batch.  Its
    # results are sent by then and it holds no store.
    atexit.register(os._exit, 0)
    parent = multiprocessing.parent_process()
    if parent is not None:
        threading.Thread(
            target=_exit_with_parent, args=(parent.sentinel,), daemon=True
        ).start()
    global _WORKER
    _WORKER = _PoolWorker(settings, max_rss_mb)


def _exit_with_parent(sentinel: int) -> None:
    # A worker blocks on a call-queue pipe whose write end it holds
    # itself, so it never sees EOF there; the parent's sentinel closes
    # whenever the parent dies, including by os._exit or SIGKILL.
    from multiprocessing.connection import wait

    wait([sentinel])
    os._exit(1)


def _analyze_files(jobs: List[Tuple[str, bytes]]) -> List[FileResult]:
    """Pool task: analyze a batch of ``(stem, source bytes)`` files."""
    return [_WORKER.analyze(stem, data) for stem, data in jobs]


# -- the walk -------------------------------------------------------------------


class _FileJob:
    """One walked file, read ahead of its turn to print."""

    __slots__ = ("rel", "data", "error", "ftoken", "future", "slot")

    def __init__(self, rel: PurePosixPath):
        self.rel = rel
        #: Source bytes; None when unreadable or expected to replay.
        self.data: Optional[bytes] = None
        self.error: Optional[str] = None
        self.ftoken = ""
        #: The pool task analyzing it, and its index in that batch.
        self.future = None
        self.slot = 0


class StreamingCorpusRunner:
    """One streaming pass over a source tree (see module docstring).

    Owns the walk and the report stream; borrows ``engine`` (and its
    attached store) from the caller, who closes both.  ``out`` receives
    the byte-identity surface — file headers and routine reports —
    and nothing else; summaries and fault reports go to ``err``.
    """

    def __init__(
        self,
        root: Path,
        engine: DependenceEngine,
        out: Optional[TextIO] = None,
        err: Optional[TextIO] = None,
        rebuild: bool = False,
        max_rss_mb: Optional[float] = None,
    ):
        self.root = Path(root)
        self.engine = engine
        self.out = out if out is not None else sys.stdout
        self.err = err if err is not None else sys.stderr
        self.rebuild = rebuild
        self.max_rss_mb = max_rss_mb
        self.stats = CorpusStats()
        self._pressure_reported = False
        self._walk = iter(())
        #: Files read ahead of the one printing, in walk order.
        self._ahead: "deque[_FileJob]" = deque()
        self._pool = None
        self._window = 0
        #: Pending files not yet sent to the pool.
        self._batch: List[_FileJob] = []
        #: The last worker's pressure reading, for :meth:`_check_pressure`.
        self._worker_relief: Optional[Tuple[float, int]] = None

    # -- store plumbing --------------------------------------------------
    #
    # All store access goes through ``engine.driver.persist`` (the *live*
    # handle): when a write fails the driver degrades to memory-only and
    # the walk keeps streaming fresh analysis without caching.

    def _store(self):
        return self.engine.driver.persist

    def _get_report(self, token: str):
        store = self._store()
        if store is None or self.rebuild:
            return None
        try:
            return store.get_report(token)
        except Exception:
            return None

    def _put_report(self, token: str, value: object) -> None:
        store = self._store()
        if store is None:
            return
        try:
            store.put_report(token, value)
        except Exception as exc:  # lock starvation, ENOSPC, injected faults
            self.engine.driver._degrade_store(exc)

    def _write_records(self, records: Sequence[Tuple]) -> None:
        """Write a worker's fresh verdicts through this process's store,
        skipping any the store already holds, as an in-process lookup
        would have found them."""
        driver = self.engine.driver
        for key, entry in records:
            store = driver.persist
            if store is None:
                return
            if store.get(key) is None:
                driver._persist_entry(key, entry)

    # -- fault isolation -------------------------------------------------

    def _quarantine_file(self, rel: PurePosixPath, error: str) -> None:
        self.stats.files_quarantined += 1
        self.engine.stats.record_failure(
            FailureRecord("file", rel.as_posix(), error)
        )

    def _quarantine_routine(self, rel: PurePosixPath, name: str, error: str) -> None:
        self.stats.quarantined += 1
        self.engine.stats.record_failure(
            FailureRecord("routine", f"{rel.as_posix()}:{name}", error)
        )

    def _check_pressure(self, rel: PurePosixPath) -> None:
        readings = [
            reading
            for reading in (
                relieve_pressure(self.engine.driver, self.max_rss_mb),
                self._worker_relief,
            )
            if reading is not None
        ]
        self._worker_relief = None
        if not readings:
            return
        rss = max(mb for mb, _ in readings)
        shed = sum(entries for _, entries in readings)
        self.stats.pressure_events += 1
        self.stats.shed_entries += shed
        if not self._pressure_reported:
            self._pressure_reported = True
            self.engine.stats.record_failure(
                FailureRecord(
                    "pressure",
                    f"corpus:{rel.as_posix()}",
                    (
                        f"rss {rss:.0f} MiB over {self.max_rss_mb:.0f} MiB "
                        f"watermark; shed {shed} cached entr(ies) and "
                        "throttled streaming"
                    ),
                )
            )

    # -- the walk --------------------------------------------------------

    def run(self) -> CorpusStats:
        start = time.perf_counter()
        files = walk_tree(self.root)
        self.stats.files = len(files)
        self._walk = iter(files)
        self._start_pool()
        try:
            for rel in files:
                faultinject.on_corpus_file(rel.as_posix())
                self.out.write(f"== file {rel.as_posix()} ==\n")
                self._run_file(rel)
                self.engine.driver.flush()
                self._check_pressure(rel)
        finally:
            self._stop_pool()
        self.stats.elapsed = time.perf_counter() - start
        return self.stats

    def _run_file(self, rel: PurePosixPath) -> None:
        job = self._take()
        if job.error is None and self._replay_file(job.ftoken):
            return
        if job.error is None and job.data is None:
            job = self._read(rel)  # read ahead as a replay that no longer holds
        if job.error is not None:
            self._quarantine_file(rel, job.error)
            return
        result = self._worker_result(job)
        if result is None:
            try:
                program = parse_source(job.data, rel.stem)
            except Exception as exc:
                self._quarantine_file(rel, describe_error(exc))
                return
            routines = program.routines
            names = [routine.name for routine in routines]

            def analyzed(ordinal: int) -> RoutineResult:
                return analyze_routine(self.engine, routines[ordinal])

        else:
            self._worker_relief = result.pressure
            if result.error:
                self._quarantine_file(rel, result.error)
                return
            names = [routine.name for routine in result.routines]

            def analyzed(ordinal: int) -> RoutineResult:
                return self._absorb(result.routines[ordinal])

        self._emit_routines(rel, job, names, analyzed)

    def _emit_routines(
        self, rel: PurePosixPath, job: _FileJob, names, analyzed
    ) -> None:
        """Print one file's routines in order: stored ones from the store,
        the rest from ``analyzed(ordinal)``, which is only asked for
        routines the store does not hold."""
        digest = hashlib.sha256(job.data).hexdigest()
        tokens: List[str] = []
        clean = True
        for ordinal, name in enumerate(names):
            self.stats.routines += 1
            rtoken = routine_token(digest, ordinal, name)
            cached = self._get_report(rtoken)
            if isinstance(cached, str):
                self.out.write(cached)
                self.stats.skipped += 1
                tokens.append(rtoken)
                continue
            result = analyzed(ordinal)
            if result.text is None:
                self._quarantine_routine(rel, name, result.error)
                clean = False
                continue
            self.out.write(result.text)
            self.stats.analyzed += 1
            if result.degraded:
                clean = False
            else:
                self._put_report(rtoken, result.text)
                tokens.append(rtoken)
        # The file record is the wholesale-skip fast path; withhold it
        # unless every routine produced a healthy, persisted report.
        if clean and tokens and len(tokens) == len(names):
            self._put_report(job.ftoken, {"routines": tokens})

    def _absorb(self, result: RoutineResult) -> RoutineResult:
        """Take over a worker's routine: its counters, its fresh verdicts
        and its abort.  A store write failing here degrades the report,
        as it would have during in-process analysis."""
        stats = self.engine.stats
        stats.merge(result.stats)
        failures_before = len(stats.failures)
        self._write_records(result.records)
        if result.abort is not None:
            raise result.abort
        if len(stats.failures) > failures_before:
            return result._replace(degraded=True)
        return result

    def _replay_file(self, ftoken: str) -> bool:
        """Emit a whole unchanged file from its stored reports."""
        entry = self._get_report(ftoken)
        if not isinstance(entry, dict):
            return False
        texts = []
        for rtoken in entry.get("routines", ()):
            text = self._get_report(rtoken)
            if not isinstance(text, str):
                return False  # partial store: fall back to analysis
            texts.append(text)
        for text in texts:
            self.out.write(text)
        self.stats.files_replayed += 1
        self.stats.routines += len(texts)
        self.stats.skipped += len(texts)
        return True

    # -- reading ahead and the pool ----------------------------------------

    def _read(self, rel: PurePosixPath) -> _FileJob:
        job = _FileJob(rel)
        try:
            job.data = (self.root / Path(rel)).read_bytes()
        except OSError as exc:
            job.error = describe_error(exc)
        else:
            job.ftoken = file_token(job.data)
        return job

    def _scan(self) -> Optional[_FileJob]:
        """Read the next walked file ahead of its turn (None: walk done)."""
        rel = next(self._walk, None)
        if rel is None:
            return None
        job = self._read(rel)
        self._ahead.append(job)
        return job

    def _pending(self, job: _FileJob) -> bool:
        """Whether a file read ahead needs analysis.  A file with a stored
        file record is expected to replay and keeps only its token, so
        reading ahead over a warm tree holds no source."""
        if job.error is None and not isinstance(self._get_report(job.ftoken), dict):
            return True
        job.data = None
        return False

    def _take(self) -> _FileJob:
        """The next file in walk order, read now or earlier."""
        if self._pool is not None:
            self._fill()
        if not self._ahead:
            self._scan()
        job = self._ahead.popleft()
        if self._batch and self._batch[0] is job:
            self._submit()
        return job

    def _start_pool(self) -> None:
        """Start the worker pool when the pending source repays it.

        Reads ahead until the pending bytes would occupy every usable
        CPU or the walk ends; a smaller walk keeps what it read for the
        in-process path.
        """
        cpus = usable_cpus()
        if cpus < 2:
            return
        pending: List[_FileJob] = []
        size = 0
        while size < cpus * POOL_MIN_BYTES:
            job = self._scan()
            if job is None:
                break
            if self._pending(job):
                pending.append(job)
                size += len(job.data)
        workers = min(cpus, size // POOL_MIN_BYTES)
        if workers < 2:
            return
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        self._pool = ProcessPoolExecutor(
            workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_start_worker,
            initargs=(self.engine.settings(), self.max_rss_mb),
        )
        self.stats.workers = workers
        self._window = POOL_WINDOW * workers
        for job in pending:
            self._queue(job)
        self._submit()

    def _fill(self) -> None:
        """Read ahead up to the window, queuing pending files."""
        while len(self._ahead) < self._window:
            job = self._scan()
            if job is None:
                self._submit()  # the walk is done: send the last batch
                return
            if self._pending(job):
                self._queue(job)

    def _queue(self, job: _FileJob) -> None:
        self._batch.append(job)
        if len(self._batch) >= POOL_BATCH:
            self._submit()

    def _submit(self) -> None:
        batch, self._batch = self._batch, []
        if not batch or self._pool is None:
            return
        from concurrent.futures.process import BrokenProcessPool

        try:
            future = self._pool.submit(
                _analyze_files, [(job.rel.stem, job.data) for job in batch]
            )
        except BrokenProcessPool as exc:
            self._break_pool(batch[0].rel, exc)
            return
        for slot, job in enumerate(batch):
            job.future, job.slot = future, slot

    def _worker_result(self, job: _FileJob) -> Optional[FileResult]:
        """The pool's answer for ``job`` (None: analyze it in-process)."""
        if job.future is None:
            return None
        from concurrent.futures.process import BrokenProcessPool

        try:
            return job.future.result()[job.slot]
        except BrokenProcessPool as exc:
            self._break_pool(job.rel, exc)
            return None

    def _break_pool(self, rel: PurePosixPath, exc: BaseException) -> None:
        """Record a broken pool once and finish the walk in-process."""
        self.engine.stats.record_failure(
            FailureRecord(
                "pool",
                f"corpus:{rel.as_posix()}",
                f"{describe_error(exc)}; finished the walk in-process",
            )
        )
        self._stop_pool()
        for job in self._ahead:
            job.future = None

    def _stop_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


def stream_corpus(
    root: Path,
    engine: DependenceEngine,
    out: Optional[TextIO] = None,
    err: Optional[TextIO] = None,
    rebuild: bool = False,
    max_rss_mb: Optional[float] = None,
) -> CorpusStats:
    """Convenience wrapper: run one streaming pass and return its stats."""
    runner = StreamingCorpusRunner(
        root, engine, out=out, err=err, rebuild=rebuild, max_rss_mb=max_rss_mb
    )
    return runner.run()
