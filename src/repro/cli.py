"""Command-line interface: ``repro-deps`` / ``python -m repro``.

Subcommands:

* ``analyze FILE`` — parse a Fortran file and print its dependence graph,
  parallel-loop verdicts, and transformation suggestions.
* ``study`` — regenerate the paper's tables over the corpus
  (``--table 1|2|3`` for a single table, default all).
* ``corpus [list]`` — list the corpus suites and programs.
* ``corpus run TREE`` — stream-analyze every Fortran source under a
  directory tree: per-routine content tokens skip unchanged work, a
  killed run resumes where it left off, and malformed files or crashed
  routines quarantine without stopping the walk.
* ``store {info,verify,compact}`` — inspect, check, or compact a
  persistent verdict store created with ``--store``.

``analyze``, ``study``, ``serve`` and ``corpus run`` accept ``--store
PATH``: write-through crash-safe verdict persistence in a directory
holding one segment, which any number of concurrent processes may
share.  ``analyze`` and ``study`` checkpoint after every routine, so
rerunning a killed ``--store`` run serves every pair it finished from
the store and prints output byte-identical to an uninterrupted run.  A
``--store`` path that exists but is not a store directory (an ordinary
file, or a directory that is neither empty nor holds ``store.seg``) is
refused (exit 4) and left untouched.

Exit codes: 0 — success (including degraded runs that assumed some
verdicts after absorbed faults; a fault report is printed); 1 — input
file unreadable; 2 — Fortran syntax error (a diagnostic with line,
column, and caret is printed, never a traceback) or bad command line;
3 — ``--strict`` run aborted on the first engine fault; 4 — verdict
store unusable (unreadable path, or a path that is not a store
directory) or ``store verify`` found unrecoverable corruption.
Store failures during a run (lock starvation, an unwritable segment,
``ENOSPC``) do *not* change the exit code: the store is detached, the
run continues memory-only, and the fault report says so.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import List, Optional

from repro.corpus.loader import (
    available_programs,
    available_suites,
    default_symbols,
)
from repro.engine import (
    DependenceEngine,
    EngineFaultError,
    FaultPolicy,
    StoreError,
    VerdictStore,
)
from repro.engine.faults import FailureRecord, describe_error
from repro.fortran.errors import FortranSyntaxError
from repro.instrument import TestRecorder
from repro.pipeline import analyze_routine, parse_source, render_routine

#: Exit code for a Fortran syntax error in the input file.
EXIT_SYNTAX_ERROR = 2

#: Exit code for a ``--strict`` run aborted by an engine fault.
EXIT_STRICT_FAULT = 3

#: Exit code for an unusable verdict store (lock, I/O) or a failed
#: ``store verify``.
EXIT_STORE_ERROR = 4


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-deps",
        description="Practical Dependence Testing (PLDI 1991) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze a Fortran file")
    analyze.add_argument("file", type=Path)
    analyze.add_argument(
        "--transforms", action="store_true",
        help="also report peeling/splitting suggestions",
    )
    analyze.add_argument(
        "--counts", action="store_true", help="print per-test application counts"
    )
    analyze.add_argument(
        "--no-cache", action="store_true",
        help="disable the canonical-pair verdict cache",
    )
    analyze.add_argument(
        "--profile", action="store_true",
        help="print per-phase and per-test-tier wall timings",
    )
    analyze.add_argument(
        "--strict", action="store_true",
        help="abort on the first engine fault instead of degrading to "
        "assumed-dependence verdicts (exit code 3)",
    )
    analyze.add_argument(
        "--store", type=Path, default=None, metavar="PATH",
        help="persist verdicts to a crash-safe store at "
        "PATH (created if missing; reused entries skip re-testing)",
    )

    study = sub.add_parser("study", help="regenerate the paper's tables")
    study.add_argument("--table", type=int, choices=(1, 2, 3), default=None)
    study.add_argument("--suite", action="append", default=None)
    study.add_argument(
        "--strict", action="store_true",
        help="abort on the first engine fault instead of skipping the "
        "affected pair or routine (exit code 3)",
    )
    study.add_argument(
        "--store", type=Path, default=None, metavar="PATH",
        help="persist verdicts to a crash-safe store at "
        "PATH (created if missing; reused entries skip re-testing)",
    )

    vector = sub.add_parser("vectorize", help="Allen-Kennedy vectorization")
    vector.add_argument("file", type=Path)

    serve = sub.add_parser(
        "serve", help="run the long-lived dependence-analysis service"
    )
    serve.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="bind address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="bind port; 0 picks an ephemeral one and prints it (default 0)",
    )
    serve.add_argument(
        "--store", type=Path, default=None, metavar="PATH",
        help="share a persistent verdict store across requests and restarts",
    )
    serve.add_argument(
        "--max-in-flight", type=int, default=4, metavar="N",
        help="concurrent analyses before requests queue (default 4)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=8, metavar="N",
        help="queued requests before new arrivals are shed with 503 "
        "(default 8)",
    )
    serve.add_argument(
        "--default-deadline-ms", type=float, default=None, metavar="MS",
        help="deadline applied to requests that carry none (default: "
        "unbounded)",
    )

    client = sub.add_parser(
        "client", help="send a Fortran file to a running analysis service"
    )
    client.add_argument("file", type=Path)
    client.add_argument(
        "--url", default="http://127.0.0.1:8077", metavar="URL",
        help="service endpoint (default http://127.0.0.1:8077)",
    )
    client.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="per-request analysis deadline; expiry returns conservative "
        "assumed-dependence results flagged degraded",
    )
    client.add_argument(
        "--transforms", action="store_true",
        help="also report peeling/splitting suggestions",
    )
    client.add_argument(
        "--retries", type=int, default=3, metavar="N",
        help="retry attempts for shed (503) or unreachable service "
        "(default 3)",
    )
    client.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the raw JSON response instead of the analyze-style text",
    )

    corpus = sub.add_parser(
        "corpus", help="list corpus suites or stream-analyze a source tree"
    )
    corpus_sub = corpus.add_subparsers(dest="corpus_command")
    corpus_sub.add_parser("list", help="list corpus suites and programs")
    corpus_run = corpus_sub.add_parser(
        "run", help="walk a directory tree of Fortran sources, analyzing "
        "each routine once per content version (incremental, resumable)"
    )
    corpus_run.add_argument("tree", type=Path)
    corpus_run.add_argument(
        "--strict", action="store_true",
        help="abort on the first engine fault instead of quarantining the "
        "affected routine (exit code 3)",
    )
    corpus_run.add_argument(
        "--store", type=Path, default=None, metavar="PATH",
        help="persist per-routine reports and verdicts at PATH; re-runs "
        "skip unchanged routines and killed runs resume where they "
        "left off",
    )
    corpus_run.add_argument(
        "--rebuild", action="store_true",
        help="ignore stored reports and re-analyze every routine "
        "(refreshes the store in place)",
    )
    corpus_run.add_argument(
        "--max-rss-mb", type=float, default=None, metavar="MB",
        help="memory watermark: over MB resident, drop the in-memory "
        "verdict cache instead of dying",
    )

    store = sub.add_parser(
        "store", help="inspect or maintain a persistent verdict store"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    for name, text in (
        ("info", "print store contents, last checkpoint, and what "
         "compaction would reclaim"),
        ("verify", "check every record, report per-recovery-rule drops; "
         "exit 4 on unrecoverable corruption"),
        ("compact", "rewrite the store, dropping superseded records"),
    ):
        store_sub.add_parser(name, help=text).add_argument("path", type=Path)

    args = parser.parse_args(argv)
    if args.command == "analyze":
        return _analyze(args)
    if args.command == "study":
        return _study(args)
    if args.command == "vectorize":
        return _vectorize(args)
    if args.command == "serve":
        return _serve(args)
    if args.command == "client":
        return _client(args)
    if args.command == "corpus":
        if getattr(args, "corpus_command", None) == "run":
            return _corpus_run(args)
        return _corpus()
    if args.command == "store":
        return _store(args)
    return 2


def _read_source(path: Path) -> Optional[str]:
    """Read a UTF-8 input file; on failure print a clean error and return None."""
    try:
        return path.read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or str(exc)
        print(f"repro-deps: cannot read '{path}': {reason}", file=sys.stderr)
        return None


def _read_program(path: Path):
    """Read an input file through the shared front end: ``(program,
    exit_code)``.

    ``program`` is None on failure; syntax errors print the front end's
    diagnostic (line, column, snippet, caret) instead of a traceback.
    """
    source = _read_source(path)
    if source is None:
        return None, 1
    try:
        return parse_source(source, path.stem), 0
    except FortranSyntaxError as exc:
        print(f"repro-deps: {path}:", file=sys.stderr)
        print(exc.diagnostic(), file=sys.stderr)
        return None, EXIT_SYNTAX_ERROR


def _strict_abort(exc: Exception) -> int:
    """Report a ``--strict`` abort: an engine fault, or a crash that a
    strict run does not quarantine."""
    reason = str(exc) if isinstance(exc, EngineFaultError) else describe_error(exc)
    print(f"repro-deps: aborted by --strict: {reason}", file=sys.stderr)
    return EXIT_STRICT_FAULT


def _open_store(path: Path) -> Optional[VerdictStore]:
    """Open (or create) a verdict store; on failure print and return None.

    Unreadable paths, an existing path that is not a store directory
    and I/O errors surface as one clean diagnostic — the caller maps
    None to :data:`EXIT_STORE_ERROR`.  Corrupt tails and schema
    mismatches do *not* fail: the store recovers them on open (printing
    what it dropped) by design, and a lock held past the retry schedule
    leaves a failed store that the engine detaches on first use, with
    one ``store`` failure record, rather than failing the run.
    """
    try:
        return VerdictStore(path)
    except (StoreError, OSError) as exc:
        print(f"repro-deps: cannot open store '{path}': {exc}", file=sys.stderr)
        return None


def _store(args: argparse.Namespace) -> int:
    """``repro-deps store {info,verify,compact}`` dispatcher."""
    path: Path = args.path
    if args.store_command == "verify":
        report = VerdictStore.scan(path)
        for line in report.lines():
            print(line)
        print(report.rule_report())
        return 0 if report.clean else EXIT_STORE_ERROR
    if args.store_command == "info":
        report = VerdictStore.scan(path)
        if report.size == 0 and report.problems:
            print(
                f"repro-deps: cannot read store '{path}': "
                f"{report.problems[0]}",
                file=sys.stderr,
            )
            return EXIT_STORE_ERROR
        for line in report.lines():
            print(line)
        print(report.compaction_line())
        return 0
    # compact
    store = _open_store(path)
    if store is None:
        return EXIT_STORE_ERROR
    try:
        result = store.compact()
    except (StoreError, OSError) as exc:
        store.close()
        print(f"repro-deps: compaction failed for '{path}': {exc}", file=sys.stderr)
        return EXIT_STORE_ERROR
    store.close()
    before, after = result
    print(
        f"compacted {path}: {before} -> {after} bytes "
        f"({len(store)} verdict(s), {store.report_count} report(s) kept)"
    )
    return 0


def _vectorize(args: argparse.Namespace) -> int:
    from repro.transform.vectorize import vectorize

    program, code = _read_program(args.file)
    if program is None:
        return code
    symbols = default_symbols()
    for routine in program.routines:
        print(f"== routine {routine.name} ==")
        report = vectorize(routine.body, symbols=symbols)
        for line in report.lines:
            print(line)
        print()
    return 0


def _analyze(args: argparse.Namespace) -> int:
    program, code = _read_program(args.file)
    if program is None:
        return code
    store = None
    if args.store is not None:
        if args.no_cache:
            print(
                "repro-deps: --store requires the verdict cache "
                "(drop --no-cache)",
                file=sys.stderr,
            )
            return EXIT_STORE_ERROR
        store = _open_store(args.store)
        if store is None:
            return EXIT_STORE_ERROR
    engine = DependenceEngine(
        symbols=default_symbols(),
        use_cache=not args.no_cache,
        profile=args.profile,
        policy=FaultPolicy.from_env(strict=args.strict),
        store=store,
    )
    recorder = TestRecorder()
    build = functools.partial(engine.build_graph, recorder=recorder)
    try:
        with engine:
            for routine in program.routines:
                entry = analyze_routine(engine, routine, build, args.transforms)
                if "error" in entry:
                    engine.stats.record_failure(
                        FailureRecord(
                            "routine",
                            f"{args.file.stem}/{routine.name}",
                            entry["error"],
                        )
                    )
                print(render_routine(entry), end="")
                # Per-routine durability barrier: a killed --store run
                # keeps every routine it printed.
                engine.driver.flush()
    except Exception as exc:
        if not (args.strict or isinstance(exc, EngineFaultError)):
            raise
        return _strict_abort(exc)
    finally:
        if store is not None:
            store.close()
    if args.counts:
        print("test applications:")
        print(recorder)
        if not args.no_cache:
            print(engine.stats)
    if args.profile and engine.profile is not None:
        print(engine.profile)
    if engine.stats.degraded:
        print(engine.stats.failure_report())
    return 0


def _study(args: argparse.Namespace) -> int:
    from repro.study.report import full_report
    from repro.study.tables import render_table1, render_table2, render_table3

    if args.table == 1:
        print(render_table1())
        return 0
    if args.table == 2:
        print(render_table2())
        return 0
    store = None
    if args.store is not None:
        store = _open_store(args.store)
        if store is None:
            return EXIT_STORE_ERROR
    engine = DependenceEngine(
        symbols=default_symbols(),
        policy=FaultPolicy.from_env(strict=args.strict),
        store=store,
    )
    try:
        with engine:
            if args.table == 3:
                from repro.study.tables import table3

                print(render_table3(table3(args.suite, engine=engine)))
                if engine.stats.degraded:
                    print()
                    print(engine.stats.failure_report())
            else:
                print(full_report(args.suite, engine=engine))
    except EngineFaultError as exc:
        return _strict_abort(exc)
    finally:
        if store is not None:
            store.close()
    return 0


def _serve(args: argparse.Namespace) -> int:
    """Run the analysis service until SIGTERM/SIGINT drains it."""
    from repro.service.server import ServiceConfig, run_service

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        store_path=args.store,
        max_in_flight=args.max_in_flight,
        queue_depth=args.queue_depth,
        default_deadline_ms=args.default_deadline_ms,
        policy=FaultPolicy.from_env(),
    )

    def banner(service) -> None:
        print(
            f"repro-deps: serving on http://{config.host}:{service.port} "
            f"(store={config.store_path or 'none'})",
            flush=True,
        )

    try:
        return run_service(config, banner=banner)
    except (StoreError, OSError, ValueError) as exc:
        print(f"repro-deps: cannot start service: {exc}", file=sys.stderr)
        return EXIT_STORE_ERROR


def _client(args: argparse.Namespace) -> int:
    """Send one file to a running service; prints ``analyze``'s text.

    Exit codes follow ``analyze``: 0 for ok *and* degraded answers (the
    degradation report is printed), 1 for an unreadable input file, 2
    for a syntax error (the server's diagnostic is printed), 4 when the
    service is unreachable or still shedding after every retry.
    """
    import json as _json

    from repro.service.client import (
        ServiceClient,
        ServiceError,
        ServiceUnavailable,
    )
    from repro.service.protocol import render_analysis

    source = _read_source(args.file)
    if source is None:
        return 1
    client = ServiceClient(args.url, retries=max(args.retries, 0))
    try:
        payload = client.analyze(
            source,
            name=args.file.stem,
            deadline_ms=args.deadline_ms,
            transforms=args.transforms,
        )
    except ServiceUnavailable as exc:
        print(f"repro-deps: {exc}", file=sys.stderr)
        return EXIT_STORE_ERROR
    except ServiceError as exc:
        if exc.status == 422:
            print(f"repro-deps: {args.file}:", file=sys.stderr)
            print(
                exc.payload.get("detail", str(exc)), file=sys.stderr
            )
            return EXIT_SYNTAX_ERROR
        print(f"repro-deps: service error: {exc}", file=sys.stderr)
        return EXIT_STORE_ERROR
    if args.as_json:
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_analysis(payload), end="")
    return 0


def _corpus() -> int:
    for suite in available_suites():
        programs = ", ".join(available_programs(suite))
        print(f"{suite}: {programs}")
    return 0


def _corpus_run(args: argparse.Namespace) -> int:
    """``repro-deps corpus run <tree>`` — the streaming corpus driver.

    Exit codes follow ``analyze``: 0 for complete *and* degraded walks
    (quarantines and pressure events print as a fault report), 1 for an
    unusable tree, 3 on a --strict abort, 4 for an unusable store.
    """
    from repro.corpus.stream import StreamingCorpusRunner

    tree: Path = args.tree
    if not tree.is_dir():
        print(f"repro-deps: '{tree}' is not a directory", file=sys.stderr)
        return 1
    store = None
    if args.store is not None:
        store = _open_store(args.store)
        if store is None:
            return EXIT_STORE_ERROR
    engine = DependenceEngine(
        symbols=default_symbols(),
        policy=FaultPolicy.from_env(strict=args.strict),
        store=store,
    )
    runner = StreamingCorpusRunner(
        tree,
        engine,
        rebuild=args.rebuild,
        max_rss_mb=args.max_rss_mb,
    )
    try:
        with engine:
            stats = runner.run()
    except Exception as exc:
        if not (args.strict or isinstance(exc, EngineFaultError)):
            raise
        if store is not None:
            store.close()
        return _strict_abort(exc)
    for line in stats.summary_lines():
        print(line, file=sys.stderr)
    print(engine.stats.provenance_report(), file=sys.stderr)
    if engine.stats.degraded:
        print(engine.stats.failure_report(), file=sys.stderr)
    if store is not None:
        store.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
