"""The long-running dependence-analysis service.

``repro-deps serve`` turns the engine into a resident process: one warm
:class:`~repro.engine.engine.DependenceEngine` — interning pools, the
LRU verdict cache, a shared persistent store — serves every
request, so the corpus-wide hit rate the paper's empirical argument
rests on accumulates across *clients*, not just within one CLI
invocation.

The server is a small hand-rolled HTTP/1.1 front end over ``asyncio``
(stdlib only, one reason this module exists at all), with the robustness
machinery layered around the engine seam:

* **Deadlines** — each request's ``deadline_ms`` becomes a
  :class:`~repro.engine.faults.Deadline` installed on the driver for the
  request's builds; pairs starting after expiry degrade O(1) to assumed
  dependence, so a timed-out request returns a *complete, conservative*
  graph flagged ``degraded`` — never a spurious independence, and (via a
  second, asyncio-side watchdog) never a hung connection.
* **Admission control** — an :class:`~repro.service.limiter.AdmissionLimiter`
  bounds in-flight work and queue depth; overflow is shed with ``503``
  and ``Retry-After``.
* **Coalescing** — concurrent requests for the same canonical body share
  one analysis; duplicates cost no admission slot.
* **Store reopen** — a store failure (lock starvation, an unwritable
  segment, ``ENOSPC``) makes the driver detach the store, and the
  service runs memory-only; the first request that starts
  :data:`STORE_REOPEN_SECONDS` after the detach reopens the store from
  its path, and a failed open restarts the wait.  ``/healthz`` reports
  the store's mode and its detach and reopen counts.
* **Graceful shutdown** — SIGTERM/SIGINT stop accepting work (new
  requests get ``503``), drain in-flight requests, checkpoint the store,
  and exit cleanly.

One invariant ties the layers together: the event loop thread never
acquires ``engine.serve_lock``.  A handler thread holds that lock for a
whole build, so a loop-side acquire would let one stuck build stall
every response — including the watchdog answer for the very request
that is stuck.  The store reopen therefore runs on an analysis thread,
and ``/stats`` serves a snapshot the last analysis took.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
import json
import signal
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.corpus.loader import default_symbols
from repro.engine import faultinject
from repro.engine.engine import DependenceEngine
from repro.engine.faults import (
    DEFAULT_POLICY,
    Deadline,
    FailureRecord,
    FaultPolicy,
)
from repro.engine.stats import EngineStats
from repro.engine.store import StoreError, VerdictStore
from repro.fortran.errors import FortranSyntaxError
from repro.instrument import TestRecorder
from repro.pipeline import analyze_routine, parse_source
from repro.service.limiter import AdmissionLimiter
from repro.service.protocol import (
    MAX_BODY_BYTES,
    AnalyzeRequest,
    ProtocolError,
    analysis_payload,
    error_payload,
)

#: Seconds the service runs memory-only after the driver detached a
#: failed store before a request reopens it.
STORE_REOPEN_SECONDS = 2.0


class _BadRequest(Exception):
    """A request malformed below the JSON layer (e.g. bad Content-Length)."""


#: Reasons phrase for the HTTP status line.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class ServiceConfig:
    """Everything ``repro-deps serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = 0
    store_path: Optional[Path] = None
    max_in_flight: int = 4
    queue_depth: int = 8
    #: Applied when a request carries no ``deadline_ms``; None = unbounded.
    default_deadline_ms: Optional[float] = None
    #: Extra wall time the asyncio watchdog grants past the engine
    #: deadline before answering for a stuck handler thread.
    watchdog_grace: float = 2.0
    #: Watchdog bound for requests with no deadline at all.
    max_request_seconds: float = 300.0
    #: How long shutdown waits for in-flight requests to drain.
    drain_timeout: float = 30.0
    policy: FaultPolicy = field(default_factory=lambda: DEFAULT_POLICY)


@dataclass
class ServiceStats:
    """Service-level counters (the engine keeps the analysis ones)."""

    requests: int = 0
    ok: int = 0
    degraded: int = 0
    shed: int = 0
    coalesced: int = 0
    watchdog_timeouts: int = 0
    bad_requests: int = 0
    syntax_errors: int = 0
    internal_errors: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "requests": self.requests,
            "ok": self.ok,
            "degraded": self.degraded,
            "shed": self.shed,
            "coalesced": self.coalesced,
            "watchdog_timeouts": self.watchdog_timeouts,
            "bad_requests": self.bad_requests,
            "syntax_errors": self.syntax_errors,
            "internal_errors": self.internal_errors,
        }


class DependenceService:
    """One warm engine behind an asyncio HTTP front end."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.engine: Optional[DependenceEngine] = None
        self.stats = ServiceStats()
        self.limiter = AdmissionLimiter(
            config.max_in_flight, config.queue_depth
        )
        #: The analysis every duplicate of a request key shares.
        self._inflight: Dict[str, "asyncio.Task"] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._executor: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._draining = False
        self._stopped: Optional[asyncio.Event] = None
        self._tasks: set = set()
        self.port: Optional[int] = None
        #: When the service saw the driver's store detach (or its last
        #: reopen fail); None while the store is attached.  This and the
        #: two counts change only under ``engine.serve_lock``.
        self._store_detached_at: Optional[float] = None
        self.store_detaches = 0
        self.store_reopens = 0
        #: ``engine.stats.as_dict()`` captured under the serve lock by
        #: the most recently completed analysis; ``/stats`` serves this
        #: snapshot so the loop never blocks on an in-progress build.
        self._engine_snapshot: Optional[Dict[str, Any]] = None
        self._started_at = time.monotonic()

    # -- lifecycle --------------------------------------------------------

    def _open_engine(self) -> None:
        config = self.config
        store = None
        if config.store_path is not None:
            store = VerdictStore(config.store_path)
        self.engine = DependenceEngine(
            symbols=default_symbols(),
            store=store,
            policy=config.policy,
        )
        # Single-threaded at startup: safe to read without the lock.
        self._engine_snapshot = self.engine.stats.as_dict()

    async def start(self) -> None:
        """Open the engine and start listening; sets :attr:`port`."""
        self._stopped = asyncio.Event()
        self._open_engine()
        # One analysis per thread; sized to the admission bound so a slot
        # always has a thread (never queue inside the executor — admission
        # control is the only queue).
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.max_in_flight,
            thread_name_prefix="repro-analyze",
        )
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            family=socket.AF_INET,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (idempotent; loop required)."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(self.stop())
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass

    async def stop(self) -> None:
        """Drain in-flight work, checkpoint the store, release everything."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = [t for t in self._tasks if not t.done()]
        if pending:
            await asyncio.wait(
                pending, timeout=self.config.drain_timeout
            )
        engine, self.engine = self.engine, None
        if engine is not None:
            store = engine.store
            await asyncio.get_running_loop().run_in_executor(
                None, self._close_engine, engine, store
            )
        if self._executor is not None:
            self._executor.shutdown(wait=False)
        if self._stopped is not None:
            self._stopped.set()

    @staticmethod
    def _close_engine(engine: DependenceEngine, store: Optional[VerdictStore]) -> None:
        try:
            engine.close()
        finally:
            if store is not None and not store.closed:
                store.close()

    async def run(self) -> None:
        """Start, then block until a signal (or :meth:`stop`) finishes."""
        await self.start()
        self.install_signal_handlers()
        assert self._stopped is not None
        await self._stopped.wait()

    # -- HTTP plumbing ----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        try:
            request = await asyncio.wait_for(
                self._read_request(reader), timeout=15.0
            )
            if request is None:
                return
            method, path, body = request
            status, payload, headers = await self._route(method, path, body)
            await self._respond(writer, status, payload, headers)
        except (asyncio.TimeoutError, ConnectionError, asyncio.IncompleteReadError):
            pass
        except _BadRequest as exc:
            self.stats.bad_requests += 1
            try:
                await self._respond(
                    writer, 400, error_payload("bad request", str(exc)), {}
                )
            except Exception:
                pass
        except Exception as exc:  # pragma: no cover - last-resort guard
            self.stats.internal_errors += 1
            try:
                await self._respond(
                    writer, 500, error_payload("internal", str(exc)), {}
                )
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bytes]]:
        request_line = await reader.readline()
        if not request_line:
            return None
        try:
            method, target, _version = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            return None
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _BadRequest("malformed Content-Length header")
        if length < 0:
            raise _BadRequest("negative Content-Length header")
        if length > MAX_BODY_BYTES + 1024:
            # Read nothing further; the route layer answers 413.
            return method, target, b"\x00" * (MAX_BODY_BYTES + 1)
        body = await reader.readexactly(length) if length else b""
        return method, target, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        headers: Dict[str, str],
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        lines.extend(f"{k}: {v}" for k, v in headers.items())
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        if path == "/analyze":
            if method != "POST":
                return 405, error_payload("method not allowed"), {}
            return await self._analyze_route(body)
        if path == "/healthz":
            if method != "GET":
                return 405, error_payload("method not allowed"), {}
            return 200, self.health_payload(), {}
        if path == "/stats":
            if method != "GET":
                return 405, error_payload("method not allowed"), {}
            return 200, self.stats_payload(), {}
        return 404, error_payload("not found", path), {}

    # -- the analyze pipeline ---------------------------------------------

    async def _analyze_route(
        self, body: bytes
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        self.stats.requests += 1
        if self._draining or self.engine is None:
            return (
                503,
                error_payload("draining", "server is shutting down"),
                {"Retry-After": "5"},
            )
        if len(body) > MAX_BODY_BYTES:
            self.stats.bad_requests += 1
            return 413, error_payload("payload too large"), {}
        try:
            request = AnalyzeRequest.from_body(body)
        except ProtocolError as exc:
            self.stats.bad_requests += 1
            return 400, error_payload("bad request", str(exc)), {}

        deadline_ms = request.deadline_ms
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        wait_budget = (
            deadline_ms / 1000.0 + self.config.watchdog_grace
            if deadline_ms is not None
            else self.config.max_request_seconds
        )

        key = request.coalesce_key()
        shared = self._inflight.get(key)
        if shared is not None and not shared.done():
            # Coalesce: ride the in-flight analysis, consuming no slot.
            self.stats.coalesced += 1
            return await self._await_analysis(shared, request, wait_budget)

        # Shed before queueing when saturated beyond both bounds.
        admitted = await self.limiter.acquire()
        if not admitted:
            self.stats.shed += 1
            return (
                503,
                error_payload("overloaded", "try again later"),
                {"Retry-After": f"{self.limiter.retry_after():g}"},
            )
        if self._draining or self.engine is None:
            self.limiter.release()
            return (
                503,
                error_payload("draining", "server is shutting down"),
                {"Retry-After": "5"},
            )

        task = asyncio.ensure_future(self._run_analysis(request, deadline_ms))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        self._inflight[key] = task

        def _cleanup(done: "asyncio.Task", key=key) -> None:
            if self._inflight.get(key) is done:
                del self._inflight[key]
            self.limiter.release()

        task.add_done_callback(_cleanup)
        return await self._await_analysis(task, request, wait_budget)

    async def _await_analysis(
        self,
        task: "asyncio.Task",
        request: AnalyzeRequest,
        wait_budget: float,
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """Wait for a (possibly shared) analysis, bounded by the watchdog.

        The task is shielded: a watchdog timeout answers *this* client
        conservatively without cancelling the shared computation, which
        keeps filling the cache for coalesced waiters and future requests.
        """
        try:
            status, payload = await asyncio.wait_for(
                asyncio.shield(task), timeout=wait_budget
            )
        except asyncio.TimeoutError:
            self.stats.watchdog_timeouts += 1
            self.stats.degraded += 1
            return (
                200,
                {
                    "status": "degraded",
                    "name": request.name,
                    "degraded": True,
                    "watchdog_timeout": True,
                    "routines": [],
                    "failures": [
                        {
                            "kind": "deadline",
                            "where": request.name,
                            "error": "request exceeded its deadline before "
                            "analysis completed; no partial graph available",
                        }
                    ],
                },
                {},
            )
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self.stats.internal_errors += 1
            return 500, error_payload("internal", str(exc)), {}
        if status == 200:
            if payload.get("degraded"):
                self.stats.degraded += 1
            else:
                self.stats.ok += 1
        elif status == 422:
            self.stats.syntax_errors += 1
        return status, dict(payload), {}

    async def _run_analysis(
        self, request: AnalyzeRequest, deadline_ms: Optional[float]
    ) -> Tuple[int, Dict[str, Any]]:
        """Run one analysis in the executor."""
        engine = self.engine
        assert engine is not None and self._executor is not None
        try:
            return await asyncio.get_running_loop().run_in_executor(
                self._executor,
                self._analyze_sync,
                engine,
                request,
                deadline_ms,
            )
        except Exception as exc:
            self.stats.internal_errors += 1
            return 500, error_payload("internal", str(exc))

    def _analyze_sync(
        self,
        engine: DependenceEngine,
        request: AnalyzeRequest,
        deadline_ms: Optional[float],
    ) -> Tuple[int, Dict[str, Any]]:
        """The blocking analysis body (runs on an executor thread).

        Returns ``(http_status, payload)``.
        """
        # Only a detached store needs the lock here: taking it on every
        # request would queue each parse behind whatever build is running.
        if self.config.store_path is not None and engine.store is None:
            with engine.serve_lock:
                self._reopen_store(engine)
        started = time.perf_counter()
        faultinject.on_request()
        deadline = (
            Deadline(deadline_ms / 1000.0) if deadline_ms is not None else None
        )
        try:
            program = parse_source(request.source, request.name)
        except FortranSyntaxError as exc:
            return 422, error_payload("syntax error", exc.diagnostic())
        stats = EngineStats()
        recorder = TestRecorder()
        build = functools.partial(
            engine.serve_build,
            recorder=recorder,
            include_input=request.include_input,
            deadline=deadline,
            stats=stats,
        )
        routines = []
        for routine in program.routines:
            entry = analyze_routine(engine, routine, build, request.transforms)
            if "error" in entry:
                record = FailureRecord(
                    "routine", f"{request.name}/{routine.name}", entry["error"]
                )
                stats.record_failure(record)
                with engine.serve_lock:
                    engine.stats.record_failure(record)
            routines.append(entry)
        payload = analysis_payload(
            request, routines, stats, recorder, time.perf_counter() - started
        )
        with engine.serve_lock:
            self._note_store_detach(engine)
            self._engine_snapshot = engine.stats.as_dict()
        return 200, payload

    # -- the store --------------------------------------------------------

    def _note_store_detach(self, engine: DependenceEngine) -> None:
        """Start the reopen wait when the driver has dropped the store.

        The driver detaches a failing store itself (see
        :meth:`~repro.engine.cache.CachedDriver._degrade_store`), so the
        service learns of it by looking.  Caller holds ``serve_lock``.
        """
        if (
            self.config.store_path is not None
            and engine.store is None
            and self._store_detached_at is None
        ):
            self._store_detached_at = time.monotonic()
            self.store_detaches += 1

    def _reopen_store(self, engine: DependenceEngine) -> None:
        """Reattach the store once it has been detached long enough.

        A failed open restarts the wait: one that raises, or one that
        returns a store already failed (lock starvation or an I/O error
        at open).  Caller holds ``serve_lock``.
        """
        self._note_store_detach(engine)
        detached_at = self._store_detached_at
        if detached_at is None or time.monotonic() - detached_at < STORE_REOPEN_SECONDS:
            return
        try:
            store = VerdictStore(self.config.store_path)
        except (StoreError, OSError):
            store = None
        if store is None or store.failure is not None:
            self._store_detached_at = time.monotonic()
            return
        engine.driver.persist = store
        self._store_detached_at = None
        self.store_reopens += 1

    # -- introspection ----------------------------------------------------

    def health_payload(self) -> Dict[str, Any]:
        engine = self.engine
        if self.config.store_path is None:
            store_mode = "none"
        elif engine is not None and engine.store is not None:
            store_mode = "attached"
        else:
            store_mode = "memory-only"
        if self._draining:
            status = "draining"
        else:
            status = "degraded" if store_mode == "memory-only" else "ok"
        return {
            "status": status,
            "draining": self._draining,
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "store": {
                "mode": store_mode,
                "detaches": self.store_detaches,
                "reopens": self.store_reopens,
            },
            "admission": self.limiter.as_dict(),
        }

    def stats_payload(self) -> Dict[str, Any]:
        """Service and engine counters; never blocks on a build.

        The engine half is the snapshot the most recently completed
        analysis captured under ``serve_lock``.
        """
        payload: Dict[str, Any] = {"service": self.stats.as_dict()}
        if self.engine is not None and self._engine_snapshot is not None:
            payload["engine"] = self._engine_snapshot
        return payload


def run_service(config: ServiceConfig, banner=None) -> int:
    """Blocking entry point for ``repro-deps serve``."""

    async def _main() -> None:
        service = DependenceService(config)
        await service.start()
        service.install_signal_handlers()
        if banner is not None:
            banner(service)
        assert service._stopped is not None
        await service._stopped.wait()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        pass
    return 0
