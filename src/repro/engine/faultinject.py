"""Deterministic fault injection for the engine's recovery paths.

Recovery code that only runs when something breaks is untestable unless
something can be *made* to break on demand.  This module turns the
``REPRO_FAULTS`` environment variable into deterministic faults at the
engine's seams:

* ``pair-error:<array>`` — every dependence test on a pair referencing
  array ``<array>`` raises :class:`InjectedFaultError` (simulates an
  in-test crash);
* ``pair-delay:<seconds>`` — every dependence test (the cache-miss
  path) sleeps first, throttling one process relative to another so
  concurrent-writer interleavings become reproducible;
* ``routine-error:<name>`` — analyzing routine ``<name>`` raises
  (simulates a routine the pipeline cannot digest);
* ``store-die:<n>`` — the process dies with ``os._exit`` immediately
  after the ``n``-th record appended to a persistent verdict store
  (simulates a SIGKILL landing mid-write at a deterministic point; the
  kill-and-resume tests and CI job are built on it);
* ``lock-hold:<seconds>`` — every store-lock acquisition sleeps while
  *holding* the lock, forcing the contention window open so
  backoff/starvation paths actually run;
* ``corrupt-store`` — the first time this process opens a store's
  segment, garbage bytes are appended to it (a synthetic torn tail),
  exercising open-time recovery in situ;
* ``slow-handler:<seconds>[:<n>]`` — the analysis service's request
  handler sleeps before analyzing (all requests, or only the first
  ``<n>``), holding its in-flight slot so deadline, backpressure, and
  load-shedding paths become deterministic;
* ``reject-store:<n>`` — the first ``<n>`` verdict/report writes to a
  persistent store raise :class:`InjectedFaultError` (simulates a store
  gone bad mid-run: the driver degrades to memory-only and the service's
  store breaker trips, then recovers once the fault budget is spent);
* ``kill-mid-request:<n>`` — the service process dies with ``os._exit``
  while handling its ``<n>``-th analysis request (a crash with requests
  in flight: clients see a dropped connection, the store must recover);
* ``die-file:<n>`` — the corpus streaming driver dies with ``os._exit``
  as it enters its ``<n>``-th file (a SIGKILL at a file boundary; the
  corpus kill-and-resume gate is built on it);
* ``die-compact:<n>`` — the process dies right before its ``<n>``-th
  store compaction commits the rewritten segment (a mid-compaction
  crash: the old segment must survive intact);
* ``fake-rss:<mb>`` — the corpus driver's RSS watermark probe reports
  this value instead of reading ``/proc``, making memory-backpressure
  throttling deterministic.

Terminal directives (``store-die``, ``kill-mid-request``, ``die-file``,
``die-compact``) honor the
``REPRO_FAULT_MARKER`` environment variable: the file it names is
created immediately before the process dies, so harnesses can assert
the kill actually fired rather than inferring it from an exit code.

Directives are comma-separated (``REPRO_FAULTS=pair-error:a,pair-delay:0.01``).
Parsing is cached per spec string and the unset-env fast path is a single
dict lookup, so production runs pay nothing.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set

ENV_VAR = "REPRO_FAULTS"

#: Path of a file to create right before a terminal fault directive
#: (``store-die``, ``kill-mid-request``) kills the process.  Harnesses
#: set it per subprocess and assert the marker exists, proving the kill
#: fired rather than the run merely finishing with a suggestive code.
MARKER_ENV_VAR = "REPRO_FAULT_MARKER"


class InjectedFaultError(RuntimeError):
    """The deterministic failure raised by ``pair-error``/``routine-error``."""


@dataclass(frozen=True)
class FaultPlan:
    """Parsed form of one ``REPRO_FAULTS`` spec."""

    pair_arrays: FrozenSet[str] = frozenset()
    pair_delay: Optional[float] = None
    routines: FrozenSet[str] = frozenset()
    store_die: Optional[int] = None
    lock_hold: Optional[float] = None
    corrupt_store: bool = False
    slow_handler: Optional[float] = None
    slow_handler_count: Optional[int] = None
    reject_store: Optional[int] = None
    kill_request: Optional[int] = None
    die_file: Optional[int] = None
    die_compact: Optional[int] = None
    fake_rss_mb: Optional[float] = None

    @property
    def empty(self) -> bool:
        return not (
            self.pair_arrays
            or self.pair_delay is not None
            or self.routines
            or self.store_die is not None
            or self.lock_hold is not None
            or self.corrupt_store
            or self.slow_handler is not None
            or self.reject_store is not None
            or self.kill_request is not None
            or self.die_file is not None
            or self.die_compact is not None
            or self.fake_rss_mb is not None
        )


def parse_spec(spec: str) -> FaultPlan:
    """Parse a ``REPRO_FAULTS`` spec string; unknown directives are ignored."""
    arrays = set()
    pair_delay: Optional[float] = None
    routines = set()
    store_die: Optional[int] = None
    lock_hold: Optional[float] = None
    corrupt_store = False
    slow_handler: Optional[float] = None
    slow_handler_count: Optional[int] = None
    reject_store: Optional[int] = None
    kill_request: Optional[int] = None
    die_file: Optional[int] = None
    die_compact: Optional[int] = None
    fake_rss_mb: Optional[float] = None
    for raw in spec.split(","):
        directive = raw.strip()
        if not directive:
            continue
        parts = directive.split(":")
        name, args = parts[0], parts[1:]
        try:
            if name == "pair-error" and args:
                arrays.add(args[0].lower())
            elif name == "pair-delay" and args:
                pair_delay = float(args[0])
            elif name == "routine-error" and args:
                routines.add(args[0].lower())
            elif name == "store-die" and args:
                store_die = int(args[0])
            elif name == "lock-hold" and args:
                lock_hold = float(args[0])
            elif name == "corrupt-store":
                corrupt_store = True
            elif name == "slow-handler" and args:
                slow_handler = float(args[0])
                if len(args) > 1:
                    slow_handler_count = int(args[1])
            elif name == "reject-store" and args:
                reject_store = int(args[0])
            elif name == "kill-mid-request" and args:
                kill_request = int(args[0])
            elif name == "die-file" and args:
                die_file = int(args[0])
            elif name == "die-compact" and args:
                die_compact = int(args[0])
            elif name == "fake-rss" and args:
                fake_rss_mb = float(args[0])
        except ValueError:
            continue
    return FaultPlan(
        pair_arrays=frozenset(arrays),
        pair_delay=pair_delay,
        routines=frozenset(routines),
        store_die=store_die,
        lock_hold=lock_hold,
        corrupt_store=corrupt_store,
        slow_handler=slow_handler,
        slow_handler_count=slow_handler_count,
        reject_store=reject_store,
        kill_request=kill_request,
        die_file=die_file,
        die_compact=die_compact,
        fake_rss_mb=fake_rss_mb,
    )


# Parsed-plan cache keyed by the raw spec string, so env flips between
# tests re-parse while steady-state runs parse once.
_PLANS: Dict[str, FaultPlan] = {}


def active_plan() -> Optional[FaultPlan]:
    """The plan for the current environment (None when no faults armed)."""
    spec = os.environ.get(ENV_VAR)
    if not spec:
        return None
    plan = _PLANS.get(spec)
    if plan is None:
        if len(_PLANS) > 64:
            _PLANS.clear()
        plan = _PLANS[spec] = parse_spec(spec)
    return None if plan.empty else plan


def on_pair(array: str) -> None:
    """Per-pair hook, called on the test (cache-miss) path everywhere."""
    plan = active_plan()
    if plan is None:
        return
    if plan.pair_delay is not None:
        time.sleep(plan.pair_delay)
    if array.lower() in plan.pair_arrays:
        raise InjectedFaultError(f"injected fault testing array '{array}'")


def on_routine(name: str) -> None:
    """Per-routine hook, called as corpus/CLI loops enter a routine."""
    plan = active_plan()
    if plan is not None and name.lower() in plan.routines:
        raise InjectedFaultError(f"injected fault analyzing routine '{name}'")


def _drop_marker() -> None:
    """Create the :data:`MARKER_ENV_VAR` file, if one is configured.

    Called on the way into an ``os._exit`` so the harness that armed the
    fault can verify it actually fired; the write is best-effort (the
    process is about to die regardless).
    """
    path = os.environ.get(MARKER_ENV_VAR)
    if not path:
        return
    try:
        with open(path, "a") as handle:
            handle.write(f"{os.getpid()}\n")
            handle.flush()
            os.fsync(handle.fileno())
    except OSError:
        pass


# Appends this process has made to any verdict store (store-die counter).
_STORE_APPENDS = 0


def on_store_append() -> None:
    """Per-record hook, called after each verdict-store append.

    ``store-die:<n>`` kills the process *uncleanly* (no flush, no atexit,
    no lock release beyond what the OS reclaims) right after the n-th
    append, leaving whatever the page cache happened to hold — the same
    torn-tail state a SIGKILL or power loss produces.
    """
    global _STORE_APPENDS
    plan = active_plan()
    if plan is None or plan.store_die is None:
        return
    _STORE_APPENDS += 1
    if _STORE_APPENDS >= plan.store_die:
        _drop_marker()
        os._exit(9)


# Store put attempts this process has made (reject-store counter).
_STORE_PUTS = 0


def on_store_put() -> None:
    """Per-write hook, called as a verdict/report write enters the store.

    ``reject-store:<n>`` fails the first ``n`` writes with
    :class:`InjectedFaultError` — before anything is buffered — so the
    engine's memory-only degradation and the service's store circuit
    breaker can be driven deterministically, and recovery can be
    observed once the fault budget is spent.
    """
    global _STORE_PUTS
    plan = active_plan()
    if plan is None or plan.reject_store is None:
        return
    if _STORE_PUTS < plan.reject_store:
        _STORE_PUTS += 1
        raise InjectedFaultError(
            f"injected store rejection ({_STORE_PUTS}/{plan.reject_store})"
        )


# Service requests this process has started handling (slow-handler /
# kill-mid-request counters).
_REQUESTS = 0


def on_request() -> None:
    """Per-request hook, called as the analysis service starts a request.

    ``slow-handler:<seconds>[:<n>]`` sleeps while the request holds its
    in-flight slot (every request, or only the first ``n``), making
    queue-full load shedding and deadline expiry reproducible.
    ``kill-mid-request:<n>`` kills the whole service process (uncleanly,
    marker dropped first) at the start of the ``n``-th request.
    """
    global _REQUESTS
    plan = active_plan()
    if plan is None:
        return
    _REQUESTS += 1
    if plan.kill_request is not None and _REQUESTS >= plan.kill_request:
        _drop_marker()
        os._exit(11)
    if plan.slow_handler is not None:
        count = plan.slow_handler_count
        if count is None or _REQUESTS <= count:
            time.sleep(plan.slow_handler)


def on_lock_held() -> None:
    """Called immediately after the store lock is acquired (still held).

    ``lock-hold:<seconds>`` widens every critical section so concurrent
    writers actually collide, making backoff and starvation paths
    deterministic enough to test.
    """
    plan = active_plan()
    if plan is not None and plan.lock_hold is not None:
        time.sleep(plan.lock_hold)


# Segment paths this process has already corrupted (corrupt once, so the
# recovery that follows sees a stable, not perpetually rotting, file).
_CORRUPTED: Set[str] = set()


def on_segment_open(path: os.PathLike) -> None:
    """Called before a store opens/recovers its segment file.

    ``corrupt-store`` appends garbage to the segment the first time this
    process opens it — a synthetic torn tail that open-time recovery
    must repair under the lock, never propagate.
    """
    plan = active_plan()
    if plan is None or not plan.corrupt_store:
        return
    key = str(path)
    if key in _CORRUPTED:
        return
    _CORRUPTED.add(key)
    try:
        with open(path, "ab") as handle:
            handle.write(b"\xde\xad\xbe\xef torn")
    except OSError:
        pass


# Corpus files this process has started streaming (die-file counter).
_CORPUS_FILES = 0


def on_corpus_file(path: os.PathLike) -> None:
    """Called as the corpus streaming driver enters one source file.

    ``die-file:<n>`` kills the process *uncleanly* (marker dropped
    first) as the ``n``-th file is entered — a SIGKILL landing at a
    deterministic file boundary, which is exactly where the streaming
    driver's resume contract must hold: every earlier file's routines
    are durable and skippable, the current file re-analyzes.
    """
    global _CORPUS_FILES
    plan = active_plan()
    if plan is None or plan.die_file is None:
        return
    _CORPUS_FILES += 1
    if _CORPUS_FILES >= plan.die_file:
        _drop_marker()
        os._exit(9)


# Compactions this process has attempted (die-compact counter).
_COMPACTIONS = 0


def on_compact() -> None:
    """Called right before a compaction commits its rewritten segment.

    ``die-compact:<n>`` kills the process (marker dropped first) before
    the ``n``-th commit: the store must still hold its old segment — the
    temp file + atomic-rename crash-safety contract, made testable.
    """
    global _COMPACTIONS
    plan = active_plan()
    if plan is None or plan.die_compact is None:
        return
    _COMPACTIONS += 1
    if _COMPACTIONS >= plan.die_compact:
        _drop_marker()
        os._exit(9)


def fake_rss() -> Optional[float]:
    """The injected RSS reading in MiB (``fake-rss:<mb>``), or None.

    Lets the corpus driver's memory-watermark throttling run in tests
    without actually ballooning the process.
    """
    plan = active_plan()
    return None if plan is None else plan.fake_rss_mb
