"""The :class:`DependenceEngine` facade.

One object owns the policy knobs — caching on/off, cache capacity, Delta
options, profiling, fault policy, the persistent store — and runs the
graph builder for each ``build_graph`` call: with the cache off it tests
every pair with the plain driver (the baseline); with the cache on it
plugs the :class:`~repro.engine.cache.CachedDriver` in as the builder's
tester.

The engine is long-lived by design: the study harness builds one graph
per kernel of a corpus through a single engine, so canonical entries
accumulate across kernels and the corpus-wide hit rate climbs.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence

from repro.delta.delta import DEFAULT_OPTIONS, DeltaOptions
from repro.engine.cache import DEFAULT_CAPACITY, CachedDriver
from repro.engine.faults import DEFAULT_POLICY, Deadline, FaultPolicy
from repro.engine.store import VerdictStore
from repro.engine.profile import PhaseProfile
from repro.engine.stats import EngineStats
from repro.graph.depgraph import DependenceGraph, build_dependence_graph
from repro.instrument import TestRecorder
from repro.ir.context import SymbolEnv
from repro.ir.loop import Node


class DependenceEngine:
    """Configurable front end over the uncached and cached graph builds."""

    def __init__(
        self,
        symbols: Optional[SymbolEnv] = None,
        cache_size: int = DEFAULT_CAPACITY,
        use_cache: bool = True,
        delta_options: DeltaOptions = DEFAULT_OPTIONS,
        profile: bool = False,
        policy: FaultPolicy = DEFAULT_POLICY,
        store: Optional[VerdictStore] = None,
    ):
        self.symbols = symbols
        self.use_cache = use_cache
        # The engine *uses* the store but does not own it: the caller
        # that opened the store closes it (``close`` only flushes).
        stats = EngineStats(profile=PhaseProfile()) if profile else None
        self.driver = CachedDriver(
            symbols=symbols,
            capacity=cache_size,
            delta_options=delta_options,
            stats=stats,
            policy=policy,
            store=store if use_cache else None,
        )
        #: Serializes multi-threaded access to the driver (see
        #: :meth:`serve_build`).  Re-entrant so a locked caller may call
        #: :meth:`build_graph` directly.
        self.serve_lock = threading.RLock()

    @property
    def stats(self) -> EngineStats:
        """The engine's cache and fault counters (live, not a snapshot)."""
        return self.driver.stats

    @property
    def policy(self) -> FaultPolicy:
        """The fault policy governing degradation."""
        return self.driver.policy

    @property
    def profile(self) -> Optional[PhaseProfile]:
        """Per-phase wall timings, when built with ``profile=True``."""
        return self.driver.stats.profile

    @property
    def store(self) -> Optional[VerdictStore]:
        """The persistent verdict store, when one is attached (live)."""
        return self.driver.persist

    def settings(self) -> dict:
        """Constructor arguments that rebuild this engine's analysis in
        another process: everything but the store, which stays with its
        owner (``corpus run`` pool workers)."""
        driver = self.driver
        return {
            "symbols": self.symbols,
            "cache_size": driver.capacity,
            "use_cache": self.use_cache,
            "delta_options": driver.delta_options,
            "profile": self.profile is not None,
            "policy": driver.policy,
        }

    def close(self) -> None:
        """Flush the store (not closing it).

        A failing final flush detaches the store with a ``"store"``
        failure record (see :meth:`CachedDriver.flush`) instead of
        raising.
        """
        self.driver.close()

    def __enter__(self) -> "DependenceEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def build_graph(
        self,
        nodes: Sequence[Node],
        recorder: Optional[TestRecorder] = None,
        include_input: bool = False,
        symbols: Optional[SymbolEnv] = None,
    ) -> DependenceGraph:
        """Build the dependence graph of a statement list.

        ``symbols`` overrides the engine-level environment for this call
        (the cache stays shared — symbol ranges are part of every key, so
        mixing environments cannot cross-contaminate entries).
        """
        env = symbols if symbols is not None else self.symbols
        if not self.use_cache:
            return build_dependence_graph(
                nodes,
                symbols=env,
                recorder=recorder,
                include_input=include_input,
                profile=self.profile,
            )
        return build_dependence_graph(
            nodes,
            symbols=env,
            recorder=recorder,
            include_input=include_input,
            tester=self.driver,
            profile=self.profile,
        )

    def serve_build(
        self,
        nodes: Sequence[Node],
        recorder: Optional[TestRecorder] = None,
        include_input: bool = False,
        symbols: Optional[SymbolEnv] = None,
        deadline: Optional[Deadline] = None,
        stats: Optional[EngineStats] = None,
    ) -> DependenceGraph:
        """Thread-safe :meth:`build_graph` — the service's resolve seam.

        Concurrent callers (the analysis service runs one request per
        executor thread against a single warm engine) serialize on
        :attr:`serve_lock` at build granularity, so a tight-deadline
        request interleaves with a long one between routines rather than
        queueing behind the whole request.  Because the second caller for
        a canonical key runs strictly after the first, a key raced by two
        requests is tested exactly once — one miss, one hit — which is
        what makes request-level coalescing an optimization rather than a
        correctness requirement.

        ``deadline`` is installed on the driver for the duration of this
        build: every per-pair budget minted inside checks it, and each
        pair starting after expiry degrades immediately to an assumed-
        dependence verdict (kind ``"deadline"``).

        ``stats`` (when given) receives this build's counter deltas —
        failures, assumed counts, hit/miss provenance — attributed to
        just this call; the engine's own cumulative stats absorb the
        same delta on the way out, so global accounting is unchanged.
        The driver records into a private per-build object that is
        merged into *both* targets afterwards, so a caller may pass one
        request-level ``stats`` across many builds without earlier
        builds' counters (or their ``FailureRecord``\\s) being folded
        into the cumulative stats more than once.
        """
        with self.serve_lock:
            driver = self.driver
            saved_stats = driver.stats
            delta: Optional[EngineStats] = None
            if stats is not None:
                delta = EngineStats(
                    profile=PhaseProfile()
                    if saved_stats.profile is not None
                    else None
                )
                driver.stats = delta
            driver.deadline = deadline
            try:
                return self.build_graph(
                    nodes,
                    recorder=recorder,
                    include_input=include_input,
                    symbols=symbols,
                )
            finally:
                driver.deadline = None
                if delta is not None:
                    driver.stats = saved_stats
                    saved_stats.merge(delta)
                    stats.merge(delta)
