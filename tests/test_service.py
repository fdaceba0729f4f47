"""The analysis service: protocol, admission, store reopen, deadlines, drain.

Three layers of coverage:

* unit tests for the self-contained pieces — request validation and the
  admission limiter;
* engine-seam tests — request deadlines degrading conservatively through
  ``serve_build``, and two threads racing one canonical key yielding
  byte-identical graphs with exactly one miss (the property request
  coalescing builds on);
* integration tests against a real in-process server on a loopback
  socket — coalescing, load shedding with ``Retry-After``, deadline
  watchdog, store detach and timed reopen, graceful drain —
  driven through the blocking :class:`~repro.service.client.ServiceClient`.

The conservative contract is asserted throughout: a degraded response
may *add* assumed edges but never drops one a clean run reports, and
never reports a pair independent that a clean run reports dependent.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import socket
import sys
import threading
import time

import pytest

from repro.engine import DependenceEngine, Deadline, DeadlineExceededError
from repro.engine import faultinject
from repro.engine.faults import StepBudget, failure_kind
from repro.engine.stats import EngineStats
from repro.fortran.parser import parse_fragment
from repro.instrument import TestRecorder
from repro.ir.normalize import normalize_steps
from repro.service.client import ServiceClient, ServiceError, ServiceUnavailable
from repro.service.limiter import AdmissionLimiter
from repro.service import server
from repro.service.protocol import AnalyzeRequest, ProtocolError, render_analysis
from repro.service.server import DependenceService, ServiceConfig


KERNEL = """      subroutine saxpy(a, b, c, n)
      integer n
      real a(100), b(100), c(100)
      do 10 i = 1, n
         a(i+1) = a(i) + b(i+2)
         b(i) = c(i-1) * a(i+3)
         c(i+2) = b(i-3) + c(i)
 10   continue
      end
"""

#: Structurally distinct from KERNEL's pairs (different subscript
#: shapes), so analyzing it after KERNEL still produces cache misses —
#: tests that need fresh store writes rely on that.
KERNEL_B = """      subroutine other(x, y, n)
      integer n
      real x(100), y(100)
      do 10 i = 1, n
         x(2*i) = x(2*i+7) + y(3*i+1)
 10   continue
      end
"""

BAD_KERNEL = """      subroutine broken(a, n)
      do 10 i = 1,
 10   continue
      end
"""


# ---------------------------------------------------------------------------
# protocol


class TestProtocol:
    def test_minimal_request(self):
        req = AnalyzeRequest.from_payload({"source": "x"})
        assert req.source == "x"
        assert req.deadline_ms is None
        assert not req.transforms

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {"source": ""},
            {"source": 3},
            {},
            {"source": "x", "name": ""},
            {"source": "x", "deadline_ms": "fast"},
            {"source": "x", "deadline_ms": True},
            {"source": "x", "deadline_ms": 0.01},
            {"source": "x", "transforms": "yes"},
            {"source": "x", "mystery": 1},
        ],
    )
    def test_rejects_malformed(self, payload):
        with pytest.raises(ProtocolError):
            AnalyzeRequest.from_payload(payload)

    def test_rejects_bad_json_and_oversize(self):
        with pytest.raises(ProtocolError):
            AnalyzeRequest.from_body(b"{nope")
        from repro.service.protocol import MAX_BODY_BYTES

        with pytest.raises(ProtocolError):
            AnalyzeRequest.from_body(b"x" * (MAX_BODY_BYTES + 1))

    def test_coalesce_key_ignores_deadline(self):
        a = AnalyzeRequest(source="s", deadline_ms=50.0)
        b = AnalyzeRequest(source="s", deadline_ms=5000.0)
        c = AnalyzeRequest(source="s", transforms=True)
        d = AnalyzeRequest(source="t")
        assert a.coalesce_key() == b.coalesce_key()
        assert a.coalesce_key() != c.coalesce_key()
        assert a.coalesce_key() != d.coalesce_key()

    def test_render_smoke(self):
        text = render_analysis(
            {
                "degraded": True,
                "routines": [
                    {
                        "name": "r",
                        "graph": {
                            "edges": [
                                {
                                    "type": "flow",
                                    "source": "a(i+1)",
                                    "sink": "a(i)",
                                    "source_stmt": 1,
                                    "sink_stmt": 1,
                                    "vectors": ["(<)"],
                                    "assumed": True,
                                }
                            ],
                            "tested_pairs": 1,
                            "independent_pairs": 0,
                        },
                        "parallel_loops": [
                            {"loop": "i", "parallel": False, "blocking_edges": 1}
                        ],
                    }
                ],
                "failures": [
                    {"kind": "deadline", "where": "p", "error": "expired"}
                ],
            }
        )
        assert "flow a(i+1) (S1) -> a(i) (S1) {(<)} [assumed]" in text
        assert "DO i: serial (blocked by 1 edges)" in text
        assert "DEGRADED" in text
        assert "[deadline] p: expired" in text


# ---------------------------------------------------------------------------
# deadlines through the engine seam


class TestDeadline:
    def test_deadline_expires_on_budget_spend(self):
        clock = iter([0.0, 0.05, 10.0]).__next__
        deadline = Deadline(1.0, clock=clock)
        budget = StepBudget(1000, deadline=deadline)
        budget.spend(1)  # at t=0.05: fine
        with pytest.raises(DeadlineExceededError) as err:
            budget.spend(1)  # at t=10: expired
        assert failure_kind(err.value) == "deadline"

    def test_expired_deadline_degrades_conservatively(self):
        nodes = normalize_steps(parse_fragment(
            """
      do i = 1, 100
        A(2*i) = A(2*i+1) + B(i+2)
        B(i) = A(2*i+3)
      end do
"""
        ))
        clean_engine = DependenceEngine()
        clean = clean_engine.serve_build(nodes)
        assert clean.independent_pairs > 0

        engine = DependenceEngine()
        expired = Deadline(0.001, clock=iter([0.0] + [99.0] * 1000).__next__)
        stats = EngineStats()
        graph = engine.serve_build(nodes, deadline=expired, stats=stats)

        # Same structure, everything assumed: no spurious independence.
        assert graph.tested_pairs == clean.tested_pairs
        assert graph.independent_pairs == 0
        assert all(edge.assumed for edge in graph.edges)
        assert stats.degraded
        assert {f.kind for f in stats.failures} == {"deadline"}
        # Every clean edge survives (conservative superset).
        clean_keys = {
            (str(e.dep_type), str(e.source.ref), str(e.sink.ref))
            for e in clean.edges
        }
        degraded_keys = {
            (str(e.dep_type), str(e.source.ref), str(e.sink.ref))
            for e in graph.edges
        }
        assert clean_keys <= degraded_keys
        # The engine's cumulative stats absorbed the request's counters,
        # and the request-scoped stats carry the failure attribution.
        assert engine.stats.assumed == stats.assumed
        # Assumed verdicts never contaminate the cache: a fresh build
        # without the deadline tests for real and matches the clean run.
        healthy = engine.serve_build(nodes)
        assert healthy.independent_pairs == clean.independent_pairs
        assert not any(edge.assumed for edge in healthy.edges)

    def test_serve_build_restores_driver_state(self):
        engine = DependenceEngine()
        nodes = normalize_steps(parse_fragment(
            "      do i = 1, 10\n        A(i) = A(i-1)\n      end do\n"
        ))
        stats = EngineStats()
        engine.serve_build(nodes, deadline=Deadline(60.0), stats=stats)
        assert engine.driver.deadline is None
        assert engine.driver.stats is engine.stats
        assert engine.stats.misses == stats.misses

    def test_request_stats_reused_across_builds_merge_once(self):
        # The service passes ONE request-level stats object to every
        # routine's build; the engine's cumulative stats must absorb
        # each build's delta exactly once — not re-merge everything the
        # request accumulated so far on every subsequent build.
        engine = DependenceEngine()
        nodes = normalize_steps(parse_fragment(
            "      do i = 1, 10\n        A(i) = A(i-1)\n      end do\n"
        ))
        other = normalize_steps(parse_fragment(
            "      do i = 1, 10\n        B(2*i) = B(2*i+5)\n      end do\n"
        ))
        stats = EngineStats()
        engine.serve_build(nodes, stats=stats)
        engine.serve_build(other, stats=stats)
        engine.serve_build(nodes, stats=stats)  # warm: pure hits
        assert engine.stats.misses == stats.misses
        assert engine.stats.hits == stats.hits

        # FailureRecords must not duplicate either: two degraded builds
        # sharing one stats object yield the same failure list in both
        # the request-level and the cumulative view.
        expired = Deadline(
            0.001, clock=iter([0.0] + [99.0] * 100000).__next__
        )
        # Fresh shapes: cache hits would satisfy pairs without testing,
        # so only untested pairs degrade to deadline failures.
        cold_a = normalize_steps(parse_fragment(
            "      do i = 1, 10\n        C(3*i) = C(3*i+2)\n      end do\n"
        ))
        cold_b = normalize_steps(parse_fragment(
            "      do i = 1, 10\n        D(i+4) = D(2*i)\n      end do\n"
        ))
        failing = EngineStats()
        engine.serve_build(cold_a, deadline=expired, stats=failing)
        engine.serve_build(cold_b, deadline=expired, stats=failing)
        assert failing.failures
        assert len(engine.stats.failures) == len(failing.failures)


class TestConcurrentSameKey:
    """Two requests racing one canonical key: one miss, identical bytes."""

    def test_two_threads_one_miss(self):
        engine = DependenceEngine()
        nodes = normalize_steps(parse_fragment(
            """
      do i = 1, 100
        A(i+1) = A(i) + B(i+2)
        B(i) = B(i-3)
      end do
"""
        ))
        barrier = threading.Barrier(2)
        results = [None, None]
        stats = [EngineStats(), EngineStats()]

        def run(slot):
            barrier.wait()
            graph = engine.serve_build(nodes, stats=stats[slot])
            results[slot] = str(graph)

        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert results[0] is not None and results[1] is not None
        # Byte-identical graphs...
        assert results[0] == results[1]
        # ...and each canonical key was tested exactly once across both
        # requests: the engine serialized them, so the second racer hit
        # the cache the first filled.
        reference = DependenceEngine()
        ref_stats_graph = reference.serve_build(nodes)
        unique = reference.stats.misses
        total_pairs = ref_stats_graph.tested_pairs
        assert stats[0].misses + stats[1].misses == unique
        assert (
            stats[0].hits + stats[1].hits
            == 2 * total_pairs - unique
        )


# ---------------------------------------------------------------------------
# limiter


def run_async(coro):
    return asyncio.run(coro)


class TestAdmissionLimiter:
    def test_sheds_past_both_bounds(self):
        async def scenario():
            limiter = AdmissionLimiter(max_in_flight=1, max_queue=1)
            assert await limiter.acquire() is True
            waiter = asyncio.ensure_future(limiter.acquire())
            await asyncio.sleep(0)  # waiter enters the queue
            assert limiter.queued == 1
            assert limiter.saturated
            assert await limiter.acquire() is False  # shed
            assert limiter.shed == 1
            limiter.release()  # hands the slot to the waiter
            assert await waiter is True
            assert limiter.in_flight == 1
            limiter.release()
            assert limiter.in_flight == 0
            assert limiter.admitted == 2

        run_async(scenario())

    def test_release_without_acquire_raises(self):
        async def scenario():
            limiter = AdmissionLimiter(1, 0)
            with pytest.raises(RuntimeError):
                limiter.release()

        run_async(scenario())

    def test_cancelled_waiter_does_not_leak_slot(self):
        async def scenario():
            limiter = AdmissionLimiter(1, 2)
            assert await limiter.acquire()
            waiter = asyncio.ensure_future(limiter.acquire())
            await asyncio.sleep(0)
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            limiter.release()
            assert limiter.in_flight == 0
            assert await limiter.acquire()

        run_async(scenario())

    def test_retry_after_scales_with_backlog(self):
        async def scenario():
            limiter = AdmissionLimiter(1, 1)
            empty = limiter.retry_after()
            await limiter.acquire()
            asyncio.ensure_future(limiter.acquire())
            await asyncio.sleep(0)
            assert limiter.retry_after() > empty

        run_async(scenario())


# ---------------------------------------------------------------------------
# the real server on a loopback socket


class ServiceHarness:
    """Run a DependenceService on a background event loop thread."""

    def __init__(self, config: ServiceConfig):
        self.service = DependenceService(config)
        self.loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.service.start())
        self._started.set()
        self.loop.run_forever()
        self.loop.close()

    def __enter__(self) -> "ServiceHarness":
        self._thread.start()
        assert self._started.wait(20), "service failed to start"
        return self

    def __exit__(self, *exc):
        future = asyncio.run_coroutine_threadsafe(
            self.service.stop(), self.loop
        )
        future.result(60)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(20)

    def client(self, **kwargs) -> ServiceClient:
        return ServiceClient(
            f"http://127.0.0.1:{self.service.port}", **kwargs
        )


@pytest.fixture
def fresh_request_counters(monkeypatch):
    """Reset the process-global fault-injection request/store counters."""
    monkeypatch.setattr(faultinject, "_REQUESTS", 0)
    monkeypatch.setattr(faultinject, "_STORE_PUTS", 0)
    return monkeypatch


class TestServiceHTTP:
    def test_analyze_roundtrip_and_cache_warm(self):
        with ServiceHarness(ServiceConfig()) as harness:
            client = harness.client()
            first = client.analyze(KERNEL, name="saxpy")
            assert first["status"] == "ok"
            assert first["routines"][0]["name"] == "saxpy"
            graph = first["routines"][0]["graph"]
            assert graph["tested_pairs"] > 0
            assert graph["edges"]
            second = client.analyze(KERNEL, name="saxpy")
            strip = lambda p: {
                k: v for k, v in p.items() if k not in ("elapsed_ms", "stats")
            }
            assert json.dumps(strip(first), sort_keys=True) == json.dumps(
                strip(second), sort_keys=True
            )
            stats = client.stats()
            assert stats["service"]["requests"] == 2  # only /analyze counts
            assert stats["engine"]["hits"] > 0

    def test_syntax_error_maps_to_422(self):
        with ServiceHarness(ServiceConfig()) as harness:
            client = harness.client()
            with pytest.raises(ServiceError) as err:
                client.analyze(BAD_KERNEL, name="broken")
            assert err.value.status == 422
            stats = client.stats()
            assert stats["service"]["syntax_errors"] == 1

    def test_malformed_request_maps_to_400(self):
        with ServiceHarness(ServiceConfig()) as harness:
            client = harness.client()
            status, payload = client.request(
                "POST", "/analyze", {"nope": True}
            )
            assert status == 400
            assert payload["status"] == "error"
            status, _ = client.request("GET", "/missing")
            assert status == 404

    def test_deadline_degrades_never_lies(self, fresh_request_counters):
        monkeypatch = fresh_request_counters
        # Clean reference first (no faults).
        with ServiceHarness(ServiceConfig()) as harness:
            reference = harness.client().analyze(KERNEL, name="saxpy")
        assert reference["status"] == "ok"

        # Now every tested pair costs 150ms: a 100ms deadline expires
        # mid-request and the rest of the pairs degrade in O(1).
        monkeypatch.setenv(faultinject.ENV_VAR, "pair-delay:0.15")
        with ServiceHarness(ServiceConfig()) as harness:
            degraded = harness.client().analyze(
                KERNEL, name="saxpy", deadline_ms=100.0
            )
        assert degraded["status"] == "degraded"
        assert degraded["degraded"] is True
        assert degraded["failures"]
        assert all(f["kind"] == "deadline" for f in degraded["failures"])

        ref_graph = reference["routines"][0]["graph"]
        deg_graph = degraded["routines"][0]["graph"]
        # Complete structure, conservative content.
        assert deg_graph["tested_pairs"] == ref_graph["tested_pairs"]
        assert deg_graph["independent_pairs"] <= ref_graph["independent_pairs"]
        ref_edges = {
            (e["type"], e["source"], e["sink"]) for e in ref_graph["edges"]
        }
        deg_edges = {
            (e["type"], e["source"], e["sink"]) for e in deg_graph["edges"]
        }
        assert ref_edges <= deg_edges  # nothing a clean run reports is lost
        assert any(e["assumed"] for e in deg_graph["edges"])
        # The deadline actually cut the request short: a full run would
        # have spent ~pairs * 150ms inside the testers.
        full_cost_ms = ref_graph["tested_pairs"] * 150.0
        assert degraded["elapsed_ms"] < full_cost_ms * 0.8

    def test_watchdog_answers_for_stuck_handler(self, fresh_request_counters):
        monkeypatch = fresh_request_counters
        # The handler itself wedges for 1.2s (before any pair runs), so
        # the engine deadline cannot fire; the asyncio watchdog must.
        monkeypatch.setenv(faultinject.ENV_VAR, "slow-handler:1.2:1")
        config = ServiceConfig(watchdog_grace=0.1, drain_timeout=5.0)
        with ServiceHarness(config) as harness:
            started = time.monotonic()
            payload = harness.client().analyze(
                KERNEL, name="saxpy", deadline_ms=100.0
            )
            elapsed = time.monotonic() - started
            assert payload["status"] == "degraded"
            assert payload.get("watchdog_timeout") is True
            assert payload["failures"][0]["kind"] == "deadline"
            assert elapsed < 1.0  # answered before the handler unwedged
            # Let the wedged thread finish so drain stays clean.
            time.sleep(1.2)

    def test_overload_sheds_with_503(self, fresh_request_counters):
        monkeypatch = fresh_request_counters
        monkeypatch.setenv(faultinject.ENV_VAR, "slow-handler:0.6:2")
        config = ServiceConfig(max_in_flight=1, queue_depth=0)
        with ServiceHarness(config) as harness:
            outcomes = []
            lock = threading.Lock()

            def fire(source):
                client = harness.client(retries=0)
                try:
                    payload = client.analyze(source, name="req")
                    with lock:
                        outcomes.append(("ok", payload["status"]))
                except ServiceError as exc:
                    with lock:
                        outcomes.append(("error", exc.status))

            # Distinct sources: coalescing must not absorb the overflow.
            threads = [
                threading.Thread(target=fire, args=(src,))
                for src in (KERNEL, KERNEL_B, KERNEL.replace("saxpy", "third"))
            ]
            for t in threads:
                t.start()
                time.sleep(0.1)  # ensure arrival order: fill, queue, shed
            for t in threads:
                t.join(30)
            sheds = [o for o in outcomes if o == ("error", 503)]
            assert sheds, f"expected at least one shed, got {outcomes}"
            stats = harness.client().stats()
            assert stats["service"]["shed"] >= 1
            health = harness.client().healthz()
            assert health["admission"]["shed"] >= 1

    def test_shed_client_retries_and_succeeds(self, fresh_request_counters):
        monkeypatch = fresh_request_counters
        monkeypatch.setenv(faultinject.ENV_VAR, "slow-handler:0.5:1")
        config = ServiceConfig(max_in_flight=1, queue_depth=0)
        with ServiceHarness(config) as harness:
            blocker = threading.Thread(
                target=lambda: harness.client().analyze(KERNEL, name="block")
            )
            blocker.start()
            time.sleep(0.15)  # the blocker is wedged in its handler
            # Retrying client: first attempt shed, later attempt lands.
            payload = harness.client(
                retries=4, backoff=0.2, max_backoff=0.3
            ).analyze(KERNEL_B, name="late")
            assert payload["status"] == "ok"
            blocker.join(30)
            assert harness.client().stats()["service"]["shed"] >= 1

    def test_identical_requests_coalesce(self, fresh_request_counters):
        monkeypatch = fresh_request_counters
        monkeypatch.setenv(faultinject.ENV_VAR, "slow-handler:0.4:1")
        config = ServiceConfig(max_in_flight=4, queue_depth=4)
        with ServiceHarness(config) as harness:
            payloads = []
            lock = threading.Lock()

            def fire(delay):
                time.sleep(delay)
                payload = harness.client().analyze(KERNEL, name="saxpy")
                with lock:
                    payloads.append(payload)

            threads = [
                threading.Thread(target=fire, args=(d,))
                for d in (0.0, 0.1, 0.2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
            assert len(payloads) == 3
            strip = lambda p: {
                k: v for k, v in p.items() if k not in ("elapsed_ms", "stats")
            }
            rendered = {
                json.dumps(strip(p), sort_keys=True) for p in payloads
            }
            assert len(rendered) == 1  # byte-identical answers
            stats = harness.client().stats()
            assert stats["service"]["coalesced"] == 2
            # One analysis ran: the engine saw each canonical key once.
            assert stats["service"]["requests"] >= 3
            health = harness.client().healthz()
            assert health["admission"]["admitted"] == 1

    def test_store_breaker_trips_memory_only_then_recovers(
        self, fresh_request_counters, tmp_path
    ):
        monkeypatch = fresh_request_counters
        monkeypatch.setattr(server, "STORE_REOPEN_SECONDS", 0.2)
        store_path = tmp_path / "svc.db"
        monkeypatch.setenv(faultinject.ENV_VAR, "reject-store:1")
        with ServiceHarness(ServiceConfig(store_path=store_path)) as harness:
            client = harness.client()
            # First request: the first store write is rejected and the
            # driver detaches the store.
            first = client.analyze(KERNEL, name="saxpy")
            # The analysis itself still succeeded (memory tier absorbed
            # it; a store loss degrades persistence, not verdicts).
            assert first["routines"][0]["graph"]["edges"]
            health = client.healthz()
            assert health["store"]["mode"] == "memory-only"
            assert health["store"]["detaches"] >= 1
            assert health["status"] == "degraded"

            # After the wait the next request reopens the store: the
            # fault budget is spent, so the reopen sticks and writes flow.
            time.sleep(0.3)
            second = client.analyze(KERNEL_B, name="other")
            assert second["status"] == "ok"
            health = client.healthz()
            assert health["store"]["mode"] == "attached"
            assert health["store"]["reopens"] >= 1
            assert health["status"] == "ok"
            stats = client.stats()
            assert stats["engine"].get("store_writes", 0) >= 1
        # The reopened store survives shutdown with its writes.
        from repro.engine import VerdictStore

        assert VerdictStore.scan(store_path).verdicts >= 1

    def test_reopen_survives_a_syntax_error(
        self, fresh_request_counters, tmp_path
    ):
        monkeypatch = fresh_request_counters
        monkeypatch.setattr(server, "STORE_REOPEN_SECONDS", 0.0)
        monkeypatch.setenv(faultinject.ENV_VAR, "reject-store:1")
        config = ServiceConfig(store_path=tmp_path / "svc.db")
        with ServiceHarness(config) as harness:
            client = harness.client()
            client.analyze(KERNEL, name="saxpy")
            assert client.healthz()["store"]["mode"] == "memory-only"
            # This request reopens the store before its parse fails; a
            # parse never touches the store, so it stays attached.
            with pytest.raises(ServiceError) as err:
                client.analyze(BAD_KERNEL, name="broken")
            assert err.value.status == 422
            health = client.healthz()
            assert health["store"] == {
                "mode": "attached", "detaches": 1, "reopens": 1
            }
            assert health["status"] == "ok"

    @pytest.mark.parametrize("breakage", ["path-is-a-file", "segment-is-a-dir"])
    def test_failed_reopen_stays_memory_only_and_retries(
        self, fresh_request_counters, tmp_path, breakage
    ):
        monkeypatch = fresh_request_counters
        store_path = tmp_path / "svc.db"
        moved = tmp_path / "moved.db"
        with ServiceHarness(ServiceConfig()) as harness:
            reference = harness.client().analyze(KERNEL_B, name="other")
        monkeypatch.setattr(server, "STORE_REOPEN_SECONDS", 0.0)
        monkeypatch.setenv(faultinject.ENV_VAR, "reject-store:1")
        with ServiceHarness(ServiceConfig(store_path=store_path)) as harness:
            client = harness.client()
            client.analyze(KERNEL, name="saxpy")
            assert client.healthz()["store"]["mode"] == "memory-only"
            # Break the store path while the store is detached: an
            # ordinary file makes VerdictStore refuse to open, and a
            # directory in place of the segment gives a failed store.
            store_path.rename(moved)
            if breakage == "path-is-a-file":
                store_path.write_text("not a store\n")
            else:
                (store_path / "store.seg").mkdir(parents=True)
            tried = time.monotonic()
            answer = client.analyze(KERNEL_B, name="other")
            assert answer["routines"] == reference["routines"]
            health = client.healthz()
            assert health["store"] == {
                "mode": "memory-only", "detaches": 1, "reopens": 0
            }
            assert health["status"] == "degraded"
            # The failed open restarted the wait, so with the directory
            # back a request inside the wait leaves the store detached...
            assert harness.service._store_detached_at >= tried
            if store_path.is_dir():
                shutil.rmtree(store_path)
            else:
                store_path.unlink()
            moved.rename(store_path)
            monkeypatch.setattr(server, "STORE_REOPEN_SECONDS", 60.0)
            client.analyze(KERNEL, name="saxpy")
            assert client.healthz()["store"]["mode"] == "memory-only"
            # ...and the first request after it reattaches the store.
            monkeypatch.setattr(server, "STORE_REOPEN_SECONDS", 0.0)
            client.analyze(KERNEL, name="saxpy")
            health = client.healthz()
            assert health["store"] == {
                "mode": "attached", "detaches": 1, "reopens": 1
            }
            assert health["status"] == "ok"

    def test_concurrent_requests_reopen_once_per_detach(
        self, fresh_request_counters, tmp_path
    ):
        monkeypatch = fresh_request_counters
        monkeypatch.setattr(server, "STORE_REOPEN_SECONDS", 0.0)
        monkeypatch.setenv(faultinject.ENV_VAR, "reject-store:3")
        config = ServiceConfig(
            store_path=tmp_path / "svc.db", max_in_flight=4, queue_depth=16
        )
        # Each kernel's first pair has its own stride, so every request
        # writes to the store and can meet a rejection.
        sources = [
            KERNEL.replace("saxpy", f"k{i}").replace("a(i+1)", f"a({i + 2}*i+1)")
            for i in range(12)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServiceHarness(config) as harness:
                threads = [
                    threading.Thread(
                        target=harness.client(retries=5).analyze,
                        args=(source,),
                        kwargs={"name": f"k{i}"},
                    )
                    for i, source in enumerate(sources)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60)
                assert not any(t.is_alive() for t in threads)
                store = harness.client().healthz()["store"]
        finally:
            sys.setswitchinterval(interval)
        # Every reopen follows its own detach: an open raced by two
        # requests would count two reopens for one detach.
        assert store["detaches"] >= 1
        assert store["detaches"] - store["reopens"] in (0, 1)
        assert (store["mode"] == "attached") == (
            store["detaches"] == store["reopens"]
        )

    def test_draining_rejects_new_work(self):
        harness = ServiceHarness(ServiceConfig())
        with harness:
            client = harness.client()
            assert client.analyze(KERNEL, name="saxpy")["status"] == "ok"
        # Fully stopped: the listener is gone.
        with pytest.raises(ServiceUnavailable):
            harness.client(retries=0).analyze(KERNEL, name="saxpy")

    def test_malformed_content_length_is_bad_request(self):
        with ServiceHarness(ServiceConfig()) as harness:
            with socket.create_connection(
                ("127.0.0.1", harness.service.port), timeout=10
            ) as conn:
                conn.sendall(
                    b"POST /analyze HTTP/1.1\r\n"
                    b"Content-Length: banana\r\n\r\n"
                )
                response = conn.recv(65536)
            assert response.startswith(b"HTTP/1.1 400 ")
            stats = harness.client().stats()
            assert stats["service"]["bad_requests"] == 1
            assert stats["service"]["internal_errors"] == 0

    def test_introspection_never_waits_on_engine_lock(
        self, fresh_request_counters
    ):
        monkeypatch = fresh_request_counters
        # Every pair costs 300ms, so the handler thread holds the
        # engine's serve_lock for ~2.7s (KERNEL tests 9 pairs).  The
        # loop must keep answering /stats and /healthz from its own
        # state instead of queueing behind that lock.
        monkeypatch.setenv(faultinject.ENV_VAR, "pair-delay:0.3")
        with ServiceHarness(ServiceConfig()) as harness:
            worker = threading.Thread(
                target=lambda: harness.client().analyze(KERNEL, name="saxpy")
            )
            worker.start()
            time.sleep(0.5)  # the build is under way, lock held
            started = time.monotonic()
            stats = harness.client().stats()
            health = harness.client().healthz()
            elapsed = time.monotonic() - started
            assert worker.is_alive()  # answered while the build still ran
            assert elapsed < 1.5
            assert stats["service"]["requests"] >= 1
            assert health["draining"] is False
            worker.join(30)
