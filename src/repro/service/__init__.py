"""The long-running dependence-analysis service.

``repro-deps serve`` keeps one warm :class:`~repro.engine.engine.DependenceEngine`
— interning pools, the LRU verdict cache, a shared persistent store —
resident behind a small stdlib-``asyncio`` HTTP front end, so the
corpus-wide canonical-key hit rate the paper's empirical argument rests
on accumulates across clients rather than being rebuilt per CLI
invocation.  The robustness layers:

* :mod:`repro.service.protocol` — the JSON request/response schema,
  including the degraded-response contract (timed-out or faulted
  analyses return complete *conservative* graphs, never spurious
  independences);
* :mod:`repro.service.limiter` — admission control: bounded in-flight
  work plus a bounded wait queue, overflow shed with ``503`` and
  ``Retry-After``;
* :mod:`repro.service.server` — the asyncio server: per-request
  deadlines wired into the engine's step budgets, in-flight coalescing
  of identical requests, memory-only running while a failed store is
  detached and its reopen after ``STORE_REOPEN_SECONDS``, graceful
  SIGTERM drain;
* :mod:`repro.service.client` — a blocking retrying client
  (``repro-deps client``).
"""

from repro.service.client import ServiceClient, ServiceError, ServiceUnavailable
from repro.service.limiter import AdmissionLimiter
from repro.service.protocol import (
    AnalyzeRequest,
    ProtocolError,
    render_analysis,
)
from repro.service.server import (
    DependenceService,
    ServiceConfig,
    run_service,
)

__all__ = [
    "AdmissionLimiter",
    "AnalyzeRequest",
    "DependenceService",
    "ProtocolError",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceUnavailable",
    "render_analysis",
    "run_service",
]
