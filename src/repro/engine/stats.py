"""Engine observability: cache and fault counters.

The study harness threads a :class:`~repro.instrument.TestRecorder`
through the driver to count test applications (the paper's Table 3); the
engine adds :class:`EngineStats` alongside it to count what the *cache*
did — hits, misses, evictions — and which failures were absorbed.  An
optional :class:`~repro.engine.profile.PhaseProfile` rides along for
per-phase wall-clock timings.  The benchmark harness serializes all of it into
``BENCH_engine.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.engine.faults import FailureRecord
from repro.engine.profile import PhaseProfile


@dataclass
class EngineStats:
    """Counters for one engine (or one :class:`CachedDriver`) lifetime.

    ``hits``/``store_hits``/``misses`` count canonical-key verdict
    lookups by provenance — served from the in-memory LRU, served from
    the persistent :class:`~repro.engine.store.VerdictStore` (a resumed
    run's prior work), or actually tested; ``store_writes`` counts fresh
    verdicts written through to the store.  ``evictions`` counts LRU
    drops.  ``profile`` holds per-phase wall timings when the engine was
    built with profiling on (None otherwise).

    The fault-tolerance layer reports here too: ``assumed`` counts pair
    resolutions degraded to a conservative assumed-dependence verdict,
    and ``routines_skipped`` counts whole routines the study harness
    dropped.
    ``failures`` holds one structured :class:`FailureRecord` per absorbed
    failure event, in occurrence order.
    """

    hits: int = 0
    store_hits: int = 0
    store_foreign_hits: int = 0
    store_writes: int = 0
    misses: int = 0
    evictions: int = 0
    assumed: int = 0
    routines_skipped: int = 0
    failures: List[FailureRecord] = field(default_factory=list)
    profile: Optional[PhaseProfile] = field(default=None, compare=False)

    @property
    def lookups(self) -> int:
        """Total cache probes (memory hits + store hits + misses)."""
        return self.hits + self.store_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of probes answered without testing (0.0 when unused)."""
        total = self.lookups
        return (self.hits + self.store_hits) / total if total else 0.0

    def provenance_report(self) -> str:
        """Where verdicts came from: memory / store / fresh test / assumed.

        The honesty line for degraded-and-resumed runs — an ``assumed``
        count is never hidden inside a hit rate, and store-served
        verdicts are distinguished from this process's own work.
        """
        store = f"{self.store_hits} store hit(s)"
        if self.store_foreign_hits:
            # Served from records a *concurrently running* process landed
            # in the store after it opened (folded from the tail), as
            # opposed to a prior run's resident records.
            store += f" ({self.store_foreign_hits} cross-process)"
        return (
            f"verdict provenance: {self.hits} memory hit(s), "
            f"{store}, {self.misses} tested, "
            f"{self.assumed} assumed"
        )

    def record_failure(self, record: FailureRecord) -> None:
        """Append one absorbed-failure report (and bump its kind counter)."""
        self.failures.append(record)
        if record.kind == "routine":
            self.routines_skipped += 1

    def merge(self, other: "EngineStats") -> None:
        """Fold another stats object's counters into this one."""
        self.hits += other.hits
        self.store_hits += other.store_hits
        self.store_foreign_hits += other.store_foreign_hits
        self.store_writes += other.store_writes
        self.misses += other.misses
        self.evictions += other.evictions
        self.assumed += other.assumed
        self.routines_skipped += other.routines_skipped
        self.failures.extend(other.failures)
        if other.profile is not None:
            if self.profile is None:
                self.profile = PhaseProfile()
            self.profile.merge(other.profile)

    def reset(self) -> None:
        """Zero every counter (keeps the profile object, zeroing its timers)."""
        self.hits = self.misses = self.evictions = 0
        self.store_hits = self.store_foreign_hits = self.store_writes = 0
        self.assumed = self.routines_skipped = 0
        self.failures.clear()
        if self.profile is not None:
            self.profile.reset()

    @property
    def degraded(self) -> bool:
        """True when any failure was absorbed this lifetime."""
        return bool(self.failures) or self.assumed > 0

    def as_dict(self) -> dict:
        """Plain-dict form for JSON serialization."""
        out = {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }
        if self.store_hits or self.store_writes:
            out["store_hits"] = self.store_hits
            out["store_writes"] = self.store_writes
            if self.store_foreign_hits:
                out["store_foreign_hits"] = self.store_foreign_hits
        if self.degraded:
            out["assumed"] = self.assumed
            out["routines_skipped"] = self.routines_skipped
            out["failures"] = [record.as_dict() for record in self.failures]
        if self.profile is not None:
            out["profile"] = self.profile.as_dict()
        return out

    def failure_report(self) -> str:
        """Multi-line fault report (empty string when nothing degraded)."""
        if not self.degraded:
            return ""
        lines = [
            f"fault report: {len(self.failures)} failure(s), "
            f"{self.assumed} pair verdict(s) assumed dependent",
            f"  {self.provenance_report()}",
        ]
        for record in self.failures:
            lines.append(f"  {record}")
        return "\n".join(lines)

    def __str__(self) -> str:
        text = (
            f"cache: {self.hits} hits, {self.misses} misses "
            f"({self.hit_rate:.1%} hit rate), {self.evictions} evictions"
        )
        if self.store_hits or self.store_writes:
            text += (
                f"; store: {self.store_hits} hits, "
                f"{self.store_writes} writes"
            )
            if self.store_foreign_hits:
                text += f" ({self.store_foreign_hits} cross-process)"
        if self.degraded:
            text += (
                f"; degraded: {self.assumed} assumed, "
                f"{len(self.failures)} failure(s)"
            )
        return text
