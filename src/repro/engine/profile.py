"""Per-phase and per-test-tier wall-clock profiling for the engine.

The engine's hot path has four phases — *prepare* (context + canonical
key), *test* (the driver on a cache miss), *rehydrate* (binding cached
canonical verdicts to concrete pairs), and *edge-build* (turning verdicts
into graph edges) — plus the driver's test tiers (ziv / siv / rdiv / miv
/ delta) inside *test*.  A :class:`PhaseProfile` accumulates
wall seconds and call counts for each, so ``repro-deps analyze --profile``
and the benchmark harness can show where a corpus run actually spends its
time instead of guessing from aggregate speedups.

Profiling is strictly opt-in: the engine carries ``profile=None`` by
default and every call site guards with ``if profile is not None``, so the
fast path pays nothing when observability is off.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List

#: Canonical display order for engine phases (unknown names sort after).
PHASE_ORDER = ("prepare", "test", "rehydrate", "edge-build")


class PhaseProfile:
    """Accumulated ``{name: (seconds, calls)}`` timing counters.

    ``phases`` covers the engine pipeline, ``tests`` the driver's test
    tiers.  Both are plain dicts of two-element lists so merging (the
    service folds per-request profiles) and JSON export stay trivial.
    """

    __slots__ = ("phases", "tests")

    def __init__(self) -> None:
        self.phases: Dict[str, List[float]] = {}
        self.tests: Dict[str, List[float]] = {}

    # -- accumulation ----------------------------------------------------

    def add_phase(self, name: str, seconds: float, calls: int = 1) -> None:
        """Credit ``seconds`` of wall time (over ``calls`` calls) to a phase."""
        slot = self.phases.get(name)
        if slot is None:
            self.phases[name] = [seconds, calls]
        else:
            slot[0] += seconds
            slot[1] += calls

    def add_test(self, tier: str, seconds: float) -> None:
        """Credit one application of test ``tier``."""
        slot = self.tests.get(tier)
        if slot is None:
            self.tests[tier] = [seconds, 1]
        else:
            slot[0] += seconds
            slot[1] += 1

    @contextmanager
    def phase(self, name: str):
        """Context manager timing one phase occurrence."""
        start = perf_counter()
        try:
            yield
        finally:
            self.add_phase(name, perf_counter() - start)

    # -- aggregation -----------------------------------------------------

    def merge(self, other: "PhaseProfile") -> None:
        """Fold another profile's counters into this one."""
        for name, (seconds, calls) in other.phases.items():
            self.add_phase(name, seconds, calls)
        for tier, (seconds, calls) in other.tests.items():
            slot = self.tests.get(tier)
            if slot is None:
                self.tests[tier] = [seconds, calls]
            else:
                slot[0] += seconds
                slot[1] += calls

    def reset(self) -> None:
        """Zero every counter."""
        self.phases.clear()
        self.tests.clear()

    def total_seconds(self) -> float:
        """Summed phase time (test-tier time is a subset of *test*/misses)."""
        return sum(seconds for seconds, _ in self.phases.values())

    def as_dict(self) -> dict:
        """Plain-dict form for JSON serialization."""
        return {
            "phases": {
                name: {"s": round(seconds, 6), "calls": calls}
                for name, (seconds, calls) in sorted(
                    self.phases.items(), key=lambda kv: _phase_rank(kv[0])
                )
            },
            "tests": {
                tier: {"s": round(seconds, 6), "calls": calls}
                for tier, (seconds, calls) in sorted(self.tests.items())
            },
        }

    def __str__(self) -> str:
        lines = ["phase timings:"]
        for name, (seconds, calls) in sorted(
            self.phases.items(), key=lambda kv: _phase_rank(kv[0])
        ):
            lines.append(f"  {name:<10} {seconds * 1e3:9.2f} ms  {calls:7d} calls")
        if self.tests:
            lines.append("test tiers:")
            for tier, (seconds, calls) in sorted(self.tests.items()):
                lines.append(
                    f"  {tier:<10} {seconds * 1e3:9.2f} ms  {calls:7d} calls"
                )
        return "\n".join(lines)


def _phase_rank(name: str):
    try:
        return (0, PHASE_ORDER.index(name))
    except ValueError:
        return (1, name)
