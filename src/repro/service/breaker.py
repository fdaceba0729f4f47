"""Circuit breakers for the service's fallible collaborators.

The long-running service wraps its unreliable collaborator — the
persistent verdict store — in a :class:`CircuitBreaker`.
The pattern is the classic three-state machine:

* **closed** — normal operation; failures are counted within a sliding
  window.  Enough failures close together trip the breaker.
* **open** — the collaborator is bypassed entirely (store detached →
  memory-only caching).  Requests keep
  succeeding, just degraded.  After ``reset_timeout`` seconds the breaker
  becomes willing to probe.
* **half-open** — exactly one probe is allowed through to the real
  collaborator.  Success closes the breaker (full service restored);
  failure re-opens it and restarts the timer.

Tripping is *load-shedding for a dependency*: it converts a storm of
per-request failures (each one a degraded verdict and a logged fault)
into one mode switch, and converts recovery from "every request retries
the broken store" into one cheap periodic probe.

The clock is injectable so the state machine is testable without
sleeping.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Sliding-window failure counter with open/half-open/closed states.

    Not thread-safe by itself: the service mutates it only from the event
    loop thread (analysis threads report outcomes back to the loop).
    """

    def __init__(
        self,
        name: str,
        failure_threshold: int = 3,
        window: float = 30.0,
        reset_timeout: float = 2.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.name = name
        self.failure_threshold = failure_threshold
        self.window = window
        self.reset_timeout = reset_timeout
        self._clock = clock
        self.state = CLOSED
        self.opened_at = 0.0
        self.trips = 0
        self.probes = 0
        self.total_failures = 0
        self._recent: List[float] = []

    def _prune(self, now: float) -> None:
        cutoff = now - self.window
        self._recent = [t for t in self._recent if t > cutoff]

    def record_failure(self, count: int = 1) -> bool:
        """Count ``count`` failures; returns True when this call trips.

        In the half-open state any failure means the probe failed: the
        breaker re-opens immediately and the reset timer restarts.
        """
        if count <= 0:
            return False
        now = self._clock()
        self.total_failures += count
        if self.state == HALF_OPEN:
            self.state = OPEN
            self.opened_at = now
            self._recent = []
            return True
        if self.state == OPEN:
            return False
        self._recent.extend([now] * count)
        self._prune(now)
        if len(self._recent) >= self.failure_threshold:
            self.state = OPEN
            self.opened_at = now
            self.trips += 1
            self._recent = []
            return True
        return False

    def trip(self) -> None:
        """Force the breaker open (e.g. the collaborator is already gone).

        Used when a lower layer has unilaterally abandoned the
        collaborator — the engine's driver detaches a failing store on
        its own — so the breaker's view must catch up regardless of how
        many failures its window has seen.
        """
        if self.state != OPEN:
            self.state = OPEN
            self.trips += 1
        self.opened_at = self._clock()
        self._recent = []

    def record_success(self) -> bool:
        """Report a successful interaction; returns True when this closes.

        A half-open success closes the breaker.  Closed successes clear
        the failure window, so only failure *bursts* trip it.
        """
        if self.state == HALF_OPEN:
            self.state = CLOSED
            self._recent = []
            return True
        if self.state == CLOSED:
            self._recent = []
        return False

    @property
    def allows(self) -> bool:
        """True while the collaborator may be used (closed or probing)."""
        return self.state != OPEN

    def should_probe(self) -> bool:
        """True exactly once per reset interval: moves open → half-open.

        The caller that receives True owns the probe; concurrent callers
        see False until the probe reports success or failure.
        """
        if self.state != OPEN:
            return False
        if self._clock() - self.opened_at < self.reset_timeout:
            return False
        self.state = HALF_OPEN
        self.probes += 1
        return True

    def as_dict(self) -> Dict[str, object]:
        """Health-endpoint form."""
        return {
            "state": self.state,
            "trips": self.trips,
            "probes": self.probes,
            "failures": self.total_failures,
        }

    def __str__(self) -> str:
        return f"breaker[{self.name}]: {self.state} ({self.trips} trips)"
