"""Fault taxonomy, per-pair budgets, and degradation policy.

Dependence testing is only usable at corpus scale if it is *conservative
under failure*: the suite may answer "no dependence" only when a test
proves it, so a crash or resource blow-up anywhere in the engine must
degrade to "assume dependence" — never to a lost routine or a missing
pair.  This module is the shared vocabulary of that guarantee:

* the exception taxonomy (:class:`PairTestError`,
  :class:`BudgetExceededError`, :class:`DeadlineExceededError`) raised
  when strict mode forbids degradation;
* :class:`FailureRecord` — the structured report of one absorbed failure,
  accumulated on :class:`~repro.engine.stats.EngineStats` and surfaced by
  ``repro-deps analyze``/``study``;
* :class:`StepBudget` — a step counter threaded through the driver and
  the Delta test so one pathological pair cannot monopolize the process;
* :class:`FaultPolicy` — the knobs: strict vs degrade, per-pair budget.

The module is a deliberate leaf: it imports nothing from the rest of the
package, so the core driver and the Delta test can raise and catch these
types without import cycles.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

#: Default per-pair step budget.  One "step" is a partition dispatch or
#: one Delta reduction-pass unit; a typical pair spends fewer than ten,
#: the nastiest coupled groups a few hundred, so the default only ever
#: trips on genuinely pathological inputs.
DEFAULT_PAIR_BUDGET = 100_000

#: Environment override for the per-pair step budget (integer; ``0``
#: disables budgeting entirely).
BUDGET_ENV_VAR = "REPRO_PAIR_BUDGET"


class EngineFaultError(Exception):
    """Base class of every fault the engine can convert to degradation.

    Subclasses that take constructor arguments other than the message
    define ``__reduce__`` to rebuild from them: a ``--strict`` abort
    raised in a ``corpus run`` pool worker reaches the parent pickled.
    """


class PairTestError(EngineFaultError):
    """A dependence test on one reference pair failed (strict mode only).

    In the default degrade mode the same failure becomes a conservative
    assumed-dependence verdict plus a :class:`FailureRecord`.
    """

    def __init__(self, where: str, reason: str):
        super().__init__(f"dependence test failed for {where}: {reason}")
        self.where = where
        self.reason = reason

    def __reduce__(self):
        return type(self), (self.where, self.reason)


class BudgetExceededError(EngineFaultError):
    """A pair exhausted its step budget mid-test."""

    def __init__(self, limit: int):
        super().__init__(f"step budget of {limit} exhausted")
        self.limit = limit

    def __reduce__(self):
        return type(self), (self.limit,)


class DeadlineExceededError(EngineFaultError):
    """A request-scoped deadline expired mid-test.

    Raised by a :class:`StepBudget` carrying a :class:`Deadline`: each
    pair that spends a step after expiry degrades immediately to a
    conservative assumed-dependence verdict, so a timed-out request
    finishes fast with partial (assumed) results instead of hanging —
    and never with a spurious independence.
    """

    def __init__(self, seconds: float):
        super().__init__(f"deadline of {seconds:.3f}s exceeded")
        self.seconds = seconds

    def __reduce__(self):
        return type(self), (self.seconds,)


class Deadline:
    """A wall-clock expiry shared by every pair of one request.

    Unlike :class:`StepBudget` (per pair, work-based, deterministic),
    a deadline is request-scoped and time-based: the analysis service
    attaches one to the driver for the duration of a request, and every
    budget minted while it is installed checks it on each spend.  The
    clock is injectable for tests.
    """

    __slots__ = ("seconds", "expires_at", "_clock")

    def __init__(
        self, seconds: float, clock: Callable[[], float] = time.monotonic
    ):
        if seconds <= 0:
            raise ValueError(f"deadline must be positive, got {seconds}")
        self.seconds = seconds
        self._clock = clock
        self.expires_at = clock() + seconds

    def expired(self) -> bool:
        return self._clock() >= self.expires_at

    def remaining(self) -> float:
        """Seconds left (never negative)."""
        return max(self.expires_at - self._clock(), 0.0)

    def check(self) -> None:
        """Raise :class:`DeadlineExceededError` when expired."""
        if self.expired():
            raise DeadlineExceededError(self.seconds)

    def __repr__(self) -> str:
        return f"Deadline({self.seconds}s, {self.remaining():.3f}s left)"


class StepBudget:
    """A per-pair step counter that trips :class:`BudgetExceededError`.

    The driver charges one unit per partition dispatch and the Delta test
    charges per reduction pass (scaled by pending subscripts), so runaway
    multipass reductions and degenerate symbolic systems are bounded by
    *work done*, not wall-clock — deterministic across machines.  The
    object is duck-typed on purpose: the core driver never imports this
    module, it just calls ``budget.spend(n)`` when handed one.

    An optional :class:`Deadline` piggybacks on the same spend hook: a
    request-scoped expiry is checked at every charge, so one slow pair
    cannot carry a request past its deadline by more than a step.
    """

    __slots__ = ("limit", "used", "deadline")

    def __init__(self, limit: int, deadline: Optional[Deadline] = None):
        if limit < 1:
            raise ValueError(f"budget limit must be positive, got {limit}")
        self.limit = limit
        self.used = 0
        self.deadline = deadline

    def spend(self, steps: int = 1) -> None:
        """Charge ``steps`` units; raises when the budget is exhausted."""
        self.used += steps
        if self.used > self.limit:
            raise BudgetExceededError(self.limit)
        if self.deadline is not None:
            self.deadline.check()

    @property
    def remaining(self) -> int:
        return max(self.limit - self.used, 0)

    def __repr__(self) -> str:
        return f"StepBudget(used={self.used}, limit={self.limit})"


@dataclass(frozen=True)
class FailureRecord:
    """One absorbed failure, in report-ready form.

    ``kind`` is the failure class — ``"pair"`` (an in-test exception),
    ``"budget"`` (step budget exhausted), ``"deadline"`` (a request's
    wall-clock deadline expired mid-test), ``"routine"`` (a whole routine
    skipped), ``"store"`` (a persistent-store write failed and the run
    degraded to memory-only caching), or ``"pool"`` (a ``corpus run``
    worker pool broke and the walk finished in-process).
    ``where`` locates it (pair description or suite/program/routine
    path); ``error`` is the stringified cause.
    """

    kind: str
    where: str
    error: str

    def as_dict(self) -> dict:
        return {"kind": self.kind, "where": self.where, "error": self.error}

    def __str__(self) -> str:
        return f"[{self.kind}] {self.where}: {self.error}"


def failure_kind(exc: BaseException) -> str:
    """The :class:`FailureRecord` kind for an exception instance."""
    if isinstance(exc, DeadlineExceededError):
        return "deadline"
    if isinstance(exc, BudgetExceededError):
        return "budget"
    return "pair"


def describe_error(exc: BaseException) -> str:
    """Compact ``Type: message`` rendering for failure records."""
    text = str(exc)
    name = type(exc).__name__
    return f"{name}: {text}" if text else name


def _env_budget() -> Optional[int]:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_PAIR_BUDGET
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_PAIR_BUDGET
    return value if value > 0 else None


@dataclass
class FaultPolicy:
    """How the engine reacts to faults.

    ``strict=False`` (the default) degrades: per-pair failures become
    conservative assumed-dependence edges and unparsable routines are
    skipped with a report.  ``strict=True`` fails fast instead, raising
    the taxonomy above (the CLI maps it to a distinct exit code).

    ``pair_budget`` is the per-pair step allowance (None disables
    budgeting).
    """

    strict: bool = False
    pair_budget: Optional[int] = field(default_factory=_env_budget)

    @classmethod
    def from_env(cls, strict: bool = False) -> "FaultPolicy":
        """A policy with environment overrides applied (see module env vars)."""
        return cls(strict=strict)


#: Shared default policy (degrade mode, env-tuned budget).
DEFAULT_POLICY = FaultPolicy()
