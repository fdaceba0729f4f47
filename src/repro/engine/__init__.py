"""High-throughput dependence engine.

The paper's empirical observation — real programs are dominated by a small
number of structurally identical subscript shapes — makes corpus-wide
dependence testing an ideal memoization target.  This package exploits it:

* :mod:`repro.engine.canonical` — alpha-renames a
  :class:`~repro.classify.pairs.PairContext` into a hashable *canonical
  pair key* so structurally identical pairs share one test, and converts
  driver results to/from a name-free canonical form that can cross cache
  and process boundaries;
* :mod:`repro.engine.cache` — an LRU cache over
  :func:`~repro.core.driver.test_dependence` keyed by canonical pair keys,
  with hit/miss/eviction counters in an :class:`EngineStats`;
* :mod:`repro.engine.profile` — opt-in per-phase and per-test-tier wall
  timing (:class:`PhaseProfile`), surfaced by ``repro-deps analyze
  --profile``;
* :mod:`repro.engine.faults` — the fault taxonomy
  (:class:`PairTestError`, :class:`BudgetExceededError`, …), the per-pair
  :class:`StepBudget`, the structured :class:`FailureRecord`, and the
  :class:`FaultPolicy` knobs (strict vs. degrade, budgets);
* :mod:`repro.engine.faultinject` — the deterministic fault-injection
  harness behind the ``REPRO_FAULTS`` environment hook (test-only);
* :mod:`repro.engine.store` — :class:`VerdictStore`, a crash-safe
  on-disk verdict store (a directory holding one append-only segment of
  CRC-checked length-prefixed records; a per-batch lock, so any number
  of concurrent processes share one store; corrupt tails truncated on
  open) serving as a persistent second cache tier.  A store that fails
  is detached and the run continues memory-only, so a killed
  ``--store`` run's successor replays every verdict its last checkpoint
  made durable;
* :mod:`repro.engine.engine` — the :class:`DependenceEngine` facade the
  CLI, the study harness, and the benchmarks drive.

The uncached and cached builds produce byte-identical dependence graphs
and recorder statistics; ``tests/test_engine.py`` holds the parity
property tests.  Failures never change a verdict from dependent to
independent: any absorbed fault degrades the affected pair to a
conservative assumed-dependence edge (``tests/test_faults.py``).
"""

from repro.engine.canonical import (
    CacheEntry,
    canonical_pair_key,
    canonicalize_result,
    rehydrate_result,
    rename_map,
)
from repro.engine.cache import CachedDriver
from repro.engine.engine import DependenceEngine
from repro.engine.faults import (
    BudgetExceededError,
    Deadline,
    DeadlineExceededError,
    EngineFaultError,
    FailureRecord,
    FaultPolicy,
    PairTestError,
    StepBudget,
)
from repro.engine.profile import PhaseProfile
from repro.engine.stats import EngineStats
from repro.engine.store import (
    StoreError,
    StoreLockError,
    StoreReport,
    VerdictStore,
)

__all__ = [
    "BudgetExceededError",
    "CacheEntry",
    "CachedDriver",
    "Deadline",
    "DeadlineExceededError",
    "DependenceEngine",
    "EngineFaultError",
    "EngineStats",
    "FailureRecord",
    "FaultPolicy",
    "PairTestError",
    "PhaseProfile",
    "StepBudget",
    "StoreError",
    "StoreLockError",
    "StoreReport",
    "VerdictStore",
    "canonical_pair_key",
    "canonicalize_result",
    "rehydrate_result",
    "rename_map",
]
