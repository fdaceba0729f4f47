"""Fault-tolerance tests: budgets, degradation, injection.

The load-bearing property mirrors the engine's contract: a dependence
verdict may be *independent* only when a test proved it, so every fault —
an in-test exception, an exhausted step budget, an unparsable routine —
must degrade to a conservative assumed-dependence edge (or a
skipped-and-reported routine), never to a lost pair or a spurious
independence.  Faults are injected deterministically through
:mod:`repro.engine.faultinject` (the ``REPRO_FAULTS`` hook).
"""

import pickle

import pytest

from repro.engine import (
    BudgetExceededError,
    CachedDriver,
    DeadlineExceededError,
    DependenceEngine,
    EngineFaultError,
    FailureRecord,
    FaultPolicy,
    PairTestError,
    StepBudget,
)
from repro.engine import faultinject
from repro.engine.faultinject import InjectedFaultError, parse_spec
from repro.engine.stats import EngineStats
from repro.fortran.parser import parse_fragment, parse_program
from repro.graph.depgraph import build_dependence_graph
from repro.instrument import TestRecorder

COUPLED = """
      do i = 1, 100
        do j = 1, 100
          A(i+1, i+j) = A(i, i+j-1)
        end do
      end do
"""

TWO_ARRAYS = """
      do i = 1, 100
        A(i+1) = A(i)
        B(i+2) = B(i)
      end do
"""

B_ONLY = """
      do i = 1, 100
        B(i+2) = B(i)
      end do
"""


def graph_signature(graph):
    edges = []
    for edge in graph.edges:
        edges.append(
            (
                edge.source.position,
                edge.sink.position,
                edge.dep_type.name,
                tuple(sorted(str(v) for v in edge.vectors)),
            )
        )
    edges.sort()
    return (graph.tested_pairs, graph.independent_pairs, tuple(edges))


def recorder_rows(recorder):
    return sorted(recorder.rows())


class TestStepBudget:
    def test_spend_within_limit(self):
        budget = StepBudget(3)
        budget.spend(2)
        assert budget.remaining == 1

    def test_exhaustion_raises(self):
        budget = StepBudget(2)
        budget.spend(2)
        with pytest.raises(BudgetExceededError):
            budget.spend(1)

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            StepBudget(0)


class TestFaultSpecParsing:
    def test_full_spec(self):
        plan = parse_spec("pair-delay:5.5,store-die:2,pair-error:A,routine-error:S")
        assert plan.pair_delay == 5.5
        assert plan.store_die == 2
        assert plan.pair_arrays == frozenset({"a"})
        assert plan.routines == frozenset({"s"})

    def test_unknown_and_malformed_directives_ignored(self):
        plan = parse_spec("explode:now,store-die:x,,pair-error:b")
        assert plan.store_die is None
        assert plan.pair_arrays == frozenset({"b"})

    def test_empty_env_means_no_plan(self, monkeypatch):
        monkeypatch.delenv(faultinject.ENV_VAR, raising=False)
        assert faultinject.active_plan() is None


class TestFailureReporting:
    def test_record_str_and_dict(self):
        record = FailureRecord("budget", "A(i) -> A(i+1)", "exhausted")
        assert "[budget]" in str(record)
        assert record.as_dict()["kind"] == "budget"

    def test_stats_kind_counters_and_report(self):
        stats = EngineStats()
        assert not stats.degraded
        stats.record_failure(FailureRecord("pair", "A(i) -> A(i+1)", "boom"))
        stats.record_failure(FailureRecord("budget", "B(i) -> B(i)", "slow"))
        stats.record_failure(FailureRecord("routine", "s/p/r", "bad"))
        assert stats.routines_skipped == 1
        assert stats.degraded
        report = stats.failure_report()
        assert "fault report: 3 failure(s)" in report
        assert "[pair] A(i) -> A(i+1)" in report

    def test_merge_carries_failures(self):
        a, b = EngineStats(), EngineStats()
        b.record_failure(FailureRecord("pair", "x", "y"))
        b.assumed = 2
        a.merge(b)
        assert len(a.failures) == 1 and a.assumed == 2


def _fault_classes(base=EngineFaultError):
    found = {base}
    for sub in base.__subclasses__():
        found |= _fault_classes(sub)
    return found


class TestFaultPickling:
    """A --strict abort raised in a corpus pool worker reaches the parent
    pickled; it must arrive as the same error."""

    ERRORS = [
        EngineFaultError("engine fault"),
        PairTestError("a -> b", "boom"),
        BudgetExceededError(10),
        DeadlineExceededError(1.5),
    ]

    def test_every_fault_class_is_covered(self):
        assert {type(error) for error in self.ERRORS} == _fault_classes()

    @pytest.mark.parametrize("error", ERRORS, ids=lambda e: type(e).__name__)
    def test_round_trip_keeps_type_message_and_fields(self, error):
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error)
        assert str(copy) == str(error)
        assert copy.args == error.args
        assert vars(copy) == vars(error)


class TestBudgetDegradation:
    def test_exhausted_budget_becomes_assumed_dependence(self):
        nodes = parse_fragment(COUPLED)
        driver = CachedDriver(policy=FaultPolicy(pair_budget=1))
        recorder = TestRecorder()
        graph = build_dependence_graph(nodes, recorder=recorder, tester=driver)
        # Nothing may be proved independent by a budget trip, and every
        # faulted pair shows up as an all-directions assumed edge.
        assert graph.independent_pairs == 0
        assert graph.edges and all(edge.assumed for edge in graph.edges)
        assert driver.stats.assumed == graph.tested_pairs
        assert {r.kind for r in driver.stats.failures} == {"budget"}
        # Partial test counters from the aborted runs are discarded.
        assert recorder_rows(recorder) == recorder_rows(TestRecorder())

    def test_strict_budget_raises_pair_test_error(self):
        nodes = parse_fragment(COUPLED)
        driver = CachedDriver(policy=FaultPolicy(strict=True, pair_budget=1))
        with pytest.raises(PairTestError) as info:
            build_dependence_graph(nodes, tester=driver)
        assert "BudgetExceededError" in str(info.value)

    def test_default_budget_does_not_trip(self):
        nodes = parse_fragment(COUPLED)
        driver = CachedDriver(policy=FaultPolicy())
        graph = build_dependence_graph(nodes, tester=driver)
        assert not driver.stats.degraded
        assert not any(edge.assumed for edge in graph.edges)


class TestPairErrorInjection:
    def test_faulted_pairs_assumed_and_counters_match_clean_run(
        self, monkeypatch
    ):
        # The A and B statement populations share no candidate pairs, so a
        # run with every A pair faulted must leave counters byte-identical
        # to a clean run over the B statement alone.
        monkeypatch.setenv(faultinject.ENV_VAR, "pair-error:a")
        faulted = TestRecorder()
        driver = CachedDriver(policy=FaultPolicy())
        graph = build_dependence_graph(
            parse_fragment(TWO_ARRAYS), recorder=faulted, tester=driver
        )
        monkeypatch.delenv(faultinject.ENV_VAR)
        clean = TestRecorder()
        clean_graph = build_dependence_graph(
            parse_fragment(B_ONLY), recorder=clean, tester=CachedDriver()
        )
        assert recorder_rows(faulted) == recorder_rows(clean)
        a_edges = [e for e in graph.edges if e.source.ref.array == "a"]
        b_edges = [e for e in graph.edges if e.source.ref.array == "b"]
        assert a_edges and all(edge.assumed for edge in a_edges)
        assert b_edges and not any(edge.assumed for edge in b_edges)
        assert graph.independent_pairs == clean_graph.independent_pairs
        assert all(r.kind == "pair" for r in driver.stats.failures)
        assert "InjectedFaultError" in driver.stats.failures[0].error

    def test_assumed_verdicts_do_not_contaminate_identical_pairs(
        self, monkeypatch
    ):
        # A(i+1)=A(i) and B(i+1)=B(i) share one canonical key; the faulted
        # A verdict must not be served from cache to the healthy B pair.
        monkeypatch.setenv(faultinject.ENV_VAR, "pair-error:a")
        driver = CachedDriver(policy=FaultPolicy())
        graph = build_dependence_graph(
            parse_fragment(
                """
      do i = 1, 100
        A(i+1) = A(i)
        B(i+1) = B(i)
      end do
"""
            ),
            tester=driver,
        )
        b_edges = [e for e in graph.edges if e.source.ref.array == "b"]
        assert b_edges and not any(edge.assumed for edge in b_edges)

    def test_strict_mode_raises(self, monkeypatch):
        monkeypatch.setenv(faultinject.ENV_VAR, "pair-error:a")
        driver = CachedDriver(policy=FaultPolicy(strict=True))
        with pytest.raises(PairTestError):
            build_dependence_graph(parse_fragment(TWO_ARRAYS), tester=driver)


class TestRoutineIsolation:
    PROGRAM = """
      subroutine good(a, n)
      real a(100)
      do 10 i = 1, n
         a(i+1) = a(i)
 10   continue
      end
      subroutine bad(b, n)
      real b(100)
      do 20 i = 1, n
         b(i+1) = b(i)
 20   continue
      end
"""

    def test_study_skips_faulted_routine_and_reports(self, monkeypatch):
        from repro.study import tables

        program = parse_program(self.PROGRAM, name="prog")
        monkeypatch.setattr(
            tables, "load_corpus", lambda suites=None: {"fake": [program]}
        )
        monkeypatch.setenv(faultinject.ENV_VAR, "routine-error:bad")
        engine = DependenceEngine()
        rows = tables.table3(engine=engine)
        assert engine.stats.routines_skipped == 1
        assert any(
            r.kind == "routine" and "bad" in r.where
            for r in engine.stats.failures
        )
        # The healthy routine's pairs still got tested.
        assert rows[0].pairs_tested > 0
        assert "fault report" in engine.stats.failure_report()

    def test_strict_study_propagates(self, monkeypatch):
        from repro.study import tables

        program = parse_program(self.PROGRAM, name="prog")
        monkeypatch.setattr(
            tables, "load_corpus", lambda suites=None: {"fake": [program]}
        )
        monkeypatch.setenv(faultinject.ENV_VAR, "routine-error:bad")
        engine = DependenceEngine(policy=FaultPolicy(strict=True))
        with pytest.raises(InjectedFaultError):
            tables.table3(engine=engine)
