"""The paper's evaluation tables, regenerated over the corpus.

* **Table 1** — complexity of array subscripts: per program, source lines,
  number of routines, the dimensionality histogram of tested reference
  pairs, and the separable / coupled / nonlinear partition counts.
* **Table 2** — classification of subscripts: ZIV / strong SIV / weak-zero
  / weak-crossing / weak SIV / RDIV / MIV / nonlinear counts per suite,
  plus the same breakdown restricted to coupled groups.
* **Table 3** — dependence tests applied and independences proved, per
  test, per suite (from an instrumented full-driver run).

Each ``tableN()`` function returns structured rows; ``render_tableN()``
formats them as the text tables the CLI and benchmarks print.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.classify.subscript import SubscriptKind
from repro.corpus.loader import default_symbols, load_corpus
from repro.engine import faultinject
from repro.engine.faults import FailureRecord, describe_error
from repro.instrument import TestRecorder
from repro.ir.context import SymbolEnv
from repro.ir.program import Program
from repro.study.stats import ProgramStats, collect_program_stats, suite_totals
from repro.study.tablefmt import render_table

KIND_ORDER = (
    SubscriptKind.ZIV,
    SubscriptKind.SIV_STRONG,
    SubscriptKind.SIV_WEAK_ZERO,
    SubscriptKind.SIV_WEAK_CROSSING,
    SubscriptKind.SIV_WEAK,
    SubscriptKind.RDIV,
    SubscriptKind.MIV,
    SubscriptKind.NONLINEAR,
)


def corpus_stats(
    suites: Optional[List[str]] = None, symbols: Optional[SymbolEnv] = None
) -> Dict[str, List[ProgramStats]]:
    """Classify the whole corpus; per-suite lists of per-program stats."""
    symbols = symbols or default_symbols()
    corpus = load_corpus(suites)
    return {
        suite: [collect_program_stats(p, symbols) for p in programs]
        for suite, programs in corpus.items()
    }


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------


def table1(
    stats: Optional[Dict[str, List[ProgramStats]]] = None,
) -> List[ProgramStats]:
    """Rows of Table 1: per-program stats plus per-suite totals."""
    stats = stats or corpus_stats()
    rows: List[ProgramStats] = []
    for suite, programs in stats.items():
        rows.extend(programs)
        rows.append(suite_totals(programs, suite))
    return rows


def render_table1(rows: Optional[List[ProgramStats]] = None) -> str:
    """Table 1 as text."""
    rows = rows if rows is not None else table1()
    headers = (
        "program", "suite", "lines", "routines", "pairs",
        "1-dim", "2-dim", "3+dim", "separable", "coupled", "nonlinear",
    )
    body = [
        (
            r.name, r.suite, r.lines, r.routines, r.pairs_tested,
            r.dimension_histogram.get(1, 0),
            r.dimension_histogram.get(2, 0),
            r.dimension_histogram.get(3, 0),
            r.separable, r.coupled, r.nonlinear,
        )
        for r in rows
    ]
    return render_table(headers, body, "Table 1: complexity of array subscripts")


# ---------------------------------------------------------------------------
# Table 2
# ---------------------------------------------------------------------------


@dataclass
class Table2Row:
    """Per-suite subscript classification counts."""

    suite: str
    counts: Counter
    coupled_counts: Counter

    def total(self) -> int:
        return sum(self.counts.values())


def table2(
    stats: Optional[Dict[str, List[ProgramStats]]] = None,
) -> List[Table2Row]:
    """Rows of Table 2: per-suite classification counts."""
    stats = stats or corpus_stats()
    rows = []
    for suite, programs in stats.items():
        total = suite_totals(programs, suite)
        rows.append(Table2Row(suite, total.kind_counts, total.coupled_kind_counts))
    return rows


def render_table2(rows: Optional[List[Table2Row]] = None) -> str:
    """Table 2 as text (all subscripts, then coupled-only)."""
    rows = rows if rows is not None else table2()
    headers = ("suite",) + tuple(str(kind) for kind in KIND_ORDER) + ("total",)
    body = [
        (row.suite,)
        + tuple(row.counts.get(kind, 0) for kind in KIND_ORDER)
        + (row.total(),)
        for row in rows
    ]
    first = render_table(headers, body, "Table 2: classification of subscripts")
    coupled_body = [
        (row.suite,)
        + tuple(row.coupled_counts.get(kind, 0) for kind in KIND_ORDER)
        + (sum(row.coupled_counts.values()),)
        for row in rows
    ]
    second = render_table(
        headers, coupled_body, "Table 2b: classification within coupled groups"
    )
    return first + "\n\n" + second


# ---------------------------------------------------------------------------
# Table 3
# ---------------------------------------------------------------------------


@dataclass
class Table3Row:
    """Per-suite, per-test application and independence counts."""

    suite: str
    recorder: TestRecorder
    pairs_tested: int
    pairs_independent: int


def table3(
    suites: Optional[List[str]] = None,
    symbols: Optional[SymbolEnv] = None,
    engine=None,
) -> List[Table3Row]:
    """Run the instrumented driver over the corpus; per-suite recorders.

    One :class:`~repro.engine.engine.DependenceEngine` serves the whole
    corpus, so canonical cache entries accumulate across suites; its
    recorder parity guarantees the counts match an uncached run.  Pass
    ``engine`` to share one across report sections (and to choose a
    fault policy).

    Routines are isolated: a routine whose whole graph build fails —
    something even the engine's per-pair degradation could not absorb —
    is skipped and reported as a ``routine`` failure in the engine's
    stats instead of aborting the study.  Under a strict policy the
    failure propagates.
    """
    from repro.engine import DependenceEngine

    symbols = symbols or default_symbols()
    corpus = load_corpus(suites)
    if engine is None:
        engine = DependenceEngine(symbols=symbols)
    rows: List[Table3Row] = []
    for suite, programs in corpus.items():
        recorder = TestRecorder()
        tested = independent = 0
        for program in programs:
            for routine in program.routines:
                try:
                    faultinject.on_routine(routine.name)
                    graph = engine.build_graph(routine.body, recorder=recorder)
                except Exception as exc:
                    if engine.policy.strict:
                        raise
                    engine.stats.record_failure(
                        FailureRecord(
                            "routine",
                            f"{suite}/{program.name}/{routine.name}",
                            describe_error(exc),
                        )
                    )
                    continue
                tested += graph.tested_pairs
                independent += graph.independent_pairs
                # Per-routine durability barrier: a killed ``--store``
                # run keeps every routine it finished.
                engine.driver.flush()
        rows.append(Table3Row(suite, recorder, tested, independent))
    return rows


def render_table3(rows: Optional[List[Table3Row]] = None) -> str:
    """Table 3 as text."""
    rows = rows if rows is not None else table3()
    test_names = sorted(
        {name for row in rows for name in row.recorder.applications}
    )
    headers = ("suite",) + tuple(
        f"{name} (app/ind)" for name in test_names
    ) + ("pairs", "indep pairs")
    body = []
    for row in rows:
        cells: List[object] = [row.suite]
        for name in test_names:
            apps = row.recorder.applications.get(name, 0)
            inds = row.recorder.independences.get(name, 0)
            cells.append(f"{apps}/{inds}")
        cells.append(row.pairs_tested)
        cells.append(row.pairs_independent)
        body.append(tuple(cells))
    return render_table(
        headers, body, "Table 3: dependence tests applied / independences proved"
    )
