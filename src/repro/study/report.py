"""One-shot study report: every table plus the headline comparisons."""

from __future__ import annotations

from typing import List, Optional

from repro.baselines.subscript_by_subscript import (
    test_dependence_lambda,
    test_dependence_power,
    test_dependence_subscript_by_subscript,
)
from repro.corpus.loader import default_symbols, load_corpus
from repro.graph.depgraph import build_dependence_graph
from repro.study.tablefmt import render_table
from repro.study.tables import (
    corpus_stats,
    render_table1,
    render_table2,
    render_table3,
    table1,
    table2,
    table3,
)


def precision_comparison(
    suites: Optional[List[str]] = None, engine=None
) -> str:
    """Independent-pairs comparison: paper's suite vs the baselines.

    Reproduces the Section 7.4 claim that multiple-subscript testing (the
    Delta test) proves more coupled independences than subscript-by-
    subscript testing, at far lower cost than the Power test.

    The partition+delta column runs through the (cached) engine; the
    baseline testers have no canonical form and run uncached.  Routine-level failures (in either the
    engine or a baseline tester) skip that routine for that tester and
    land in the engine's fault report, unless the policy is strict.
    """
    from repro.engine import DependenceEngine
    from repro.engine.faults import FailureRecord, describe_error

    symbols = default_symbols()
    corpus = load_corpus(suites)
    if engine is None:
        engine = DependenceEngine(symbols=symbols)
    testers = (
        ("partition+delta", None),
        ("subscript-by-subscript", test_dependence_subscript_by_subscript),
        ("lambda", test_dependence_lambda),
        ("power", test_dependence_power),
    )
    rows = []
    for suite, programs in corpus.items():
        cells: List[object] = [suite]
        for tester_name, tester in testers:
            tested = independent = 0
            for program in programs:
                for routine in program.routines:
                    try:
                        if tester is None:
                            graph = engine.build_graph(routine.body)
                        else:
                            graph = build_dependence_graph(
                                routine.body, symbols=symbols, tester=tester
                            )
                    except Exception as exc:
                        if engine.policy.strict:
                            raise
                        engine.stats.record_failure(
                            FailureRecord(
                                "routine",
                                f"{suite}/{program.name}/{routine.name}"
                                f" ({tester_name})",
                                describe_error(exc),
                            )
                        )
                        continue
                    tested += graph.tested_pairs
                    independent += graph.independent_pairs
            cells.append(f"{independent}/{tested}")
        rows.append(tuple(cells))
    headers = ("suite",) + tuple(name for name, _ in testers)
    return render_table(
        headers, rows, "Independent pairs proved by each testing strategy"
    )


def full_report(suites: Optional[List[str]] = None, engine=None) -> str:
    """All tables and comparisons as one text report.

    One engine serves every section, so its cache stays warm across them
    and every absorbed failure lands in a single fault report, appended
    as a final section when anything degraded.
    """
    from repro.engine import DependenceEngine

    if engine is None:
        engine = DependenceEngine(symbols=default_symbols())
    stats = corpus_stats(suites)
    sections = [
        render_table1(table1(stats)),
        render_table2(table2(stats)),
        render_table3(table3(suites, engine=engine)),
        precision_comparison(suites, engine=engine),
    ]
    if engine.stats.degraded:
        sections.append(engine.stats.failure_report())
    return "\n\n".join(sections)
