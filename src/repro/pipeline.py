"""One routine pipeline behind every entry point.

``analyze``, ``vectorize``, ``serve``, ``corpus run`` (in-process and in
its pool workers) and the corpus loader read source through
:func:`parse_source`, so each of them runs the paper's prepass — scalars
forward-substituted, auxiliary induction variables replaced by linear
functions of the loop indices (Section 1.5) — before any subscript is
tested.  Without it a loop-variant scalar subscript reads as an
invariant symbol and a real dependence can be called independent.

``analyze``, ``serve`` and ``corpus run`` analyze each routine with
:func:`analyze_routine` and report it in one JSON encoding: the
service's ``routines[i]`` object, with statement ids renumbered densely
per routine, so a report is a function of the routine's source and not
of which process or parse produced it.  :func:`report_text` renders the
encoding.  ``analyze`` and ``client`` print a routine under a
``== routine NAME ==`` header (:func:`render_routine`), a corpus report
under ``-- routine NAME --``.

This module does not import :mod:`repro.service`: that package's
``__init__`` loads the asyncio server, which only ``serve`` and
``client`` need.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.dirvec.vectors import format_vector
from repro.engine import faultinject
from repro.engine.engine import DependenceEngine
from repro.engine.faults import EngineFaultError, describe_error
from repro.fortran.parser import parse_program
from repro.graph.depgraph import DependenceGraph
from repro.ir.loop import Node
from repro.ir.normalize import normalize_program
from repro.ir.program import Program, Routine
from repro.ir.scalars import substitute_scalars_program
from repro.transform.parallel import LoopParallelism, find_parallel_loops
from repro.transform.peel import find_peeling_opportunities
from repro.transform.split import find_splitting_opportunities


def parse_source(
    source: Union[str, bytes], name: str, suite: Optional[str] = None
) -> Program:
    """Decode, parse, substitute scalars in and normalize one file.

    Raises :class:`~repro.fortran.errors.FortranSyntaxError` on malformed
    source and :class:`UnicodeDecodeError` on bytes that are not UTF-8.
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    program = parse_program(source, name=name, suite=suite)
    return normalize_program(substitute_scalars_program(program))


def analyze_routine(
    engine: DependenceEngine,
    routine: Routine,
    build: Callable[[Sequence[Node]], DependenceGraph],
    transforms: bool = False,
) -> Dict[str, Any]:
    """One routine's report, in the JSON encoding.

    ``build`` makes the routine's graph: ``engine.build_graph``, or a
    partial of it or of ``engine.serve_build`` carrying the caller's
    recorder, deadline and request stats.  Loop verdicts and, with
    ``transforms``, the peeling and splitting suggestions come from that
    graph under ``engine.symbols``.

    Engine faults, and any crash under a strict policy, propagate (the
    CLI exits 3).  Any other crash quarantines the routine: the report
    is ``{"name", "error"}`` and the caller records the failure where
    its own fault report will show it.
    """
    symbols = engine.symbols
    body = routine.body
    try:
        faultinject.on_routine(routine.name)
        graph = build(body)
        entry = {
            "name": routine.name,
            "graph": graph_payload(graph),
            "parallel_loops": parallelism_payload(
                find_parallel_loops(body, symbols, graph)
            ),
        }
        if transforms:
            suggestions = [
                *find_peeling_opportunities(body, symbols, graph),
                *find_splitting_opportunities(body, symbols, graph),
            ]
            entry["transforms"] = [str(s) for s in suggestions]
    except EngineFaultError:
        raise
    except Exception as exc:
        if engine.policy.strict:
            raise
        return {"name": routine.name, "error": describe_error(exc)}
    return entry


def graph_payload(graph: DependenceGraph) -> Dict[str, Any]:
    """JSON form of one routine's dependence graph.

    Statement ids are renumbered densely in access-site order: the
    parser's statement counter is process-global, so raw ids drift
    between parses, processes and server restarts.
    """
    stmt_ids: Dict[int, int] = {}
    for site in graph.sites:
        stmt_ids.setdefault(site.stmt.stmt_id, len(stmt_ids) + 1)
    edges = [
        {
            "type": str(edge.dep_type),
            "source": str(edge.source.ref),
            "sink": str(edge.sink.ref),
            "source_stmt": stmt_ids[edge.source.stmt.stmt_id],
            "sink_stmt": stmt_ids[edge.sink.stmt.stmt_id],
            "vectors": sorted(format_vector(v) for v in edge.vectors),
            "assumed": edge.assumed,
        }
        for edge in graph.edges
    ]
    return {
        "edges": edges,
        "tested_pairs": graph.tested_pairs,
        "independent_pairs": graph.independent_pairs,
    }


def parallelism_payload(verdicts: List[LoopParallelism]) -> List[Dict[str, Any]]:
    """JSON form of the per-loop parallelism verdicts."""
    return [
        {
            "loop": verdict.loop.index,
            "parallel": verdict.parallel,
            "blocking_edges": len(verdict.blocking_edges),
        }
        for verdict in verdicts
    ]


def report_text(entry: Dict[str, Any]) -> str:
    """The text of one routine's report, every line ending in a newline.

    The edges, the pair counts, one line per loop verdict, then any
    suggestions; for a quarantined routine, the one line saying why.
    """
    if "error" in entry:
        return f"routine skipped after failure: {entry['error']}\n"
    graph = entry["graph"]
    lines = []
    for edge in graph["edges"]:
        text = (
            f"{edge['type']} {edge['source']} (S{edge['source_stmt']})"
            f" -> {edge['sink']} (S{edge['sink_stmt']})"
            f" {{{', '.join(edge['vectors'])}}}"
        )
        if edge["assumed"]:
            text += " [assumed]"
        lines.append(text)
    lines.append(
        f"({graph['tested_pairs']} pairs tested, "
        f"{graph['independent_pairs']} independent)"
    )
    for verdict in entry["parallel_loops"]:
        if verdict["parallel"]:
            lines.append(f"DO {verdict['loop']}: PARALLEL")
        else:
            lines.append(
                f"DO {verdict['loop']}: serial "
                f"(blocked by {verdict['blocking_edges']} edges)"
            )
    lines.extend(entry.get("transforms", ()))
    lines.append("")
    return "\n".join(lines)


def render_routine(entry: Dict[str, Any]) -> str:
    """``analyze``'s and ``client``'s text for one routine: a header
    line, the report, a blank line."""
    return f"== routine {entry['name']} ==\n{report_text(entry)}\n"
