"""Request/response schema of the analysis service.

The service speaks JSON over HTTP.  One request carries one Fortran
kernel; one response carries the full dependence analysis — typed edges
with direction vectors, per-loop parallelism verdicts, recorder counters
— plus the degradation metadata that makes the service's conservative
contract auditable: every response says whether it is ``complete`` or
``degraded``, and a degraded response lists the absorbed failures that
forced assumed-dependence edges.  Degraded responses never drop edges;
they only *add* conservative ones, so a client consuming a degraded
response can still parallelize safely (it just parallelizes less).

The module is deliberately free of any server machinery so the client,
the server, and the tests share one encoding.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.dirvec.vectors import format_vector
from repro.engine.stats import EngineStats
from repro.graph.depgraph import DependenceEdge, DependenceGraph
from repro.instrument import TestRecorder
from repro.transform.parallel import LoopParallelism

#: Largest accepted request body, in bytes.  Kernels in the paper's corpus
#: are a few hundred lines; 2 MiB leaves two orders of magnitude of slack
#: while keeping a misbehaving client from ballooning the server.
MAX_BODY_BYTES = 2 * 1024 * 1024

#: Smallest accepted deadline.  Below this the request would expire before
#: the parser finishes and every answer would be fully assumed — reject it
#: up front instead of burning a slot on it.
MIN_DEADLINE_MS = 1.0


class ProtocolError(ValueError):
    """A malformed request (maps to HTTP 400)."""


@dataclass
class AnalyzeRequest:
    """One parsed, validated ``POST /analyze`` body.

    ``deadline_ms`` caps the request's wall-clock analysis time (``None``
    defers to the server default); ``include_input`` and ``transforms``
    mirror the CLI's ``analyze`` flags.
    """

    source: str
    name: str = "request"
    deadline_ms: Optional[float] = None
    include_input: bool = False
    transforms: bool = False

    @classmethod
    def from_payload(cls, payload: Any) -> "AnalyzeRequest":
        """Validate a decoded JSON body; raises :class:`ProtocolError`."""
        if not isinstance(payload, dict):
            raise ProtocolError("request body must be a JSON object")
        source = payload.get("source")
        if not isinstance(source, str) or not source.strip():
            raise ProtocolError('"source" must be a non-empty string')
        name = payload.get("name", "request")
        if not isinstance(name, str) or not name:
            raise ProtocolError('"name" must be a non-empty string')
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None:
            if not isinstance(deadline_ms, (int, float)) or isinstance(
                deadline_ms, bool
            ):
                raise ProtocolError('"deadline_ms" must be a number')
            if deadline_ms < MIN_DEADLINE_MS:
                raise ProtocolError(
                    f'"deadline_ms" must be >= {MIN_DEADLINE_MS:g}'
                )
            deadline_ms = float(deadline_ms)
        include_input = payload.get("include_input", False)
        transforms = payload.get("transforms", False)
        for flag, value in (
            ("include_input", include_input),
            ("transforms", transforms),
        ):
            if not isinstance(value, bool):
                raise ProtocolError(f'"{flag}" must be a boolean')
        unknown = set(payload) - {
            "source",
            "name",
            "deadline_ms",
            "include_input",
            "transforms",
        }
        if unknown:
            raise ProtocolError(
                "unknown request fields: " + ", ".join(sorted(unknown))
            )
        return cls(
            source=source,
            name=name,
            deadline_ms=deadline_ms,
            include_input=include_input,
            transforms=transforms,
        )

    @classmethod
    def from_body(cls, body: bytes) -> "AnalyzeRequest":
        """Decode and validate a raw request body."""
        if len(body) > MAX_BODY_BYTES:
            raise ProtocolError(
                f"request body exceeds {MAX_BODY_BYTES} bytes"
            )
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}")
        return cls.from_payload(payload)

    def coalesce_key(self) -> str:
        """Digest identifying requests whose answers are interchangeable.

        Everything that shapes the *result* participates; the deadline
        does not — a tight-deadline request may ride on the full answer a
        generous one is already computing (it only gets a better answer).
        """
        basis = json.dumps(
            [self.source, self.name, self.include_input, self.transforms],
            separators=(",", ":"),
        )
        return hashlib.sha256(basis.encode("utf-8")).hexdigest()


def edge_payload(
    edge: DependenceEdge, stmt_ids: Optional[Dict[int, int]] = None
) -> Dict[str, Any]:
    """JSON form of one dependence edge.

    ``source``/``sink`` are reference strings (``a(i+1)``); statement
    ids are renumbered through ``stmt_ids`` when given.
    """
    src_stmt = edge.source.stmt.stmt_id
    sink_stmt = edge.sink.stmt.stmt_id
    if stmt_ids is not None:
        src_stmt = stmt_ids.get(src_stmt, src_stmt)
        sink_stmt = stmt_ids.get(sink_stmt, sink_stmt)
    return {
        "type": str(edge.dep_type),
        "source": str(edge.source.ref),
        "sink": str(edge.sink.ref),
        "source_stmt": src_stmt,
        "sink_stmt": sink_stmt,
        "vectors": sorted(format_vector(v) for v in edge.vectors),
        "assumed": edge.assumed,
    }


def graph_payload(graph: DependenceGraph) -> Dict[str, Any]:
    """JSON form of one routine's dependence graph.

    Statement ids are renumbered densely in access-site order: the
    parser's statement counter is process-global, so raw ids drift
    between requests (and between server restarts).  Renumbering makes
    the payload a pure function of the routine's source — two requests
    for the same kernel produce byte-identical bodies no matter which
    process, or which parse, served them.
    """
    stmt_ids: Dict[int, int] = {}
    for site in graph.sites:
        raw = site.stmt.stmt_id
        if raw not in stmt_ids:
            stmt_ids[raw] = len(stmt_ids) + 1
    return {
        "edges": [edge_payload(edge, stmt_ids) for edge in graph.edges],
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


def recorder_payload(recorder: TestRecorder) -> List[Dict[str, Any]]:
    """JSON form of the Table-3 test-application counters."""
    return [
        {"test": name, "applications": apps, "independences": inds}
        for name, apps, inds in recorder.rows()
    ]


def analysis_payload(
    request: AnalyzeRequest,
    routines: List[Dict[str, Any]],
    stats: EngineStats,
    recorder: TestRecorder,
    elapsed: float,
) -> Dict[str, Any]:
    """Assemble the full ``/analyze`` response body.

    ``status`` is ``"ok"`` when every pair was genuinely tested and
    ``"degraded"`` when any verdict was assumed (deadline expiry, store
    loss, an absorbed test fault, …).  Degraded responses carry the failure records
    so the client can see *why* the answer is conservative.
    """
    degraded = stats.degraded
    payload: Dict[str, Any] = {
        "status": "degraded" if degraded else "ok",
        "name": request.name,
        "degraded": degraded,
        "routines": routines,
        "tests": recorder_payload(recorder),
        "stats": stats.as_dict(),
        "elapsed_ms": round(elapsed * 1000.0, 3),
    }
    if degraded:
        payload["failures"] = [record.as_dict() for record in stats.failures]
        payload["assumed_pairs"] = stats.assumed
    return payload


def error_payload(error: str, detail: str = "") -> Dict[str, Any]:
    """Uniform error body for non-200 responses."""
    payload = {"status": "error", "error": error}
    if detail:
        payload["detail"] = detail
    return payload


def render_analysis(payload: Dict[str, Any]) -> str:
    """Human-readable rendering of an ``/analyze`` response.

    Mirrors the shape of ``repro-deps analyze`` output so the service
    client's text mode reads like the offline CLI.
    """
    lines: List[str] = []
    for routine in payload.get("routines", []):
        lines.append(f"=== {routine['name']} ===")
        graph = routine["graph"]
        for edge in graph["edges"]:
            vectors = ", ".join(edge["vectors"])
            text = (
                f"{edge['type']} {edge['source']} (S{edge['source_stmt']})"
                f" -> {edge['sink']} (S{edge['sink_stmt']}) {{{vectors}}}"
            )
            if edge["assumed"]:
                text += " [assumed]"
            lines.append(text)
        lines.append(
            f"({graph['tested_pairs']} pairs tested, "
            f"{graph['independent_pairs']} independent)"
        )
        for verdict in routine["parallel_loops"]:
            tag = "PARALLEL" if verdict["parallel"] else (
                f"serial (blocked by {verdict['blocking_edges']} edges)"
            )
            lines.append(f"DO {verdict['loop']}: {tag}")
        for suggestion in routine.get("transforms", []):
            lines.append(suggestion)
    if payload.get("degraded"):
        lines.append("")
        lines.append("DEGRADED RESULTS: some verdicts assumed conservatively")
        for failure in payload.get("failures", []):
            lines.append(
                f"  [{failure['kind']}] {failure['where']}: {failure['error']}"
            )
    return "\n".join(lines)
