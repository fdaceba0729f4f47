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
the server, and the tests share one encoding.  Each ``routines[i]``
object is :mod:`repro.pipeline`'s routine encoding, the one ``analyze``
and ``corpus run`` render too.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.engine.stats import EngineStats
from repro.instrument import TestRecorder
from repro.pipeline import (  # noqa: F401  (re-exported: the routine encoding)
    graph_payload,
    parallelism_payload,
    render_routine,
)

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

    Each routine reads exactly as ``repro-deps analyze`` prints it
    (:func:`repro.pipeline.render_routine`); a degraded response ends
    with the failures that made it conservative.
    """
    text = "".join(render_routine(entry) for entry in payload.get("routines", []))
    if payload.get("degraded"):
        lines = ["DEGRADED RESULTS: some verdicts assumed conservatively"]
        for failure in payload.get("failures", []):
            lines.append(
                f"  [{failure['kind']}] {failure['where']}: {failure['error']}"
            )
        text += "\n".join(lines) + "\n"
    return text
