"""JSON export of traces and metrics (benchmark/report integration).

The benchmarks persist per-phase breakdowns next to their timing tables
in ``benchmarks/results/`` so EXPERIMENTS.md can quote where a
statement's time and bytes actually went, not just the end-to-end
number.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.federation.system import AcceleratedDatabase
    from repro.obs.profile import StatementProfile
    from repro.obs.trace import Trace

__all__ = [
    "collect_metrics",
    "export_json",
    "profile_to_dict",
    "profiles_payload",
    "qerror_summary",
    "statement_breakdown",
    "trace_phase_breakdown",
    "trace_to_dict",
]


def trace_to_dict(trace: "Trace") -> dict:
    """One trace as a JSON-ready mapping (spans in start order)."""
    return {
        "trace_id": trace.trace_id,
        "name": trace.name,
        "elapsed_ms": trace.elapsed_seconds * 1000.0,
        "spans": [
            {
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "name": span.name,
                "depth": span.depth,
                "start_ms": span.start_offset_seconds * 1000.0,
                "elapsed_ms": span.elapsed_seconds * 1000.0,
                "status": span.status,
                "attributes": dict(span.attributes),
            }
            for span in trace.spans
        ],
    }


def trace_phase_breakdown(trace: "Trace") -> dict[str, dict]:
    """Aggregate one trace's spans by phase name."""
    phases: dict[str, dict] = {}
    for span in trace.spans:
        entry = phases.setdefault(
            span.name,
            {"count": 0, "total_ms": 0.0, "bytes": 0, "errors": 0},
        )
        entry["count"] += 1
        entry["total_ms"] += span.elapsed_seconds * 1000.0
        nbytes = span.attributes.get("bytes")
        if isinstance(nbytes, (int, float)):
            entry["bytes"] += int(nbytes)
        if span.status != "OK":
            entry["errors"] += 1
    return phases


def statement_breakdown(
    system: "AcceleratedDatabase", limit: Optional[int] = None
) -> dict[str, dict]:
    """Per-phase aggregate across the retained traces (newest ``limit``)."""
    traces = system.tracer.traces()
    if limit is not None:
        traces = traces[-limit:]
    merged: dict[str, dict] = {}
    for trace in traces:
        for name, entry in trace_phase_breakdown(trace).items():
            target = merged.setdefault(
                name,
                {"count": 0, "total_ms": 0.0, "bytes": 0, "errors": 0},
            )
            for key, value in entry.items():
                target[key] += value
    for entry in merged.values():
        entry["mean_ms"] = (
            entry["total_ms"] / entry["count"] if entry["count"] else 0.0
        )
    return merged


def profile_to_dict(profile: "StatementProfile") -> dict:
    """One statement profile as a JSON-ready mapping.

    Every float is finite and rounded: ``q_error`` clamps its inputs to
    >= 1, so zero-row operators export as plain numbers, never NaN/inf
    (``json.dumps(..., allow_nan=False)`` must succeed on the result).
    """
    return {
        "profile_id": profile.profile_id,
        "fingerprint": profile.fingerprint,
        "generation": profile.generation,
        "engine": profile.engine,
        "elapsed_ms": round(profile.elapsed_seconds * 1000.0, 6),
        "failback": profile.failback,
        "error": profile.error,
        "operators": [
            {
                "path": op.path,
                "depth": op.depth,
                "operator": op.operator,
                "detail": op.detail,
                "engine": op.engine,
                "estimated_rows": op.estimated_rows,
                "actual_rows": op.actual_rows,
                "q_error": round(op.q_error, 6),
                "rows_in": op.rows_in,
                "batches": op.batches,
                "wall_ms": round(op.wall_seconds * 1000.0, 6),
                "chunks_skipped": op.chunks_skipped,
                "fused": op.fused,
                "executed": op.executed,
            }
            for op in profile.operators
        ],
    }


def profiles_payload(
    system: "AcceleratedDatabase", limit: Optional[int] = None
) -> dict:
    """Retained profiles plus the profiler/feedback snapshot, JSON-ready."""
    profiles = system.profiler.profiles()
    if limit is not None:
        profiles = profiles[-limit:]
    return {
        "profiler": system.profiler.snapshot(),
        "profiles": [profile_to_dict(profile) for profile in profiles],
        "qerror": qerror_summary(system),
    }


def qerror_summary(
    system: "AcceleratedDatabase", worst: int = 10
) -> dict:
    """Cardinality-feedback store rollup with the worst offenders listed."""
    feedback = system.profiler.feedback
    return {
        **feedback.snapshot(),
        "worst": [
            {
                "fingerprint": entry.fingerprint,
                "generation": entry.generation,
                "path": entry.path,
                "operator": entry.operator,
                "detail": entry.detail,
                "engine": entry.engine,
                "executions": entry.executions,
                "estimated_total": entry.estimated_total,
                "actual_total": entry.actual_total,
                "mean_q_error": round(entry.mean_q_error, 6),
                "max_q_error": round(entry.q_error_max, 6),
            }
            for entry in feedback.worst(worst)
        ],
    }


def collect_metrics(system: "AcceleratedDatabase") -> dict[str, object]:
    """The metrics registry flattened, plus trace-retention counters."""
    out = system.metrics.collect()
    out["traces.retained"] = len(system.tracer.traces())
    out["traces.enabled"] = str(system.tracer.enabled)
    return out


def export_json(path, payload) -> Path:
    """Write ``payload`` as stable, diff-friendly JSON; returns the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    )
    return target
