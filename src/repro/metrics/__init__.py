"""Instrumentation: movement counters and byte estimation."""

from repro.metrics.counters import (
    MovementStats,
    ReplicationStats,
    estimate_rows_bytes,
)

__all__ = ["MovementStats", "ReplicationStats", "estimate_rows_bytes"]
