"""SQL-queryable monitoring views (DB2 instrumentation-facility style).

Real DB2 surfaces accelerator monitoring through catalog-like views and
the instrumentation facility; this module provides the simulation's
equivalents as *virtual tables* under the ``SYSACCEL`` schema:

* ``SYSACCEL.MON_STATEMENTS`` — the statement history ring with engine,
  latency, routing reason, and the trace id linking into MON_SPANS;
* ``SYSACCEL.MON_SPANS`` — the flattened span trees of every retained
  trace (phase name, depth, timings, bytes/rows, status, attributes);
* ``SYSACCEL.MON_REPLICATION`` — one row per replication drain with its
  outcome, batch counts, backlog movement, and retry totals;
* ``SYSACCEL.MON_WLM`` — one row per (engine gate, service class) with
  the class policy and live admission state: running/queued statements,
  admitted/bypassed/shed counters, queue timeouts, accumulated wait;
* ``SYSACCEL.MON_RECOVERY`` — one row per recovery event (checkpoint
  taken, checkpoint failed, restart resync, retention trim) with cursor
  position, rows/tables covered, replayed record counts, full-reload and
  AOT-rebuild counts, and interconnect bytes the checkpoint saved;
* ``SYSACCEL.MON_OPERATORS`` — one row per plan operator of every
  retained statement profile (EXPLAIN ANALYZE data at rest): actual vs.
  estimated rows, Q-error, wall time, batches, chunks pruned, and the
  fused/executed markers;
* ``SYSACCEL.MON_QERROR`` — the cardinality-feedback store: accumulated
  estimate/actual pairs per plan-node fingerprint with mean/max Q-error
  (the standing E17 benchmark surface the cost model trains against);
* ``SYSACCEL.MON_MODELS`` — one row per trained model with its kind,
  owner, feature list, rows/epochs of unified training, generations,
  and training metrics;
* ``SYSACCEL.MON_SHARDS`` — one row per accelerator shard (one for the
  default single instance): liveness, per-shard circuit state and
  counters, resident rows/tables, scan and write traffic, simulated
  busy seconds, and the bytes written to and shipped back from it;
* ``SYSACCEL.MON_STATISTICS`` — the cost-based optimizer's statistics
  store: one table-level row (``COLUMN_NAME = ''``) per table plus one
  row per column with NDV, null count, min/max, histogram bin count,
  the collection source (runstats / zone maps / change feed), catalog
  generation, and the number of replication records folded in.

They hold no storage: each query materialises rows from the live
observability structures and runs the full SELECT pipeline (WHERE,
GROUP BY, ORDER BY, joins between monitoring views) through the
vectorised executor. Like ``ACCEL_GET_HEALTH``, monitoring is readable
by every session — there is nothing to GRANT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.accelerator.executor import VectorQueryEngine
from repro.accelerator.vtable import columns_from_rows
from repro.catalog import Column, TableSchema
from repro.errors import SqlError
from repro.sql.types import BIGINT, DOUBLE, INTEGER, VarcharType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.federation.database import AcceleratedDatabase

__all__ = [
    "MONITORING_VIEWS",
    "StatementRecord",
    "execute_monitoring_query",
    "monitoring_tables",
]


@dataclass(frozen=True)
class StatementRecord:
    """One entry of the system's statement history (query monitoring)."""

    user: str
    statement_type: str
    engine: str
    elapsed_seconds: float
    rowcount: int
    #: Routing reason for queries — ``failback: ...`` marks statements
    #: that re-executed on DB2 because the accelerator was unavailable.
    reason: str = ""
    #: Links the record into the tracer ("" while tracing is disabled).
    trace_id: str = ""

_ID = VarcharType(24)
_NAME = VarcharType(64)
_TEXT = VarcharType(512)

_SCHEMAS: dict[str, TableSchema] = {
    "SYSACCEL.MON_STATEMENTS": TableSchema(
        [
            Column("TRACE_ID", _ID),
            Column("USER_NAME", _NAME),
            Column("STATEMENT_TYPE", VarcharType(32)),
            Column("ENGINE", VarcharType(16)),
            Column("ELAPSED_MS", DOUBLE),
            Column("ROW_COUNT", BIGINT),
            Column("REASON", _TEXT),
        ]
    ),
    "SYSACCEL.MON_SPANS": TableSchema(
        [
            Column("TRACE_ID", _ID),
            Column("SPAN_ID", _ID),
            Column("PARENT_ID", _ID),
            Column("NAME", _NAME),
            Column("DEPTH", INTEGER),
            Column("START_MS", DOUBLE),
            Column("ELAPSED_MS", DOUBLE),
            Column("STATUS", VarcharType(8)),
            Column("BYTES", BIGINT),
            Column("ROW_COUNT", BIGINT),
            Column("ATTRIBUTES", _TEXT),
        ]
    ),
    "SYSACCEL.MON_REPLICATION": TableSchema(
        [
            Column("DRAIN_ID", BIGINT),
            Column("OUTCOME", VarcharType(20)),
            Column("RECORDS_APPLIED", BIGINT),
            Column("BATCHES", BIGINT),
            Column("BACKLOG_BEFORE", BIGINT),
            Column("BACKLOG_AFTER", BIGINT),
            Column("RETRIES", BIGINT),
            Column("ABANDONED", BIGINT),
            Column("REASON", _TEXT),
        ]
    ),
    "SYSACCEL.MON_RECOVERY": TableSchema(
        [
            Column("EVENT_ID", BIGINT),
            Column("KIND", VarcharType(20)),
            Column("CHECKPOINT_ID", BIGINT),
            Column("CURSOR_LSN", BIGINT),
            Column("TABLES", INTEGER),
            Column("ROW_COUNT", BIGINT),
            Column("RECORDS_REPLAYED", BIGINT),
            Column("FULL_RELOADS", INTEGER),
            Column("AOTS_REBUILT", INTEGER),
            Column("BYTES_SAVED", BIGINT),
            Column("DETAIL", _TEXT),
        ]
    ),
    "SYSACCEL.MON_OPERATORS": TableSchema(
        [
            Column("PROFILE_ID", _ID),
            Column("ENGINE", VarcharType(16)),
            Column("PATH", _ID),
            Column("DEPTH", INTEGER),
            Column("OPERATOR", VarcharType(16)),
            Column("DETAIL", _TEXT),
            Column("ACTUAL_ROWS", BIGINT),
            Column("ESTIMATED_ROWS", BIGINT),
            Column("Q_ERROR", DOUBLE),
            Column("ROWS_IN", BIGINT),
            Column("BATCHES", INTEGER),
            Column("WALL_MS", DOUBLE),
            Column("CHUNKS_SKIPPED", BIGINT),
            Column("FUSED", VarcharType(1)),
            Column("EXECUTED", VarcharType(1)),
            Column("FAILBACK", VarcharType(1)),
        ]
    ),
    "SYSACCEL.MON_QERROR": TableSchema(
        [
            Column("FINGERPRINT", _TEXT),
            Column("GENERATION", INTEGER),
            Column("PATH", _ID),
            Column("OPERATOR", VarcharType(16)),
            Column("DETAIL", _TEXT),
            Column("ENGINE", VarcharType(16)),
            Column("EXECUTIONS", BIGINT),
            Column("ESTIMATED_TOTAL", BIGINT),
            Column("ACTUAL_TOTAL", BIGINT),
            Column("LAST_ESTIMATED", BIGINT),
            Column("LAST_ACTUAL", BIGINT),
            Column("MEAN_Q_ERROR", DOUBLE),
            Column("MAX_Q_ERROR", DOUBLE),
        ]
    ),
    "SYSACCEL.MON_SHARDS": TableSchema(
        [
            Column("SHARD_ID", INTEGER),
            Column("STATE", VarcharType(12)),
            Column("ALIVE", VarcharType(1)),
            Column("TABLES", INTEGER),
            Column("ROW_COUNT", BIGINT),
            Column("LOST_TABLES", INTEGER),
            Column("SCANS", BIGINT),
            Column("ROWS_SCANNED", BIGINT),
            Column("ROWS_WRITTEN", BIGINT),
            Column("BUSY_SECONDS", DOUBLE),
            Column("FAILURES", BIGINT),
            Column("SUCCESSES", BIGINT),
            Column("CIRCUIT_OPENED", BIGINT),
            Column("REJECTED", BIGINT),
            Column("BYTES_TO_SHARD", BIGINT),
            Column("BYTES_FROM_SHARD", BIGINT),
        ]
    ),
    "SYSACCEL.MON_STATISTICS": TableSchema(
        [
            Column("TABLE_NAME", _NAME),
            Column("COLUMN_NAME", _NAME),
            Column("ROW_COUNT", BIGINT),
            Column("NDV", BIGINT),
            Column("NULL_COUNT", BIGINT),
            Column("MIN_VALUE", _TEXT),
            Column("MAX_VALUE", _TEXT),
            Column("HISTOGRAM_BINS", INTEGER),
            Column("SOURCE", VarcharType(16)),
            Column("GENERATION", INTEGER),
            Column("FEED_RECORDS", BIGINT),
        ]
    ),
    "SYSACCEL.MON_WLM": TableSchema(
        [
            Column("ENGINE", VarcharType(16)),
            Column("SERVICE_CLASS", _NAME),
            Column("PRIORITY", INTEGER),
            Column("CLASS_SLOTS", INTEGER),
            Column("QUEUE_DEPTH", INTEGER),
            Column("GATE_SLOTS", INTEGER),
            Column("RUNNING", INTEGER),
            Column("QUEUED", INTEGER),
            Column("ADMITTED", BIGINT),
            Column("BYPASSED", BIGINT),
            Column("SHED", BIGINT),
            Column("QUEUE_TIMEOUTS", BIGINT),
            Column("WAIT_MS_TOTAL", DOUBLE),
            Column("DEFAULT_TIMEOUT_S", DOUBLE),
            Column("SHEDDABLE", VarcharType(1)),
        ]
    ),
    "SYSACCEL.MON_MODELS": TableSchema(
        [
            Column("NAME", _NAME),
            Column("KIND", VarcharType(16)),
            Column("OWNER", _NAME),
            Column("TARGET", _NAME),
            Column("FEATURES", _TEXT),
            Column("ROWS_TRAINED", BIGINT),
            Column("EPOCHS_TRAINED", INTEGER),
            Column("GENERATION", BIGINT),
            Column("TRAINED_GENERATION", BIGINT),
            Column("METRICS", _TEXT),
        ]
    ),
}

#: Public view-name -> schema mapping (names are fully qualified).
MONITORING_VIEWS = dict(_SCHEMAS)


def _clip(text, limit: int = 512):
    if text is None:
        return None
    text = str(text)
    return text[:limit] if len(text) > limit else text


def _render_attributes(attributes: dict) -> str:
    return "; ".join(
        f"{key}={value}" for key, value in sorted(attributes.items())
    )


def _statements_rows(system: "AcceleratedDatabase") -> list[tuple]:
    return [
        (
            record.trace_id or None,
            record.user,
            record.statement_type,
            record.engine,
            record.elapsed_seconds * 1000.0,
            record.rowcount,
            _clip(record.reason),
        )
        for record in system.statement_history
    ]


def _int_or_none(value):
    try:
        return int(value)
    except (TypeError, ValueError):
        return None


def _spans_rows(system: "AcceleratedDatabase") -> list[tuple]:
    rows: list[tuple] = []
    for trace in system.tracer.traces():
        for span in trace.spans:
            attributes = span.attributes
            rows.append(
                (
                    span.trace_id,
                    span.span_id,
                    span.parent_id,
                    _clip(span.name, 64),
                    span.depth,
                    span.start_offset_seconds * 1000.0,
                    span.elapsed_seconds * 1000.0,
                    span.status,
                    _int_or_none(attributes.get("bytes")),
                    _int_or_none(attributes.get("rows")),
                    _clip(_render_attributes(attributes)),
                )
            )
    return rows


def _replication_rows(system: "AcceleratedDatabase") -> list[tuple]:
    return [
        (
            record.drain_id,
            record.outcome,
            record.records_applied,
            record.batches,
            record.backlog_before,
            record.backlog_after,
            record.retries,
            record.abandoned,
            _clip(record.reason),
        )
        for record in system.replication.drain_history
    ]


def _wlm_rows(system: "AcceleratedDatabase") -> list[tuple]:
    return system.wlm.monitor_rows()


def _models_rows(system: "AcceleratedDatabase") -> list[tuple]:
    rows: list[tuple] = []
    for name in system.models.names():
        model = system.models.get(name)
        rows.append(
            (
                model.name,
                model.kind,
                model.owner,
                model.target,
                _clip(", ".join(model.features)),
                model.rows_trained,
                model.epochs_trained,
                model.generation,
                model.trained_generation,
                _clip(_render_attributes(model.metrics)),
            )
        )
    return rows


def _statistics_rows(system: "AcceleratedDatabase") -> list[tuple]:
    return system.stats.monitor_rows()


def _shards_rows(system: "AcceleratedDatabase") -> list[tuple]:
    accelerator = system.accelerator
    rows: list[tuple] = []
    for shard in accelerator.shard_list:
        circuit = shard.health
        lost = sum(
            1
            for facade in accelerator._tables.values()
            if shard.shard_id in facade.lost_shards
        )
        rows.append(
            (
                shard.shard_id,
                circuit.state.value if shard.alive else "DOWN",
                _flag(shard.alive),
                len(accelerator.shard_parts(shard.shard_id)),
                accelerator.shard_row_count(shard.shard_id),
                lost,
                shard.scans,
                shard.rows_scanned,
                shard.rows_written,
                round(shard.simulated_busy_seconds, 9),
                circuit.failures_total,
                circuit.successes_total,
                circuit.times_opened,
                circuit.requests_rejected,
                shard.bytes_to_shard,
                shard.bytes_from_shard,
            )
        )
    return rows


def _recovery_rows(system: "AcceleratedDatabase") -> list[tuple]:
    return [
        (
            event.event_id,
            event.kind,
            event.checkpoint_id,
            event.cursor_lsn,
            event.tables,
            event.rows,
            event.records_replayed,
            event.full_reloads,
            event.aots_rebuilt,
            event.bytes_saved,
            _clip(event.detail) or None,
        )
        for event in system.recovery.events
    ]


def _flag(value) -> str:
    return "Y" if value else "N"


def _operators_rows(system: "AcceleratedDatabase") -> list[tuple]:
    rows: list[tuple] = []
    for profile in system.profiler.profiles():
        for op in profile.operators:
            rows.append(
                (
                    profile.profile_id,
                    op.engine,
                    op.path,
                    op.depth,
                    op.operator,
                    _clip(op.detail),
                    op.actual_rows,
                    op.estimated_rows,
                    round(op.q_error, 6),
                    op.rows_in,
                    op.batches,
                    op.wall_seconds * 1000.0,
                    op.chunks_skipped,
                    _flag(op.fused),
                    _flag(op.executed),
                    _flag(profile.failback),
                )
            )
    return rows


def _qerror_rows(system: "AcceleratedDatabase") -> list[tuple]:
    return [
        (
            _clip(entry.fingerprint),
            entry.generation,
            entry.path,
            entry.operator,
            _clip(entry.detail),
            entry.engine,
            entry.executions,
            entry.estimated_total,
            entry.actual_total,
            entry.last_estimated,
            entry.last_actual,
            round(entry.mean_q_error, 6),
            round(entry.q_error_max, 6),
        )
        for entry in system.profiler.feedback.entries()
    ]


_ROW_BUILDERS: dict[str, Callable] = {
    "SYSACCEL.MON_STATEMENTS": _statements_rows,
    "SYSACCEL.MON_SPANS": _spans_rows,
    "SYSACCEL.MON_REPLICATION": _replication_rows,
    "SYSACCEL.MON_RECOVERY": _recovery_rows,
    "SYSACCEL.MON_WLM": _wlm_rows,
    "SYSACCEL.MON_OPERATORS": _operators_rows,
    "SYSACCEL.MON_QERROR": _qerror_rows,
    "SYSACCEL.MON_SHARDS": _shards_rows,
    "SYSACCEL.MON_STATISTICS": _statistics_rows,
    "SYSACCEL.MON_MODELS": _models_rows,
}


def monitoring_tables(names) -> set[str]:
    """Subset of ``names`` (any case) that are monitoring views."""
    return {name.upper() for name in names if name.upper() in _SCHEMAS}


class _MonitoringProvider:
    """Vector-executor table provider over materialised monitoring rows.

    Rows are built once per query (not per scan), so self-joins between
    monitoring views see one consistent snapshot.
    """

    def __init__(self, system: "AcceleratedDatabase") -> None:
        self._system = system
        self._rows: dict[str, list[tuple]] = {}

    def table_schema(self, name: str) -> TableSchema:
        return _SCHEMAS[name.upper()]

    def scan_columns(self, name: str, ranges=None, columns=None):
        # ``columns`` (projection pruning) is accepted but ignored:
        # monitoring rows are built in memory, so there is nothing to
        # save by materialising a subset.
        key = name.upper()
        rows = self._rows.get(key)
        if rows is None:
            rows = self._rows[key] = _ROW_BUILDERS[key](self._system)
        return columns_from_rows(_SCHEMAS[key], rows), len(rows)


def execute_monitoring_query(
    system: "AcceleratedDatabase", stmt, params=()
) -> tuple[list[str], list[tuple]]:
    """Run a SELECT that references monitoring views only."""
    names = {name.upper() for name in stmt.referenced_tables()}
    foreign = sorted(names - set(_SCHEMAS))
    if foreign:
        raise SqlError(
            "monitoring views cannot be combined with other tables: "
            + ", ".join(foreign)
        )
    engine = VectorQueryEngine(_MonitoringProvider(system), params)
    return engine.execute(stmt)
