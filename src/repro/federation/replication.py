"""Incremental update: drain the DB2 change log into accelerator copies.

Accelerated tables keep a snapshot copy on the accelerator; committed DB2
changes are captured in the change log and applied here in batches. The
batch size trades apply throughput against copy staleness (experiment
E8), and every shipped record is charged to the interconnect — which is
exactly the recurring price the paper's legacy ELT flow pays when a
pipeline stage is materialised in DB2 and then re-replicated.

Exactly-once (experiment E11) is one rule, and it lives in the engine:
:meth:`AcceleratorEngine.apply_changes` drops every record at or below
the table's applied-LSN watermark. This service only keeps a cursor. It
reads ``batch_size`` records from the cursor, ships each table's
sub-batch, and moves the cursor past the batch once the whole batch
applied. A batch that fails — an injected link fault, an accelerator
crash, or a :class:`~repro.errors.ReplicationError` from the apply path —
is retried whole with bounded exponential backoff and seeded jitter; a
sub-batch that already landed is shipped again and dropped by the
watermark. A batch that still fails leaves the cursor where it was, and
the next drain starts there. Recovery replay from a checkpoint cursor
leans on the same rule. While the health monitor reports the accelerator
OFFLINE, drains are skipped (the backlog simply accumulates), and each
drain outcome feeds the breaker — so a successful drain doubles as the
half-open probe that brings the accelerator back ONLINE.
"""

from __future__ import annotations

import random
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.accelerator.engine import AcceleratorEngine
from repro.catalog import Catalog
from repro.db2.changelog import ChangeLog, ChangeRecord
from repro.errors import AcceleratorCrashError, LinkError, ReplicationError
from repro.federation.faults import FaultInjector
from repro.federation.health import HealthMonitor
from repro.federation.network import Interconnect
from repro.metrics.counters import ReplicationStats
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = ["DrainRecord", "ReplicationService"]

#: Exceptions the drain loop treats as retryable.
RETRYABLE_ERRORS = (ReplicationError, LinkError, AcceleratorCrashError)
#: Retries of one batch before it is abandoned for this drain.
MAX_RETRIES = 4
#: Backoff before retry ``k`` is ``min(CAP, BASE * 2**k)`` scaled by a
#: jitter in [0.5, 1); it is simulated (accounted, never slept).
BACKOFF_BASE_SECONDS = 0.01
BACKOFF_CAP_SECONDS = 1.0
RETRY_SEED = 0
#: Rows kept in SYSACCEL.MON_REPLICATION.
DRAIN_HISTORY_LIMIT = 256


@dataclass(frozen=True)
class DrainRecord:
    """Monitoring row for one ``drain()`` call (SYSACCEL.MON_REPLICATION)."""

    drain_id: int
    #: ``ok``, ``idle`` (nothing pending), ``failed`` (batch abandoned),
    #: or ``skipped_offline`` (circuit open).
    outcome: str
    records_applied: int
    batches: int
    backlog_before: int
    backlog_after: int
    retries: int
    abandoned: int
    reason: str = ""


class ReplicationService:
    """Single-cursor log reader applying per-table batches."""

    def __init__(
        self,
        change_log: ChangeLog,
        accelerator: AcceleratorEngine,
        interconnect: Interconnect,
        catalog: Catalog,
        health: HealthMonitor,
        tracer: Tracer,
        metrics: MetricsRegistry,
        faults: FaultInjector,
        batch_size: int = 1000,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self._change_log = change_log
        self._accelerator = accelerator
        self._interconnect = interconnect
        self._catalog = catalog
        self._health = health
        self._tracer = tracer
        self._metrics = metrics
        #: The apply path consults the ``replication.mid_batch`` crash
        #: point between shipping a table sub-batch and applying it.
        self._faults = faults
        self.batch_size = batch_size
        self._retry_rng = random.Random(RETRY_SEED)
        self._cursor = change_log.head_lsn
        #: One drainer at a time: concurrent commit-time drains would read
        #: the same cursor and ship the same batch twice.
        self._drain_lock = threading.Lock()
        #: Per-table LSN from which this table's changes are relevant
        #: (records older than the initial copy are skipped).
        self._table_start: dict[str, int] = {}
        self.records_applied = 0
        self.batches_applied = 0
        self.records_skipped = 0
        self.retries = 0
        self.batches_abandoned = 0
        self.drains_skipped_offline = 0
        self.simulated_backoff_seconds = 0.0
        self.last_error: Optional[Exception] = None
        #: Ring of per-drain monitoring rows (SYSACCEL.MON_REPLICATION).
        self.drain_history: deque[DrainRecord] = deque(
            maxlen=DRAIN_HISTORY_LIMIT
        )
        self._drain_seq = 0
        #: Optional hook called with (table, records) after a table
        #: sub-batch applied, with only the records that applied — the
        #: statistics manager folds the change feed incrementally.
        self.change_listener: Optional[
            Callable[[str, list[ChangeRecord]], None]
        ] = None

    def register_table(self, name: str, start_lsn: int) -> None:
        """Start replicating ``name`` for records with LSN >= start_lsn."""
        self._table_start[name.upper()] = start_lsn

    def unregister_table(self, name: str) -> None:
        self._table_start.pop(name.upper(), None)

    def table_starts(self) -> dict[str, int]:
        """Per-table replication start LSNs (checkpointed for restart)."""
        return dict(self._table_start)

    def reset(self) -> None:
        """Crash simulation: registrations and the cursor are
        accelerator-side state and die with the appliance.

        Lifetime counters survive (they are DB2-side monitoring)."""
        self._table_start.clear()
        self._cursor = self._change_log.head_lsn

    def restore_cursor(self, lsn: int) -> None:
        """Restart replication from a checkpointed cursor position."""
        self._cursor = lsn

    @property
    def backlog(self) -> int:
        """Committed records not yet applied (copy staleness in records)."""
        return self._change_log.backlog(self._cursor)

    @property
    def cursor_lsn(self) -> int:
        return self._cursor

    def stats(self) -> ReplicationStats:
        """Backlog/staleness and retry counters for monitoring."""
        return ReplicationStats(
            backlog=self.backlog,
            cursor_lsn=self._cursor,
            head_lsn=self._change_log.head_lsn,
            records_applied=self.records_applied,
            batches_applied=self.batches_applied,
            records_skipped=self.records_skipped,
            retries=self.retries,
            batches_abandoned=self.batches_abandoned,
            drains_skipped_offline=self.drains_skipped_offline,
            simulated_backoff_seconds=self.simulated_backoff_seconds,
        )

    def drain(self, raise_on_failure: bool = False) -> int:
        """Apply pending changes in ``batch_size`` batches; returns how
        many records were applied.

        A batch that still fails after ``MAX_RETRIES`` retries stops the
        drain without advancing the cursor; by default the error is kept
        in ``last_error`` (commit-time auto-drains must not fail the
        already-committed DB2 transaction) — pass ``raise_on_failure=True``
        to surface it instead. While the health monitor reports the
        accelerator OFFLINE the drain returns immediately. Drains are
        serialised: a concurrent caller waits, then drains what is left.
        """
        with self._drain_lock:
            return self._drain(raise_on_failure)

    def _drain(self, raise_on_failure: bool) -> int:
        size = self.batch_size
        backlog_before = self.backlog
        retries_before = self.retries
        abandoned_before = self.batches_abandoned
        span = self._tracer.span(
            "replication.drain", batch_size=size, backlog=backlog_before
        )
        with span:
            if not self._health.available:
                self.drains_skipped_offline += 1
                span.annotate(outcome="skipped_offline")
                self._record_drain(
                    "skipped_offline", 0, 0, backlog_before,
                    reason="circuit open: accelerator OFFLINE",
                )
                return 0
            applied = 0
            batches = 0
            failed = False
            while True:
                records = self._change_log.read_from(self._cursor, limit=size)
                if not records:
                    break
                ok, batch_applied = self._apply_with_retry(records)
                applied += batch_applied
                if not ok:
                    failed = True
                    break
                self._cursor = records[-1].lsn + 1
                batches += 1
                if len(records) < size:
                    break
            if failed:
                outcome = "failed"
            elif applied or batches:
                outcome = "ok"
            else:
                outcome = "idle"
            span.annotate(
                outcome=outcome,
                applied=applied,
                batches=batches,
                retries=self.retries - retries_before,
            )
            self._record_drain(
                outcome,
                applied,
                batches,
                backlog_before,
                retries=self.retries - retries_before,
                abandoned=self.batches_abandoned - abandoned_before,
                reason=str(self.last_error) if failed else "",
            )
            if failed and raise_on_failure:
                raise self.last_error
            return applied

    def _record_drain(
        self,
        outcome: str,
        applied: int,
        batches: int,
        backlog_before: int,
        retries: int = 0,
        abandoned: int = 0,
        reason: str = "",
    ) -> None:
        self._drain_seq += 1
        self.drain_history.append(
            DrainRecord(
                drain_id=self._drain_seq,
                outcome=outcome,
                records_applied=applied,
                batches=batches,
                backlog_before=backlog_before,
                backlog_after=self.backlog,
                retries=retries,
                abandoned=abandoned,
                reason=reason[:512],
            )
        )
        self._metrics.gauge("replication.backlog").set(self.backlog)
        self._metrics.counter(f"replication.drains.{outcome}").inc()

    def _apply_with_retry(
        self, records: list[ChangeRecord]
    ) -> tuple[bool, int]:
        """Apply one batch, retrying it whole; returns (ok, records
        applied). A failure can land after some tables applied, so
        progress is measured from the counter."""
        per_table: dict[str, list[ChangeRecord]] = {}
        skipped = 0
        for record in records:
            start = self._table_start.get(record.table)
            if start is None or record.lsn < start:
                skipped += 1
            else:
                per_table.setdefault(record.table, []).append(record)
        start_applied = self.records_applied
        for attempt in range(MAX_RETRIES + 1):
            try:
                self._apply_batch(per_table)
            except RETRYABLE_ERRORS as exc:
                self.last_error = exc
                self._health.record_failure()
                if attempt == MAX_RETRIES:
                    self.batches_abandoned += 1
                    return False, self.records_applied - start_applied
                self.retries += 1
                base = min(
                    BACKOFF_CAP_SECONDS, BACKOFF_BASE_SECONDS * 2.0 ** attempt
                )
                jitter = 0.5 + self._retry_rng.random() / 2.0
                self.simulated_backoff_seconds += base * jitter
            else:
                self.last_error = None
                self._health.record_success()
                self.records_skipped += skipped
                applied = self.records_applied - start_applied
                if applied:
                    self.batches_applied += 1
                return True, applied
        raise AssertionError("unreachable")  # pragma: no cover

    def _apply_batch(self, per_table: dict[str, list[ChangeRecord]]) -> None:
        for table, table_records in per_table.items():
            schema = self._catalog.table(table).schema
            nbytes = sum(r.byte_size(schema) for r in table_records)
            self._interconnect.send_to_accelerator(nbytes)
            # Crash point: the sub-batch is on the wire but not applied —
            # the canonical partially-delivered-batch crash.
            self._faults.crash_point("replication.mid_batch")
            watermark = self._accelerator.applied_lsn(table)
            applied = self._accelerator.apply_changes(table, table_records)
            if not applied:
                continue  # every record was at or below the watermark
            self.records_applied += applied
            if self.change_listener is not None:
                # Incremental statistics maintenance: the change feed is
                # the same stream the accelerator just applied, so the
                # optimizer's row counts / min-max / histograms track
                # replicated DML without rescanning.
                self.change_listener(
                    table, [r for r in table_records if r.lsn > watermark]
                )
