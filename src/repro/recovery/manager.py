"""The recovery manager: durable checkpoints and restart resync.

:class:`RecoveryManager` is DB2-side machinery (like the change log and
the catalog): it survives an accelerator crash, and everything it needs
to bring the accelerator back lives either in its own structures or in a
durable checkpoint.

**Checkpointing** captures, in one consistent cut: the replication
cursor (read *before* the row images, so replay can only over-read — the
engine's applied-LSN watermarks deduplicate the overlap), the catalog
generation, per-table replication start LSNs, and every accelerator
table's live rows + applied LSN + lineage epoch. The payload is written
through a checkpoint store atomically and checksummed; ``retain`` old
checkpoints are kept so a torn newest frame falls back to the previous
one.

**Restart resync** (:meth:`RecoveryManager.recover`) restores the newest
*valid* checkpoint, re-registers replication, and replays only the
changelog suffix past the checkpointed cursor. A changelog truncated
beyond the cursor (or a missing/corrupt checkpoint) degrades to full
table reloads from DB2 — correct, just expensive. Accelerator-only
tables have no DB2 copy; a DB2-side *lineage journal* (fed by the
engine's write listener) records each AOT's latest lineage epoch, and
any AOT whose restored epoch lags the journal is rebuilt from its
registered source query as BATCH-class work under the workload manager,
so recovery never starves interactive traffic.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.catalog import TableLocation
from repro.errors import ChangelogTruncatedError, CorruptCheckpointError, RecoveryError
from repro.recovery.checkpoint import (
    Checkpoint,
    CheckpointTable,
    open_store,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.federation.database import AcceleratedDatabase

__all__ = [
    "CheckpointResult",
    "RecoveryEvent",
    "RecoveryManager",
    "RecoveryResult",
]


@dataclass(frozen=True)
class CheckpointResult:
    """Outcome of one ``checkpoint()`` call."""

    checkpoint_id: int
    cursor_lsn: int
    tables: int
    rows: int
    bytes_written: int


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of one ``recover()`` call."""

    #: Checkpoint the restart restored from (None = no valid checkpoint).
    checkpoint_id: Optional[int]
    #: Checkpoints skipped because their frame failed validation.
    corrupt_skipped: int
    tables_restored: int
    rows_restored: int
    #: Changelog records replayed past the checkpointed cursor.
    records_replayed: int
    #: Tables resynchronised by full reload from DB2.
    full_reloads: int
    #: AOTs rebuilt from their registered source query.
    aots_rebuilt: int
    #: AOTs that were lost with no checkpoint image and no source.
    aots_lost: int
    #: Interconnect bytes the checkpoint image saved vs. full reloads.
    resync_bytes_saved: int
    elapsed_seconds: float


@dataclass(frozen=True)
class RecoveryEvent:
    """Monitoring row for SYSACCEL.MON_RECOVERY."""

    event_id: int
    #: ``checkpoint``, ``checkpoint_failed``, ``recover``, ``trim``.
    kind: str
    checkpoint_id: Optional[int]
    cursor_lsn: int
    tables: int
    rows: int
    records_replayed: int
    full_reloads: int
    aots_rebuilt: int
    bytes_saved: int
    detail: str = ""


class RecoveryManager:
    """Checkpoint/restart coordinator for one federation."""

    def __init__(
        self,
        system: "AcceleratedDatabase",
        checkpoint_dir: Optional[str] = None,
        retain: int = 3,
        clock: Callable[[], float] = time.time,
        event_history_limit: int = 256,
    ) -> None:
        if retain < 1:
            raise ValueError("retain must be >= 1")
        self._system = system
        self._store = open_store(checkpoint_dir)
        self.retain = retain
        self._clock = clock
        #: DB2-side lineage journal: last known lineage epoch per table.
        #: Survives accelerator wipe — that is the whole point.
        self.lineage_journal: dict[str, int] = {}
        #: AOT rebuild sources: table -> SELECT statement text.
        self._aot_sources: dict[str, str] = {}
        #: cursor LSN per *retained* checkpoint (feeds the trim guard).
        self._checkpoint_cursors: dict[int, int] = {}
        self._seq = 0
        self._bootstrap_from_store()
        # Lifetime counters (surfaced as recovery.* metrics).
        self.checkpoints_taken = 0
        self.checkpoint_failures = 0
        self.recoveries = 0
        self.records_replayed_total = 0
        self.tables_restored_total = 0
        self.full_reloads_total = 0
        self.aots_rebuilt_total = 0
        self.aots_lost_total = 0
        self.resync_bytes_saved_total = 0
        self.corrupt_checkpoints_skipped = 0
        self.last_checkpoint_at: Optional[float] = None
        self.last_checkpoint_id: Optional[int] = None
        self.last_checkpoint_bytes = 0
        self.last_recovery_seconds = -1.0
        self.events: deque[RecoveryEvent] = deque(maxlen=event_history_limit)
        self._event_seq = 0
        # Hook into the engine (lineage journal) and the changelog (the
        # oldest live checkpoint watermark bounds every trim).
        system.accelerator.write_listener = self._on_accelerator_write
        system.db2.change_log.add_retention_guard(self.oldest_checkpoint_lsn)

    # -- wiring ------------------------------------------------------------------

    def _bootstrap_from_store(self) -> None:
        """Adopt checkpoints already in the store (restarted process)."""
        for checkpoint_id in self._store.ids():
            self._seq = max(self._seq, checkpoint_id)
            try:
                checkpoint = Checkpoint.from_payload(
                    self._store.read(checkpoint_id)
                )
            except CorruptCheckpointError:
                continue
            self._checkpoint_cursors[checkpoint_id] = checkpoint.cursor_lsn

    def _on_accelerator_write(self, table: str, lineage_epoch: int) -> None:
        self.lineage_journal[table] = lineage_epoch

    def register_aot_source(self, name: str, select_sql: str) -> None:
        """Declare how to rebuild an AOT that a crash destroyed.

        ``select_sql`` is the SELECT whose result defines the table (the
        CTAS body, a pipeline stage's transform). Recovery re-executes it
        as ``INSERT INTO <name> <select>`` under the BATCH service class.
        """
        self._aot_sources[name.upper()] = select_sql

    def oldest_checkpoint_lsn(self) -> Optional[int]:
        """Trim guard: the changelog must keep every LSN the *oldest*
        retained checkpoint would need to replay."""
        if not self._checkpoint_cursors:
            return None
        return min(self._checkpoint_cursors.values())

    @property
    def store(self):
        return self._store

    def checkpoint_ids(self) -> list[int]:
        return self._store.ids()

    # -- checkpointing -----------------------------------------------------------

    def checkpoint(self) -> CheckpointResult:
        """Write a durable restart point and prune beyond ``retain``.

        Ordering matters: the replication cursor is read *before* the
        engine's row images are captured, so the checkpointed cursor can
        only lag the images — replay past it may redeliver records that
        are already in the image, and the engine's applied-LSN watermark
        drops them. The reverse order would lose records instead.
        """
        system = self._system
        cursor_lsn = system.replication.cursor_lsn
        table_starts = system.replication.table_starts()
        state = system.accelerator.capture_state()
        self._seq += 1
        checkpoint = Checkpoint(
            checkpoint_id=self._seq,
            created_at=self._clock(),
            catalog_generation=system.catalog.generation,
            cursor_lsn=cursor_lsn,
            table_starts=table_starts,
            tables={
                name: CheckpointTable(
                    rows=rows,
                    applied_lsn=state["applied_lsn"].get(name, 0),
                    lineage_epoch=state["lineage"].get(name, 0),
                )
                for name, rows in state["tables"].items()
            },
        )
        payload = checkpoint.to_payload()
        faults = system.faults
        if faults is not None:
            try:
                faults.crash_point("checkpoint.mid_write")
            except Exception:
                # The crash tore the write: publish a half frame under
                # the final name so restore has real damage to detect.
                self._store.write_torn(checkpoint.checkpoint_id, payload)
                self.checkpoint_failures += 1
                self._record_event(
                    "checkpoint_failed",
                    checkpoint_id=checkpoint.checkpoint_id,
                    cursor_lsn=cursor_lsn,
                    detail="crash mid-write: torn frame published",
                )
                raise
        bytes_written = self._store.write(checkpoint.checkpoint_id, payload)
        self._checkpoint_cursors[checkpoint.checkpoint_id] = cursor_lsn
        self._prune()
        rows = sum(len(entry.rows) for entry in checkpoint.tables.values())
        self.checkpoints_taken += 1
        self.last_checkpoint_at = checkpoint.created_at
        self.last_checkpoint_id = checkpoint.checkpoint_id
        self.last_checkpoint_bytes = bytes_written
        self._record_event(
            "checkpoint",
            checkpoint_id=checkpoint.checkpoint_id,
            cursor_lsn=cursor_lsn,
            tables=len(checkpoint.tables),
            rows=rows,
        )
        if system.metrics is not None:
            system.metrics.counter("recovery.checkpoints").inc()
            system.metrics.gauge("recovery.checkpoint_bytes").set(
                bytes_written
            )
        return CheckpointResult(
            checkpoint_id=checkpoint.checkpoint_id,
            cursor_lsn=cursor_lsn,
            tables=len(checkpoint.tables),
            rows=rows,
            bytes_written=bytes_written,
        )

    def _prune(self) -> None:
        ids = self._store.ids()
        while len(ids) > self.retain:
            oldest = ids.pop(0)
            self._store.delete(oldest)
            self._checkpoint_cursors.pop(oldest, None)

    def trim_changelog(self) -> int:
        """Drop changelog records no retained checkpoint needs.

        Delegates to :meth:`ChangeLog.trim`, which consults every
        retention guard — including this manager's
        :meth:`oldest_checkpoint_lsn` — so the trim can never pass the
        oldest live checkpoint's replay watermark, no matter what other
        readers exist.
        """
        change_log = self._system.db2.change_log
        dropped = change_log.trim()
        self._record_event(
            "trim",
            cursor_lsn=change_log.oldest_lsn,
            rows=dropped,
            detail=f"{dropped} records dropped",
        )
        return dropped

    # -- restart resync ----------------------------------------------------------

    def load_latest_checkpoint(
        self,
    ) -> tuple[Optional[Checkpoint], int]:
        """Newest checkpoint that validates, plus how many were corrupt."""
        corrupt = 0
        for checkpoint_id in sorted(self._store.ids(), reverse=True):
            try:
                return (
                    Checkpoint.from_payload(self._store.read(checkpoint_id)),
                    corrupt,
                )
            except CorruptCheckpointError:
                corrupt += 1
        return None, corrupt

    def recover(self) -> RecoveryResult:
        """Bring a freshly-restarted (empty) accelerator back in sync.

        Phases: (1) restore the newest valid checkpoint's table images
        and watermarks; (2) re-register replication and replay the
        changelog suffix past the checkpointed cursor — incremental,
        idempotent via the restored watermarks; (3) full-reload any
        accelerated table the checkpoint could not cover (or everything,
        when the changelog was truncated past the cursor); (4) rebuild
        AOTs whose lineage lags the DB2-side journal, as BATCH work.
        """
        started = time.perf_counter()
        system = self._system
        catalog = system.catalog
        checkpoint, corrupt = self.load_latest_checkpoint()
        self.corrupt_checkpoints_skipped += corrupt
        tables_restored = 0
        rows_restored = 0
        bytes_saved = 0
        full_reloads = 0
        records_replayed = 0
        details: list[str] = []
        if corrupt:
            details.append(f"{corrupt} corrupt checkpoint(s) skipped")

        # Phase 1: restore checkpointed images for tables still placed on
        # the accelerator. Tables dropped or de-accelerated since the
        # checkpoint are simply not restored — the catalog (DB2-side,
        # crash-surviving) is authoritative.
        restored_names: set[str] = set()
        if checkpoint is not None:
            for name, entry in checkpoint.tables.items():
                if not catalog.has_table(name):
                    continue
                descriptor = catalog.table(name)
                if descriptor.location is TableLocation.DB2_ONLY:
                    continue
                system.accelerator.restore_table(
                    descriptor,
                    entry.rows,
                    applied_lsn=entry.applied_lsn,
                    lineage_epoch=entry.lineage_epoch,
                )
                restored_names.add(name)
                tables_restored += 1
                rows_restored += len(entry.rows)
                if descriptor.location is TableLocation.ACCELERATED:
                    # A full reload would ship the whole DB2 image over
                    # the interconnect; the local restore did not.
                    bytes_saved += system.db2.storage_for(name).byte_count

        # Phase 2: re-register replication and replay the suffix.
        replicated = [
            d
            for d in catalog.tables()
            if d.location is TableLocation.ACCELERATED
        ]
        replay_failed = False
        if checkpoint is not None:
            for descriptor in replicated:
                name = descriptor.name
                if name not in restored_names:
                    continue
                start = checkpoint.table_starts.get(name)
                if start is None:
                    # Accelerated before this checkpoint format knew it;
                    # replay everything past the table's applied LSN.
                    start = checkpoint.tables[name].applied_lsn + 1
                system.replication.register_table(name, start)
            system.replication.restore_cursor(checkpoint.cursor_lsn)
            try:
                records_replayed = system.replication.drain(
                    raise_on_failure=True
                )
            except ChangelogTruncatedError as exc:
                # The log no longer reaches back to the cursor: the
                # incremental path is gone. Reload replicated tables in
                # full; their checkpoint images are discarded.
                replay_failed = True
                details.append(f"incremental replay impossible: {exc}")
                bytes_saved = 0
        if checkpoint is None or replay_failed:
            for descriptor in replicated:
                system.reload_accelerated_table(descriptor.name)
                full_reloads += 1
            system.replication.restore_cursor(
                system.db2.change_log.head_lsn
            )
        else:
            # Accelerated tables the checkpoint did not cover (added
            # after it was taken, or image lost) still need a full copy.
            for descriptor in replicated:
                if descriptor.name in restored_names:
                    continue
                system.reload_accelerated_table(descriptor.name)
                full_reloads += 1

        # Phase 4: AOTs. The changelog cannot rebuild them (they never
        # pass through DB2), so staleness comes from the lineage journal
        # and content from the registered source query.
        aots_rebuilt, aots_lost = self._recover_aots(details)

        elapsed = time.perf_counter() - started
        self.recoveries += 1
        self.records_replayed_total += records_replayed
        self.tables_restored_total += tables_restored
        self.full_reloads_total += full_reloads
        self.aots_rebuilt_total += aots_rebuilt
        self.aots_lost_total += aots_lost
        self.resync_bytes_saved_total += bytes_saved
        self.last_recovery_seconds = elapsed
        self._record_event(
            "recover",
            checkpoint_id=(
                checkpoint.checkpoint_id if checkpoint is not None else None
            ),
            cursor_lsn=(
                checkpoint.cursor_lsn if checkpoint is not None else 0
            ),
            tables=tables_restored,
            rows=rows_restored,
            records_replayed=records_replayed,
            full_reloads=full_reloads,
            aots_rebuilt=aots_rebuilt,
            bytes_saved=bytes_saved,
            detail="; ".join(details),
        )
        if system.metrics is not None:
            system.metrics.counter("recovery.recoveries").inc()
        return RecoveryResult(
            checkpoint_id=(
                checkpoint.checkpoint_id if checkpoint is not None else None
            ),
            corrupt_skipped=corrupt,
            tables_restored=tables_restored,
            rows_restored=rows_restored,
            records_replayed=records_replayed,
            full_reloads=full_reloads,
            aots_rebuilt=aots_rebuilt,
            aots_lost=aots_lost,
            resync_bytes_saved=bytes_saved,
            elapsed_seconds=elapsed,
        )

    def _recover_aots(self, details: list[str]) -> tuple[int, int]:
        system = self._system
        catalog = system.catalog
        rebuilt = 0
        lost = 0
        for descriptor in catalog.tables():
            if descriptor.location is not TableLocation.ACCELERATOR_ONLY:
                continue
            name = descriptor.name
            missing = not system.accelerator.has_storage(name)
            if missing:
                system.accelerator.create_storage(descriptor)
            journal_epoch = self.lineage_journal.get(name, 0)
            current_epoch = system.accelerator.lineage_epoch(name)
            stale = current_epoch < journal_epoch
            source = self._aot_sources.get(name)
            if source is not None:
                # A registered source *defines* the table's content, so a
                # rebuild is always correct; it is only needed when the
                # checkpoint image is stale or absent. A crash mid-build
                # leaves the journal at zero — "missing" catches it.
                if missing or stale:
                    self._rebuild_aot(name, source)
                    rebuilt += 1
                continue
            if (missing and journal_epoch > 0) or stale:
                # Writes happened that no checkpoint captured and nothing
                # can regenerate: the data is gone. Count it honestly.
                lost += 1
                details.append(f"AOT {name} stale/lost (no source registered)")
        return rebuilt, lost

    def _rebuild_aot(self, name: str, source_sql: str) -> None:
        """Repopulate one AOT from its source query as BATCH-class work.

        BATCH is the lowest-priority service class of the PR-5 workload
        manager: while the WLM is enabled, rebuild statements queue
        behind interactive traffic instead of starving it.
        """
        connection = self._system.connect()
        try:
            connection.execute(f"DELETE FROM {name}", service_class="BATCH")
            connection.execute(
                f"INSERT INTO {name} {source_sql}", service_class="BATCH"
            )
        except Exception as exc:
            raise RecoveryError(
                f"rebuilding AOT {name} from its source failed: {exc}"
            ) from exc
        finally:
            connection.close()
        # The rebuild's own writes already advanced the lineage journal
        # through the write listener; pin the journal to the engine's
        # final epoch so the next recovery sees the AOT as current.
        self.lineage_journal[name] = self._system.accelerator.lineage_epoch(
            name
        )

    # -- monitoring --------------------------------------------------------------

    def _record_event(
        self,
        kind: str,
        checkpoint_id: Optional[int] = None,
        cursor_lsn: int = 0,
        tables: int = 0,
        rows: int = 0,
        records_replayed: int = 0,
        full_reloads: int = 0,
        aots_rebuilt: int = 0,
        bytes_saved: int = 0,
        detail: str = "",
    ) -> None:
        self._event_seq += 1
        self.events.append(
            RecoveryEvent(
                event_id=self._event_seq,
                kind=kind,
                checkpoint_id=checkpoint_id,
                cursor_lsn=cursor_lsn,
                tables=tables,
                rows=rows,
                records_replayed=records_replayed,
                full_reloads=full_reloads,
                aots_rebuilt=aots_rebuilt,
                bytes_saved=bytes_saved,
                detail=detail[:512],
            )
        )

    def last_checkpoint_age_seconds(self) -> float:
        """Seconds since the last checkpoint (-1.0 = never checkpointed)."""
        if self.last_checkpoint_at is None:
            return -1.0
        return max(0.0, self._clock() - self.last_checkpoint_at)

    def replay_lag_records(self) -> int:
        """Changelog records a crash-now restart would have to replay."""
        cursor = self.oldest_checkpoint_lsn()
        if cursor is None:
            return self._system.db2.change_log.backlog(
                self._system.db2.change_log.oldest_lsn
            )
        return self._system.db2.change_log.backlog(cursor)

    def status(self) -> dict:
        """``recovery.*`` metrics snapshot (registered as a source)."""
        return {
            "checkpoints_taken": self.checkpoints_taken,
            "checkpoint_failures": self.checkpoint_failures,
            "retained_checkpoints": len(self._store.ids()),
            "last_checkpoint_id": self.last_checkpoint_id or 0,
            "last_checkpoint_bytes": self.last_checkpoint_bytes,
            "last_checkpoint_age_seconds": self.last_checkpoint_age_seconds(),
            "replay_lag_records": self.replay_lag_records(),
            "recoveries": self.recoveries,
            "last_recovery_seconds": self.last_recovery_seconds,
            "records_replayed_total": self.records_replayed_total,
            "tables_restored_total": self.tables_restored_total,
            "full_reloads_total": self.full_reloads_total,
            "aots_rebuilt_total": self.aots_rebuilt_total,
            "aots_lost_total": self.aots_lost_total,
            "resync_bytes_saved_total": self.resync_bytes_saved_total,
            "corrupt_checkpoints_skipped": self.corrupt_checkpoints_skipped,
        }
