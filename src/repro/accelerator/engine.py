"""The accelerator engine: shards, storage, snapshots, deltas, and DML.

Holds the columnar tables (both snapshot *copies* of accelerated DB2
tables and the paper's accelerator-only tables), advances the global MVCC
epoch on every applied write batch, and executes queries through the
vectorised executor at a chosen snapshot epoch, optionally merged with a
transaction's uncommitted AOT delta buffers.

The engine runs ``shards`` accelerator instances (one by default, the
paper's single appliance). Every table is a
:class:`~repro.shard.pool.ShardedTable` over one partition per shard;
each shard has its own circuit, byte counters and fault site, and can be
killed, revived and rebuilt on its own (:mod:`repro.shard`). Every
write batch commits through one path (:meth:`AcceleratorEngine._commit`),
which admits it on every shard before any mutation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.accelerator.deltas import DeltaBuffer
from repro.accelerator.executor import VectorQueryEngine
from repro.catalog import Catalog, TableDescriptor
from repro.catalog.schema import (
    TableSchema,
    columns_from_rows,
    rows_from_columns,
)
from repro.db2.changelog import ChangeRecord
from repro.errors import (
    ReplicationError,
    ReproError,
    ShardUnavailableError,
    UnknownObjectError,
)
from repro.obs.trace import Tracer
from repro.shard.placement import PartitionSpec, default_spec
from repro.shard.pool import AcceleratorShard, ShardedTable
from repro.sql import ast
from repro.sql.expressions import Scope, VColumn, compile_vector, concat_columns
from repro.sql.planning import extract_column_ranges
from repro.wlm.budget import current_budget

__all__ = ["AcceleratorEngine", "GroomStats"]

#: Simulated per-SPU scan speed (rows/second) for the busy-time model.
SCAN_ROWS_PER_SECOND = 5_000_000.0


@dataclass(frozen=True)
class GroomStats:
    """Outcome of one GROOM pass over a table."""

    rows_reclaimed: int
    chunks_before: int
    chunks_after: int


class _SnapshotProvider:
    """Vector-executor table provider bound to one snapshot + deltas."""

    def __init__(
        self,
        engine: "AcceleratorEngine",
        epoch: int,
        deltas: Optional[dict[str, DeltaBuffer]] = None,
    ) -> None:
        self._engine = engine
        self._epoch = epoch
        self._deltas = deltas or {}

    def table_schema(self, name: str) -> TableSchema:
        return self._engine.storage_for(name).schema

    def scan_columns(
        self,
        name: str,
        ranges: Optional[dict[str, tuple]] = None,
        columns: Optional[Sequence[str]] = None,
    ) -> tuple[dict[str, VColumn], int]:
        key = name.upper()
        delta = self._deltas.get(key)
        # Zone-map pruning must be disabled when a delta deletes base rows?
        # No: deletions are re-applied below; pruning only skips *reads*.
        __, cols, length = self._engine.scan_snapshot(
            key, self._epoch, ranges=ranges, delta=delta, columns=columns
        )
        return cols, length

    def chunks_skipped_total(self) -> int:
        """Engine-wide zone-map pruning counter; the profiler reads the
        delta around each scan to attribute skipped chunks per operator."""
        return self._engine.chunks_skipped


class AcceleratorEngine:
    """Columnar engine over ``shards`` instances, with epoch snapshots
    and AOT delta awareness."""

    def __init__(
        self,
        catalog: Catalog,
        shards: Sequence[AcceleratorShard],
        slice_count: int = 4,
        chunk_rows: int = 65536,
        fault_injector=None,
        tracer=None,
    ) -> None:
        if not shards:
            raise ReproError("the accelerator needs at least one shard")
        if slice_count < 1:
            raise ReproError("slice_count must be >= 1")
        self.catalog = catalog
        #: Shard count; shard ``i`` is ``shard(i)``, built with its own
        #: circuit by :func:`repro.federation.accelerator_shards`.
        self.shards = len(shards)
        self._shard_list = list(shards)
        #: Modeled SPU count: a scan's busy time is its rows over
        #: ``SCAN_ROWS_PER_SECOND × slice_count``. Storage is not sliced.
        self.slice_count = slice_count
        self.chunk_rows = chunk_rows
        #: Optional :class:`repro.federation.faults.FaultInjector`; every
        #: query/apply entry point consults it before touching storage, so
        #: an injected crash never leaves a half-written batch behind.
        self.fault_injector = fault_injector
        #: The federation's :class:`repro.obs.trace.Tracer` (a disabled
        #: one for a bare engine); SELECTs become ``accelerator.execute``
        #: spans under the statement trace.
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self._tables: dict[str, ShardedTable] = {}
        #: Replication-apply cache: table -> {row tuple: [row ids]}.
        #: Maintained incrementally by apply_changes; any other write path
        #: invalidates it.
        self._lookup_cache: dict[str, dict[tuple, list[int]]] = {}
        #: Serialises write batches (epoch assignment + chunk appends).
        #: Readers are lock-free: they scan immutable chunks at a snapshot
        #: epoch (MVCC), so only writers contend here.
        self._write_lock = threading.Lock()
        self.current_epoch = 0
        #: Per-table high-water mark of applied change-record LSNs.
        #: ``apply_changes`` skips records at or below it, which makes
        #: replication apply idempotent under redelivery — a retried
        #: batch, or a changelog replay from a recovery checkpoint.
        self._applied_lsn: dict[str, int] = {}
        #: Per-table lineage epoch, bumped on every content-changing
        #: write. The recovery manager mirrors it (via ``write_listener``)
        #: into a DB2-side journal so a restart can tell which AOTs the
        #: crash made stale or lost entirely.
        self._lineage: dict[str, int] = {}
        #: Called as ``listener(table_key, lineage_epoch)`` after each
        #: content-changing write, while the write lock is held.
        self.write_listener: Optional[Callable[[str, int], None]] = None
        #: Returns the oldest snapshot epoch an open transaction has
        #: pinned (None when none has); GROOM keeps every row version a
        #: snapshot at or after it can still see.
        self.oldest_snapshot: Optional[Callable[[], Optional[int]]] = None
        # Instrumentation.
        self.queries_executed = 0
        self.records_deduplicated = 0
        self.rows_scanned = 0
        self.chunks_skipped = 0
        self.simulated_busy_seconds = 0.0
        self.zone_maps_enabled = True
        #: Modeled wall-clock of the scan critical path: every fan-out
        #: adds the *slowest* shard's busy time, not the sum.
        self.simulated_critical_path_seconds = 0.0
        #: Shard-scans avoided by partition-key pruning / attempted.
        self.shard_scans_pruned = 0
        self.shard_scans_total = 0
        #: Called with the live-shard count after a kill or rebuild so
        #: the WLM can resize the ACCELERATOR admission gate.
        self.capacity_listener: Optional[Callable[[int], None]] = None

    def modeled_scan_seconds(self, rows: int) -> float:
        """Busy time of a scan over ``rows`` rows on ``slice_count`` SPUs."""
        return rows / (SCAN_ROWS_PER_SECOND * self.slice_count)

    # -- storage / DDL ----------------------------------------------------------

    def create_storage(self, descriptor: TableDescriptor) -> None:
        key = descriptor.name
        if key in self._tables:
            raise ReproError(f"accelerator storage for {key} already exists")
        self._tables[key] = self._new_table(descriptor)

    def _new_table(self, descriptor: TableDescriptor) -> ShardedTable:
        """Empty storage placed by the catalog's spec (or the default)."""
        spec = self.catalog.partition_spec(descriptor.name)
        if spec is None:
            spec = default_spec(descriptor)
        return ShardedTable(self, descriptor.name, descriptor.schema, spec)

    def drop_storage(self, name: str) -> None:
        self._tables.pop(name.upper(), None)
        self._lookup_cache.pop(name.upper(), None)

    def storage_for(self, name: str) -> ShardedTable:
        key = name.upper()
        table = self._tables.get(key)
        if table is None:
            raise UnknownObjectError(f"table {key} has no accelerator storage")
        return table

    def has_storage(self, name: str) -> bool:
        return name.upper() in self._tables

    # -- shards ------------------------------------------------------------------

    def shard(self, shard_id: int) -> AcceleratorShard:
        if not 0 <= shard_id < self.shards:
            raise ReproError(
                f"no shard {shard_id} (the accelerator has {self.shards})"
            )
        return self._shard_list[shard_id]

    @property
    def shard_list(self) -> list[AcceleratorShard]:
        return list(self._shard_list)

    def shard_parts(self, shard_id: int) -> list:
        """The shard's partition of every table, from the live facades."""
        return [facade.parts[shard_id] for facade in self._tables.values()]

    def shard_row_count(self, shard_id: int) -> int:
        """Live rows the shard holds over every table."""
        return sum(part.row_count for part in self.shard_parts(shard_id))

    @property
    def live_shards(self) -> int:
        return sum(1 for shard in self._shard_list if shard.alive)

    def require_shard(
        self, shard_id: int, table: Optional[ShardedTable] = None
    ) -> None:
        """Admission check for one shard: liveness, circuit, fault site.

        Injected faults for the shard's site are re-raised as
        :class:`ShardUnavailableError` after tripping the *shard's*
        circuit — the global health monitor never hears about them.
        """
        shard = self.shard(shard_id)
        if table is not None and shard_id in table.lost_shards:
            raise ShardUnavailableError(
                shard_id,
                f"shard {shard_id} lost its partition of {table.name}; "
                "reload the table (ACCEL_CONTROL action=rebuild_shard)",
            )
        if not shard.alive:
            raise ShardUnavailableError(
                shard_id, f"accelerator shard {shard_id} is down"
            )
        if not shard.health.allow_request():
            raise ShardUnavailableError(
                shard_id,
                f"accelerator shard {shard_id} circuit is open",
            )
        if self.fault_injector is not None:
            try:
                self.fault_injector.check(shard.fault_site)
            except Exception as exc:
                shard.health.record_failure()
                raise ShardUnavailableError(shard_id, str(exc)) from exc
        shard.health.record_success()

    def require_write(self, table: ShardedTable) -> None:
        """Writes need every shard: placement may route rows anywhere."""
        if table.lost_shards:
            lost = min(table.lost_shards)
            raise ShardUnavailableError(
                lost,
                f"shard {lost} lost its partition of {table.name}; "
                "reload the table (ACCEL_CONTROL action=rebuild_shard)",
            )
        for shard in self._shard_list:
            self.require_shard(shard.shard_id)

    def shards_for_ranges(
        self, table: ShardedTable, ranges: Optional[dict]
    ) -> list[int]:
        """The shards a scan under ``ranges`` must read (placement
        pruning), counted into the pruning counters."""
        candidates = table.map.spec.prune(ranges, self.shards, table.schema)
        if candidates is None:
            kept = list(range(self.shards))
        else:
            kept = sorted(c for c in candidates if 0 <= c < self.shards)
        self.shard_scans_total += self.shards
        self.shard_scans_pruned += self.shards - len(kept)
        return kept

    def kill_shard(self, shard_id: int) -> int:
        """Simulate one shard's appliance dying: its partitions are lost.

        Every facade remembers the loss, so any scan or write touching
        the dead shard fails fast with :class:`ShardUnavailableError`
        until the shard is rebuilt and its tables reloaded. Returns the
        number of rows that were resident on the shard.
        """
        shard = self.shard(shard_id)
        with self._write_lock:
            lost_rows = self.shard_row_count(shard_id)
            shard.alive = False
            shard.health.force_offline()
            for facade in self._tables.values():
                facade.lose_part(shard_id)
            self._lookup_cache.clear()
        self._notify_capacity()
        return lost_rows

    def revive_shard(self, shard_id: int) -> None:
        """Bring a killed shard back empty (its tables still need reloads)."""
        shard = self.shard(shard_id)
        shard.alive = True
        shard.health.reset()
        self._notify_capacity()

    def _notify_capacity(self) -> None:
        listener = self.capacity_listener
        if listener is not None:
            listener(self.live_shards)

    def partition_scan(
        self,
        name: str,
        epoch: int,
        ranges: Optional[dict[str, tuple]] = None,
        delta=None,
        columns: Optional[Sequence[str]] = None,
    ) -> None:
        """A stub that always returns ``None``; nothing in ``repro`` calls it.

        Training scans the row-id-ordered snapshot sequentially. The
        standing benchmark's layer recorder
        (``benchmarks/standing/layers.py``) still wraps this method by
        name, so it stays until the next change to that benchmark
        deletes both.
        """
        return None

    def _check_fault(self) -> None:
        if self.fault_injector is not None:
            self.fault_injector.check("accelerator")

    def _commit(self, batches: Sequence[tuple]) -> list[tuple[int, np.ndarray]]:
        """The one MVCC commit of write batches; the write lock is held.

        A batch is ``(table, deleted_ids, columns, nbytes)``: one table's
        deletes and coerced insert ``columns`` (none: a delete-only
        batch). Every batch is admitted on every shard once, before any
        touches storage, so a shard fault aborts them all. Their deletes
        and inserts are stamped at ``current_epoch + 1``, and that epoch
        is published — one atomic assignment — only once every batch is
        in place, so lock-free readers never observe a torn batch. Then
        each table's lineage epoch is bumped and the write listener (the
        recovery manager's DB2-side lineage journal) notified, so it only
        ever sees durably-visible writes, and the replication lookup
        cache is dropped. ``nbytes`` is the inserts' wire size if the
        caller already counted it. Returns each batch's rows deleted and
        new row ids.
        """
        for table, *__ in batches:
            self.require_write(table)
        epoch = self.current_epoch + 1
        written = []
        for table, deleted_ids, columns, nbytes in batches:
            deleted = table.mark_deleted(deleted_ids, epoch) if deleted_ids else 0
            new_ids = (
                table.append_columns(columns, epoch, nbytes=nbytes)
                if columns
                else np.empty(0, dtype=np.int64)
            )
            written.append((deleted, new_ids))
        self.current_epoch = epoch
        listener = self.write_listener
        for table, *__ in batches:
            lineage = self._lineage.get(table.name, 0) + 1
            self._lineage[table.name] = lineage
            if listener is not None:
                listener(table.name, lineage)
            self._lookup_cache.pop(table.name, None)
        return written

    # -- write paths -----------------------------------------------------------------

    def bulk_insert(
        self, name: str, rows: Sequence, nbytes: Optional[int] = None
    ) -> int:
        """Append one coerced batch — row tuples, or the aligned columns
        of a batch that is already columnar — at a fresh epoch.
        ``nbytes`` is its wire size if the caller already counted it."""
        self._check_fault()
        table = self.storage_for(name)
        columns = _batch_columns(table.schema, rows, coerced=True)
        with self._write_lock:
            self._commit([(table, (), columns, nbytes)])
        return len(columns[0])

    def apply_changes(self, name: str, records: Sequence[ChangeRecord]) -> int:
        """Apply one replication batch (insert/update/delete) atomically.

        Rows are located by before-image equality, which is how a
        replication target without shared rowids has to do it.

        Idempotence: stamped records (LSN > 0) at or below the table's
        applied-LSN watermark are skipped — a redelivered batch (retry
        after a crash, checkpoint replay over-read) is a no-op rather
        than a double apply. An empty or fully-duplicate batch returns 0
        without bumping the snapshot epoch. Stamped records must arrive
        in strictly ascending LSN order within a batch; anything else is
        an out-of-order delivery and is rejected. Unstamped records
        (LSN <= 0, direct engine use) bypass the watermark entirely.
        """
        self._check_fault()
        key = name.upper()
        table = self.storage_for(key)
        with self._write_lock:
            watermark = self._applied_lsn.get(key, 0)
            fresh = []
            last_lsn = None
            for record in records:
                if record.lsn > 0:
                    if last_lsn is not None and record.lsn <= last_lsn:
                        raise ReplicationError(
                            f"out-of-order change records for {key}: "
                            f"LSN {record.lsn} after LSN {last_lsn}"
                        )
                    last_lsn = record.lsn
                    if record.lsn <= watermark:
                        self.records_deduplicated += 1
                        continue
                fresh.append(record)
            if not fresh:
                return 0
            try:
                self._apply_changes_locked(key, table, fresh)
            except Exception:
                # The lookup cache is mutated in place while the batch is
                # processed; a failed batch leaves it inconsistent, so the
                # next drain must rebuild it from storage.
                self._lookup_cache.pop(key, None)
                raise
            if last_lsn is not None:
                self._applied_lsn[key] = max(watermark, last_lsn)
            return len(fresh)

    def _apply_changes_locked(
        self, key: str, table: ShardedTable, records
    ) -> None:
        # Rows inserted earlier in this same batch get placeholder ids
        # (-1, -2, ...) so later records in the batch can update/delete
        # them before they ever reach the column store.
        pending_inserts: dict[int, tuple] = {}
        next_placeholder = -1
        deletes: list[int] = []
        lookup: Optional[dict[tuple, list[int]]] = self._lookup_cache.get(key)

        def track_insert(row: tuple) -> None:
            nonlocal next_placeholder
            placeholder = next_placeholder
            next_placeholder -= 1
            pending_inserts[placeholder] = tuple(row)
            if lookup is not None:
                lookup.setdefault(tuple(row), []).append(placeholder)

        for record in records:
            if record.op == "INSERT":
                track_insert(record.after)
                continue
            if lookup is None:
                row_ids, rows = _visible_rows(table, self.current_epoch)
                lookup = {}
                for row_id, row in zip(row_ids.tolist(), rows):
                    lookup.setdefault(row, []).append(row_id)
                for placeholder, row in pending_inserts.items():
                    lookup.setdefault(row, []).append(placeholder)
            before = tuple(record.before)
            candidates = lookup.get(before)
            if not candidates:
                raise ReplicationError(
                    f"cannot locate row {before!r} in copy of {key}"
                )
            row_id = candidates.pop()
            if not candidates:
                # Drop emptied keys: the cache lives across GROOMs.
                del lookup[before]
            if row_id < 0:
                del pending_inserts[row_id]
            else:
                deletes.append(row_id)
            if record.op == "UPDATE":
                track_insert(record.after)
            elif record.op != "DELETE":
                raise ReplicationError(f"unknown change op {record.op}")
        inserts = list(pending_inserts.values())
        columns = (
            _batch_columns(table.schema, inserts, coerced=True) if inserts else ()
        )
        ((__, new_ids),) = self._commit([(table, deletes, columns, None)])
        if lookup is not None:
            # Swap batch placeholders for the real row ids, then put back
            # the cache the commit dropped: it stays valid for the next
            # drain.
            for (placeholder, row), real_id in zip(
                pending_inserts.items(), new_ids
            ):
                ids = lookup.get(row, [])
                for position, candidate in enumerate(ids):
                    if candidate == placeholder:
                        ids[position] = int(real_id)
                        break
            self._lookup_cache[key] = lookup

    def apply_delta(self, deltas: Iterable[DeltaBuffer]) -> int:
        """Commit a transaction's AOT deltas as one write at one epoch;
        returns the rows deleted and inserted. Every table is looked up
        and admitted under one hold of the write lock before any row is
        stamped, so a dropped table or a lost shard refuses them all."""
        with self._write_lock:
            batches = []
            for delta in deltas:
                if delta.is_empty:
                    continue
                table = self.storage_for(delta.table)
                live = delta.live_inserts()
                columns = _batch_columns(table.schema, live, coerced=True) if live else ()
                batches.append((table, sorted(delta.deleted_base_ids), columns, None))
            written = self._commit(batches) if batches else []
        return sum(deleted + len(new_ids) for deleted, new_ids in written)

    def groom(self, name: str) -> GroomStats:
        """Rewrite a table's storage without its reclaimable versions.

        This is Netezza's GROOM: row versions deleted at or before the
        oldest snapshot epoch an open transaction has pinned are
        physically reclaimed and the rest are rewritten into full chunks.
        Retained rows keep their row ids and their insert/delete epochs,
        so every open snapshot reads the same rows after the groom as
        before it.
        """
        key = name.upper()
        table = self.storage_for(key)
        with self._write_lock:
            self.require_write(table)
            return self._groom_locked(key, table)

    def _groom_locked(
        self,
        key: str,
        table: ShardedTable,
        spec: Optional[PartitionSpec] = None,
    ) -> "GroomStats":
        """GROOM under the write lock, once the caller has admitted the
        table's write; a ``spec`` places the rewritten rows anew
        (:meth:`ShardedTable.successor`)."""
        floor = self.current_epoch
        pinned = self.oldest_snapshot() if self.oldest_snapshot else None
        if pinned is not None:
            floor = min(floor, pinned)
        chunks_before = table.total_chunk_count
        row_ids, columns, versions = table.read_versions(floor)
        fresh = table.successor(spec)
        fresh.append_columns(
            [columns[c.name] for c in table.schema.columns],
            epoch=0,
            row_ids=row_ids,
            versions=versions,
        )
        # Row ids and live rows are unchanged, so the replication lookup
        # cache stays valid across the rewrite.
        self._tables[key] = fresh
        return GroomStats(
            rows_reclaimed=table.stored_rows - fresh.stored_rows,
            chunks_before=chunks_before,
            chunks_after=fresh.total_chunk_count,
        )

    def redistribute(self, name: str, spec: PartitionSpec) -> int:
        """Re-place a table's rows under a new partition spec; returns
        the live-row count.

        This is GROOM under the new spec: every row version an open
        snapshot can still see is rewritten with its row id and its own
        insert/delete epochs and routed by the new spec, so open
        transactions read the same rows after the move as before it.
        Only the successor takes the new spec: readers of the old facade,
        and the table itself if the move fails, keep pruning by the
        placement its rows have.
        """
        key = name.upper()
        table = self.storage_for(key)
        with self._write_lock:
            self.require_write(table)
            self._groom_locked(key, table, spec=spec)
            return self._tables[key].row_count

    def range_key_values(self, name: str, column: str) -> list:
        """Non-NULL values of one column (boundary computation input)."""
        table = self.storage_for(name)
        _, columns = table.read_visible(self.current_epoch, columns=[column])
        return [v for v in columns[column].to_objects() if v is not None]

    # -- recovery support ---------------------------------------------------------------

    def applied_lsn(self, name: str) -> int:
        """Highest change-record LSN applied to ``name`` (0 = none)."""
        return self._applied_lsn.get(name.upper(), 0)

    def lineage_epoch(self, name: str) -> int:
        """Current lineage epoch of ``name`` (0 = never written)."""
        return self._lineage.get(name.upper(), 0)

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def capture_state(self) -> dict:
        """Consistent image of every table + watermarks, one lock hold.

        Used by checkpointing. Because the write lock blocks every write
        path, the row images, applied-LSN watermarks, and lineage epochs
        are mutually consistent — no batch can land between a table's
        rows and its watermark being captured.
        """
        with self._write_lock:
            tables = {
                key: _visible_rows(table, self.current_epoch)[1]
                for key, table in sorted(self._tables.items())
            }
            return {
                "tables": tables,
                "applied_lsn": dict(self._applied_lsn),
                "lineage": dict(self._lineage),
            }

    def snapshot_rows(self, name: str) -> list[tuple]:
        """Live rows of one table at the current epoch (write-blocked)."""
        table = self.storage_for(name)
        with self._write_lock:
            return _visible_rows(table, self.current_epoch)[1]

    def wipe(self) -> None:
        """Simulate a crash: every piece of volatile state is lost.

        Tables, lookup caches, LSN watermarks, lineage epochs, and the
        snapshot epoch all go — exactly what an appliance restart loses.
        Recovery rebuilds them from the last checkpoint plus the
        changelog suffix.
        """
        with self._write_lock:
            self._tables.clear()
            self._lookup_cache.clear()
            self._applied_lsn.clear()
            self._lineage.clear()
            self.current_epoch = 0

    def restore_table(
        self,
        descriptor: TableDescriptor,
        rows: Sequence[tuple],
        applied_lsn: int = 0,
        lineage_epoch: int = 0,
    ) -> int:
        """Load a checkpointed table image during restart recovery.

        Rows land at epoch 0 — visible to every snapshot — and the write
        listener is deliberately *not* fired: a restore is not new work,
        so lineage epochs come from the checkpoint, not from the load.
        """
        key = descriptor.name
        table = self._new_table(descriptor)
        with self._write_lock:
            if rows:
                self.require_write(table)
                table.append_columns(
                    _batch_columns(table.schema, rows, coerced=True), 0
                )
            self._tables[key] = table
            self._lookup_cache.pop(key, None)
            if applied_lsn:
                self._applied_lsn[key] = applied_lsn
            if lineage_epoch:
                self._lineage[key] = lineage_epoch
        return len(rows)

    # -- snapshot reads -----------------------------------------------------------------

    def scan_snapshot(
        self,
        name: str,
        epoch: int,
        ranges: Optional[dict[str, tuple]] = None,
        delta: Optional[DeltaBuffer] = None,
        columns: Optional[Sequence[str]] = None,
    ) -> tuple[np.ndarray, dict[str, VColumn], int]:
        """Visible columns at ``epoch`` merged with an optional own-delta.

        Returned row ids are base ids for base rows and ``-(index+1)`` for
        rows coming from the delta buffer (so DML can target them).
        ``columns`` restricts materialisation to a name subset (projection
        pruning).
        """
        table = self.storage_for(name)
        table.zone_maps_enabled = self.zone_maps_enabled
        wanted = (
            list(table.schema.columns)
            if columns is None
            else [c for c in table.schema.columns if c.name in set(columns)]
        )
        row_ids, columns_read = table.read_visible(
            epoch, columns=[c.name for c in wanted], ranges=ranges
        )
        self.rows_scanned += len(row_ids)
        self.chunks_skipped += table.last_scan_chunks_skipped
        self.simulated_busy_seconds += self.modeled_scan_seconds(
            table.row_count
        )
        if delta is None or delta.is_empty:
            return row_ids, columns_read, len(row_ids)

        keep = ~np.isin(row_ids, np.fromiter(
            delta.deleted_base_ids, dtype=np.int64,
            count=len(delta.deleted_base_ids),
        )) if delta.deleted_base_ids else np.ones(len(row_ids), dtype=bool)
        row_ids = row_ids[keep]
        columns_read = {
            name_: VColumn(
                values=col.values[keep],
                mask=col.mask[keep] if col.mask is not None else None,
            )
            for name_, col in columns_read.items()
        }
        insert_indexes = delta.live_insert_indexes()
        if insert_indexes:
            inserted_rows = [delta.inserted[i] for i in insert_indexes]
            extra = columns_from_rows(table.schema, inserted_rows)
            columns_read = {
                column.name: concat_columns(
                    [columns_read[column.name], extra[column.name]]
                )
                for column in wanted
            }
            delta_ids = np.array(
                [-(i + 1) for i in insert_indexes], dtype=np.int64
            )
            row_ids = np.concatenate([row_ids, delta_ids])
        return row_ids, columns_read, len(row_ids)

    # -- queries -------------------------------------------------------------------------

    def execute_select(
        self,
        stmt,
        params: Sequence[object] = (),
        snapshot_epoch: Optional[int] = None,
        deltas: Optional[dict[str, DeltaBuffer]] = None,
        plan=None,
        profile=None,
    ) -> tuple[list[str], list[tuple]]:
        epoch = self.current_epoch if snapshot_epoch is None else snapshot_epoch
        with self.tracer.span("accelerator.execute", epoch=epoch) as span:
            scanned_before = self.rows_scanned
            self._check_fault()
            provider = _SnapshotProvider(self, epoch, deltas)
            engine = VectorQueryEngine(provider, params, profile=profile)
            columns, rows = engine.execute(plan if plan is not None else stmt)
            self.queries_executed += 1
            span.annotate(
                rows=len(rows),
                rows_scanned=self.rows_scanned - scanned_before,
            )
        return columns, rows

    # -- AOT DML ------------------------------------------------------------------------------

    def insert_into(
        self,
        name: str,
        rows: Sequence,
        delta: Optional[DeltaBuffer] = None,
        already_coerced: bool = False,
        nbytes: Optional[int] = None,
    ) -> int:
        """INSERT: into the txn delta when given, else applied directly.

        ``rows`` are row tuples or the aligned columns of a batch that
        never left columnar form; either way they are coerced and land as
        columns. Only the transaction delta holds row tuples. ``nbytes``
        is the batch's wire size if the caller already counted it.
        """
        schema = self.storage_for(name).schema
        columns = _batch_columns(schema, rows, already_coerced)
        if delta is not None:
            delta.insert(rows_from_columns(columns))
        else:
            # Crash point: an accelerator-only populate (CTAS / direct
            # INSERT ... SELECT) dies before any row became durable.
            if self.fault_injector is not None:
                self.fault_injector.crash_point("aot.mid_build")
            self.bulk_insert(name, columns, nbytes)
        return len(columns[0])

    def delete_where(
        self,
        stmt: ast.DeleteStatement,
        params: Sequence[object] = (),
        snapshot_epoch: Optional[int] = None,
        delta: Optional[DeltaBuffer] = None,
    ) -> int:
        name = stmt.table.upper()
        budget = current_budget()
        if budget is not None:
            # Deadline checkpoint before target selection: the statement
            # stops here rather than after a (fully atomic) apply.
            budget.check()
        if delta is not None:
            base_ids, own_indexes = self._target_rows(
                name, stmt.where, params, snapshot_epoch, delta
            )
            deleted = delta.delete_base(base_ids)
            deleted += delta.delete_own(own_indexes)
            return deleted
        # Direct apply: target selection and deletion form one atomic
        # read-modify-write, so concurrent DML cannot double-apply.
        table = self.storage_for(name)
        with self._write_lock:
            base_ids, __ = self._target_rows(
                name, stmt.where, params, snapshot_epoch, None
            )
            if not base_ids:
                return 0
            return self._commit([(table, base_ids, (), None)])[0][0]

    def update_where(
        self,
        stmt: ast.UpdateStatement,
        params: Sequence[object] = (),
        snapshot_epoch: Optional[int] = None,
        delta: Optional[DeltaBuffer] = None,
    ) -> int:
        name = stmt.table.upper()
        budget = current_budget()
        if budget is not None:
            budget.check()
        if delta is None:
            # Direct apply is an atomic read-modify-write (see delete).
            with self._write_lock:
                return self._update_where_unlocked(
                    stmt, params, snapshot_epoch, None
                )
        return self._update_where_unlocked(stmt, params, snapshot_epoch, delta)

    def _update_where_unlocked(
        self,
        stmt: ast.UpdateStatement,
        params: Sequence[object],
        snapshot_epoch: Optional[int],
        delta: Optional[DeltaBuffer],
    ) -> int:
        name = stmt.table.upper()
        table = self.storage_for(name)
        schema = table.schema
        epoch = self.current_epoch if snapshot_epoch is None else snapshot_epoch
        row_ids, columns, length = self.scan_snapshot(name, epoch, delta=delta)
        scope = Scope([(name, c.name) for c in schema.columns])
        ordered = [columns[c.name] for c in schema.columns]
        mask = self._predicate_mask(stmt.where, scope, ordered, length, params)
        if not mask.any():
            return 0
        target_positions = np.flatnonzero(mask)
        # The targets' new rows as coerced columns: untouched columns are
        # gathered, assigned ones computed over the scan.
        assignments = dict(stmt.assignments)
        new_columns = schema.coerce_columns([
            (
                source
                if column.name not in assignments
                else compile_vector(assignments[column.name], scope, params)(
                    ordered, length
                )
            ).take(target_positions)
            for column, source in zip(schema.columns, ordered)
        ])
        target_ids = row_ids[mask].tolist()
        base_ids = [r for r in target_ids if r >= 0]
        if delta is None:
            self._commit([(table, base_ids, new_columns, None)])
            return len(target_ids)
        delta.delete_base(base_ids)
        # Replace own inserts in place; base targets become new inserts.
        for r, row in zip(target_ids, rows_from_columns(new_columns)):
            if r < 0:
                delta.update_own(-r - 1, row)
            else:
                delta.insert([row])
        return len(target_ids)

    def _target_rows(
        self,
        name: str,
        where: Optional[ast.Expression],
        params: Sequence[object],
        snapshot_epoch: Optional[int],
        delta: Optional[DeltaBuffer],
    ) -> tuple[list[int], list[int]]:
        table = self.storage_for(name)
        schema = table.schema
        epoch = self.current_epoch if snapshot_epoch is None else snapshot_epoch
        scope = Scope([(name, c.name) for c in schema.columns])
        binding_columns = {i: c.name for i, c in enumerate(schema.columns)}
        ranges = (
            extract_column_ranges(where, scope, binding_columns, params)
            if where is not None
            else {}
        )
        row_ids, columns, length = self.scan_snapshot(
            name, epoch, ranges=ranges or None, delta=delta
        )
        ordered = [columns[c.name] for c in schema.columns]
        mask = self._predicate_mask(where, scope, ordered, length, params)
        targets = row_ids[mask]
        base_ids = [int(r) for r in targets if r >= 0]
        own_indexes = [-(int(r)) - 1 for r in targets if r < 0]
        return base_ids, own_indexes

    def _predicate_mask(
        self,
        where: Optional[ast.Expression],
        scope: Scope,
        columns: list[VColumn],
        length: int,
        params: Sequence[object],
    ) -> np.ndarray:
        if where is None:
            return np.ones(length, dtype=bool)
        fn = compile_vector(
            where, scope, params, self._dml_resolver(scope, params)
        )
        result = fn(columns, length)
        mask = result.values.astype(bool)
        if result.mask is not None:
            mask &= ~result.mask
        return mask

    def _dml_resolver(self, scope: Scope, params: Sequence[object]):
        from repro.sql.correlation import SubqueryExecutor

        return SubqueryExecutor(
            scope,
            lambda table: self.storage_for(table).schema.column_names,
            lambda query: self.execute_select(query, params=params)[1],
        )


def _batch_columns(
    schema: TableSchema, batch: Sequence, coerced: bool
) -> list[VColumn]:
    """A write batch as coerced columns in schema order.

    The batch is row tuples (packed here, once) or already aligned
    columns (passed through); ``coerced`` says whether its values have
    been through the schema's type rules yet.
    """
    if len(batch) and isinstance(batch[0], VColumn):
        return list(batch) if coerced else schema.coerce_columns(batch)
    if coerced:
        return list(columns_from_rows(schema, batch).values())
    return schema.coerce_rows(batch)


def _visible_rows(
    table: ShardedTable, epoch: int
) -> tuple[np.ndarray, list[tuple]]:
    """Every row of ``table`` visible at ``epoch``, boxed, with its id."""
    row_ids, columns = table.read_visible(epoch)
    return row_ids, rows_from_columns(
        [columns[c.name] for c in table.schema.columns]
    )
