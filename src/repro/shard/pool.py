"""The accelerator's shards and the table facade that spreads rows over them.

:class:`~repro.accelerator.engine.AcceleratorEngine` runs ``shards``
accelerator instances — one by default, the paper's single appliance.
Every table it stores is a :class:`ShardedTable` facade over one
:class:`ColumnStoreTable` per shard, its rows placed by the table's
:class:`~repro.shard.placement.PartitionSpec`. Replication apply, DML,
grooming, checkpoint capture, snapshot scans and the vector executor
see only the facade, so they run the same at every shard count.

**Byte identity.** The facade assigns row ids exactly as one table
would (fresh ids only grow), and every part scans in row-id order.
Reads fan out to the shards (with partition-key shard pruning and
per-shard zone maps), then one stable argsort on row id merges the
shard reads — so every downstream consumer sees the same bytes at every
shard count, in the order DB2 inserted the rows.

**Resilience.** Each shard owns a health circuit, byte counters for
its traffic and a fault site (``accelerator.shard<N>``). A failing
shard raises :class:`~repro.errors.ShardUnavailableError` — trip *its*
circuit, not the engine's — so statements over surviving shards keep
being offloaded while affected ones degrade to DB2. Writes fail fast
*before* any mutation, which keeps the replication service's
exactly-once pinning intact: an abandoned batch stays wholly unapplied.
The engine's one commit path (``AcceleratorEngine._commit``) keeps that
promise: it admits a batch on every shard once, before it stamps a
delete or appends a row, so the facade's write methods do not admit.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from repro.catalog.schema import TableSchema
from repro.shard.placement import PartitionSpec, ShardMap
from repro.sql.expressions import VColumn, concat_columns
from repro.storage.column_store import (
    Chunk,
    ColumnStoreTable,
    batch_row_ids,
    empty_read,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    # The federation builds each shard's circuit
    # (repro.federation.accelerator_shards); nothing here imports it.
    from repro.federation.health import HealthMonitor

__all__ = [
    "AcceleratorShard",
    "PoolAdmissionHealth",
    "ShardedTable",
]


class AcceleratorShard:
    """One accelerator instance of the engine.

    Owns its own circuit breaker and its own fault site so tests and
    operators can fail instances independently. Its table partitions
    are the live facades' ``parts[shard_id]``
    (:meth:`AcceleratorEngine.shard_parts`).
    """

    def __init__(self, shard_id: int, health: HealthMonitor) -> None:
        self.shard_id = shard_id
        self.fault_site = f"accelerator.shard{shard_id}"
        self.health = health
        #: False after a kill until the shard is rebuilt; unlike an open
        #: circuit this never half-opens on its own.
        self.alive = True
        # Instrumentation (surfaced by SYSACCEL.MON_SHARDS).
        self.scans = 0
        self.rows_scanned = 0
        self.rows_written = 0
        self.simulated_busy_seconds = 0.0
        #: Modeled bytes of the rows written to the shard and of the scan
        #: results it shipped back.
        self.bytes_to_shard = 0
        self.bytes_from_shard = 0
        #: Sessions scan a shard concurrently (writes hold the engine's
        #: write lock); its scan counters are read-modify-writes.
        self.scan_lock = threading.Lock()


class ShardedTable:
    """One accelerated table spread over every shard of the engine.

    Presents the ``ColumnStoreTable`` surface the engine uses
    (``append_columns`` / ``mark_deleted`` / ``read_visible`` /
    ``iter_chunks`` + the bookkeeping attributes). Its counts are sums
    over the parts, so a partition lost to a kill leaves them until it
    is reloaded.
    """

    def __init__(
        self,
        engine,
        name: str,
        schema: TableSchema,
        spec: PartitionSpec,
        generation: int = 1,
    ) -> None:
        self._engine = engine
        self.name = name
        self.schema = schema
        #: Per-shard data partitions, indexed by shard id.
        self.parts = [
            ColumnStoreTable(schema, chunk_rows=engine.chunk_rows)
            for _ in range(engine.shards)
        ]
        self.map = ShardMap(table=name, spec=spec, generation=generation)
        self._next_row_id = 0
        self.zone_maps_enabled = True
        self.last_scan_chunks_skipped = 0
        self.last_scan_chunks_total = 0
        #: Shards whose partition of this table was lost to a kill and
        #: not reloaded yet; scans touching one fail fast.
        self.lost_shards: set[int] = set()
        self._key_positions = [schema.position_of(c) for c in spec.columns]

    def successor(self, spec: Optional[PartitionSpec] = None) -> "ShardedTable":
        """Empty facade that continues this table's row ids; a new
        ``spec`` places its rows anew under the next shard-map
        generation, and this table keeps its own placement until the
        successor replaces it."""
        generation = self.map.generation
        if spec is None:
            spec = self.map.spec
        else:
            generation += 1
        fresh = ShardedTable(
            self._engine, self.name, self.schema, spec, generation
        )
        fresh._next_row_id = self._next_row_id
        return fresh

    def lose_part(self, shard_id: int) -> None:
        """Drop one shard's partition (its appliance died)."""
        self.parts[shard_id] = ColumnStoreTable(
            self.schema, chunk_rows=self.parts[shard_id].chunk_rows
        )
        self.lost_shards.add(shard_id)

    # -- bookkeeping surface -------------------------------------------------

    @property
    def row_count(self) -> int:
        return sum(part.row_count for part in self.parts)

    @property
    def total_chunk_count(self) -> int:
        return sum(part.total_chunk_count for part in self.parts)

    @property
    def stored_rows(self) -> int:
        return sum(part.stored_rows for part in self.parts)

    def iter_chunks(self) -> Iterator[Chunk]:
        """Data chunks of every shard (order-insensitive consumers only)."""
        for part in self.parts:
            yield from part.iter_chunks()

    def byte_count(self, epoch: Optional[int] = None) -> int:
        return sum(part.byte_count(epoch) for part in self.parts)

    # -- write path ----------------------------------------------------------

    def append_columns(
        self,
        columns: Sequence[VColumn],
        epoch: int,
        row_ids: Optional[np.ndarray] = None,
        versions: Optional[tuple[np.ndarray, np.ndarray]] = None,
        nbytes: Optional[int] = None,
    ) -> np.ndarray:
        """Assign row ids as one table would, then route each row to its
        shard.

        The engine has admitted the batch on every shard before this
        runs. ``nbytes`` is the batch's wire size when the caller already
        counted it for its own link: a shard that takes the whole batch
        counts that number instead of walking the values again.
        """
        engine = self._engine
        count = len(columns[0])
        if not count:
            return np.empty(0, dtype=np.int64)
        assigned = batch_row_ids(self, count, row_ids)
        for shard_id, indexes in self._route(columns, assigned):
            part_columns, part_ids, part_versions = columns, assigned, versions
            part_bytes = nbytes
            if indexes is not None:
                part_columns = [column.take(indexes) for column in columns]
                part_ids = assigned[indexes]
                if versions is not None:
                    part_versions = tuple(np.asarray(v)[indexes] for v in versions)
                part_bytes = None
            self.parts[shard_id].append_columns(
                part_columns, epoch, row_ids=part_ids, versions=part_versions
            )
            if part_bytes is None:
                part_bytes = self.schema.columns_byte_size(part_columns)
            shard = engine.shard(shard_id)
            shard.rows_written += len(part_ids)
            shard.bytes_to_shard += part_bytes
        return assigned

    def _route(
        self, columns: Sequence[VColumn], row_ids: np.ndarray
    ) -> list[tuple[int, Optional[np.ndarray]]]:
        """``(shard id, row indexes)`` for each shard the batch lands on,
        worked out once per batch. A shard that takes the whole batch —
        every batch at one shard, a single-row commit at any count —
        gets ``None``: the batch passes through without a gather."""
        shard_of_row = self.map.spec.shards_for_columns(
            [columns[p] for p in self._key_positions],
            row_ids,
            self._engine.shards,
        )
        low, high = int(shard_of_row.min()), int(shard_of_row.max())
        if low == high:
            return [(low, None)]
        routes = []
        for shard_id in range(low, high + 1):
            indexes = np.flatnonzero(shard_of_row == shard_id)
            if len(indexes):
                routes.append((shard_id, indexes))
        return routes

    def mark_deleted(self, row_ids: Sequence[int], epoch: int) -> int:
        """Broadcast the delete; each shard stamps only the ids it owns."""
        return sum(part.mark_deleted(row_ids, epoch) for part in self.parts)

    # -- read path -----------------------------------------------------------

    def read_visible(
        self,
        epoch: int,
        columns: Optional[Sequence[str]] = None,
        ranges: Optional[dict[str, tuple]] = None,
    ) -> tuple[np.ndarray, dict[str, VColumn]]:
        """Fan the scan out per shard, merge back in row-id order.

        The per-shard scans get both partition-key shard pruning and their
        own zone maps, so the merge is a superset of the predicate's
        matches in row-id order; the executor re-applies the full
        predicate — same bytes out at every shard count.
        """
        engine = self._engine
        wanted = (
            list(columns)
            if columns is not None
            else list(self.schema.column_names)
        )
        scan_ids = engine.shards_for_ranges(self, ranges)
        gathered: list[tuple[np.ndarray, dict[str, VColumn]]] = []
        skipped = 0
        total = 0
        critical = 0.0
        for shard_id in scan_ids:
            engine.require_shard(shard_id, table=self)
            part = self.parts[shard_id]
            part.zone_maps_enabled = self.zone_maps_enabled
            ids, cols = part.read_visible(epoch, columns=wanted, ranges=ranges)
            skipped += part.last_scan_chunks_skipped
            total += part.last_scan_chunks_total
            shard = engine.shard(shard_id)
            busy = engine.modeled_scan_seconds(part.row_count)
            with shard.scan_lock:
                shard.scans += 1
                shard.rows_scanned += len(ids)
                shard.simulated_busy_seconds += busy
                # Modeled result shipping back from the shard.
                shard.bytes_from_shard += 8 * len(ids) * max(1, len(wanted))
            critical = max(critical, busy)
            if len(ids):
                gathered.append((ids, cols))
        self.last_scan_chunks_skipped = skipped
        self.last_scan_chunks_total = total
        engine.simulated_critical_path_seconds += critical
        row_ids, out, _ = self._merge(gathered, wanted)
        return row_ids, out

    def read_versions(
        self, floor: int, columns: Optional[Sequence[str]] = None
    ) -> tuple[np.ndarray, dict[str, VColumn], tuple[np.ndarray, np.ndarray]]:
        """:meth:`ColumnStoreTable.read_versions` over every shard, in
        row-id order."""
        wanted = (
            list(columns)
            if columns is not None
            else list(self.schema.column_names)
        )
        gathered = []
        versions = []
        for shard_id, part in enumerate(self.parts):
            self._engine.require_shard(shard_id, table=self)
            ids, cols, epochs = part.read_versions(floor, columns=wanted)
            if len(ids):
                gathered.append((ids, cols))
                versions.append(epochs)
        row_ids, out, order = self._merge(gathered, wanted)
        empty = np.empty(0, dtype=np.int64)
        inserts = np.concatenate([empty, *(v[0] for v in versions)])
        deletes = np.concatenate([empty, *(v[1] for v in versions)])
        if order is not None:
            inserts, deletes = inserts[order], deletes[order]
        return row_ids, out, (inserts, deletes)

    def _merge(
        self,
        gathered: list[tuple[np.ndarray, dict[str, VColumn]]],
        wanted: list[str],
    ) -> tuple[np.ndarray, dict[str, VColumn], Optional[np.ndarray]]:
        """The shard reads as one read in row-id order, and the
        permutation of their concatenation that sorts it (None when one
        read needs no sort)."""
        if not gathered:
            return (*empty_read(self.schema, wanted), None)
        if len(gathered) == 1:
            return (*gathered[0], None)
        merged_ids = np.concatenate([ids for ids, _ in gathered])
        order = np.argsort(merged_ids, kind="stable")
        out: dict[str, VColumn] = {}
        for name in wanted:
            column = concat_columns([cols[name] for _, cols in gathered])
            out[name] = column.take(order)
        return merged_ids[order], out, order


class PoolAdmissionHealth:
    """WLM-facing health view over the engine's shards.

    The load shedder's only question is "is queueing accelerator work
    pointless right now?". The honest answer is per-shard: one dead
    shard of several must NOT shed statements — surviving shards keep
    serving offloaded work, and pruned scans may never touch the dead
    one — but an engine with *no* usable shard, or a globally open
    circuit, should bounce sheddable classes immediately.
    """

    def __init__(self, health: HealthMonitor, engine) -> None:
        self.global_health = health
        self.engine = engine

    @property
    def available(self) -> bool:
        if not self.global_health.available:
            return False
        return any(
            shard.alive and shard.health.available
            for shard in self.engine.shard_list
        )
