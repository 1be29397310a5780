"""The accelerator pool: N shards behind the single-engine interface.

:class:`AcceleratorPool` subclasses
:class:`~repro.accelerator.engine.AcceleratorEngine` and swaps the
storage objects: instead of one :class:`ColumnStoreTable` per table it
keeps a :class:`ShardedTable` facade that spreads the rows over N
per-shard column stores by the table's
:class:`~repro.shard.placement.PartitionSpec`. Everything above the
storage surface — replication apply, DML, grooming, checkpoint capture,
snapshot scans, the vector executor — runs unchanged.

**Byte identity.** The facade assigns row ids exactly as a single
accelerator would (fresh ids only grow), and a single instance scans in
row-id order. Reads fan out to the shards (with partition-key shard
pruning and per-shard zone maps), then one stable argsort on row id
merges the shard reads — so every downstream consumer sees the same
bytes at every shard count, in the order DB2 inserted the rows.

**Resilience.** Each shard owns a health circuit, an interconnect link,
and a fault site (``accelerator.shard<N>``). A failing shard raises
:class:`~repro.errors.ShardUnavailableError` — trip *its* circuit, not
the pool's — so statements over surviving shards keep being offloaded
while affected ones degrade to DB2. Writes fail fast *before* any
mutation, which keeps the replication service's exactly-once pinning
intact: an abandoned batch stays wholly unapplied.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from repro.accelerator.engine import SCAN_ROWS_PER_SECOND, AcceleratorEngine
from repro.catalog.schema import TableSchema, columns_from_rows
from repro.errors import ReproError, ShardUnavailableError
from repro.federation.health import HealthMonitor
from repro.federation.network import Interconnect
from repro.shard.placement import PartitionSpec, ShardMap, default_spec
from repro.sql.expressions import VColumn, concat_columns
from repro.storage.column_store import (
    Chunk,
    ColumnStoreTable,
    batch_row_ids,
    empty_read,
)

__all__ = [
    "AcceleratorPool",
    "AcceleratorShard",
    "PoolAdmissionHealth",
    "ShardedTable",
]


class AcceleratorShard:
    """One accelerator instance of the pool.

    Owns its own circuit breaker, its own byte-accounting interconnect
    link, and its own fault site so tests and operators can fail
    instances independently. Its table partitions are the pool's live
    facades' ``parts[shard_id]`` (:meth:`AcceleratorPool.shard_parts`).
    """

    def __init__(
        self,
        shard_id: int,
        health: HealthMonitor,
        interconnect: Interconnect,
    ) -> None:
        self.shard_id = shard_id
        self.fault_site = f"accelerator.shard{shard_id}"
        self.health = health
        self.interconnect = interconnect
        #: False after a kill until the shard is rebuilt; unlike an open
        #: circuit this never half-opens on its own.
        self.alive = True
        # Instrumentation (surfaced by SYSACCEL.MON_SHARDS).
        self.scans = 0
        self.rows_scanned = 0
        self.rows_written = 0
        self.simulated_busy_seconds = 0.0


class ShardedTable:
    """One accelerated table spread over every shard of the pool.

    Presents the exact ``ColumnStoreTable`` surface the engine uses
    (``append_columns`` / ``mark_deleted`` / ``read_visible`` /
    ``iter_chunks`` + the bookkeeping attributes), so the
    single-instance write, replication, groom, and recovery logic runs
    unchanged against a pool. Its counts are sums over the parts, so a
    partition lost to a kill leaves them until it is reloaded.
    """

    def __init__(
        self,
        pool: "AcceleratorPool",
        name: str,
        schema: TableSchema,
        parts: list[ColumnStoreTable],
        shard_map: ShardMap,
    ) -> None:
        self._pool = pool
        self.name = name
        self.schema = schema
        #: Per-shard data partitions, indexed by shard id.
        self.parts = parts
        self.map = shard_map
        self._next_row_id = 0
        self.zone_maps_enabled = True
        self.last_scan_chunks_skipped = 0
        self.last_scan_chunks_total = 0
        #: Shards whose partition of this table was lost to a kill and
        #: not reloaded yet; scans touching one fail fast.
        self.lost_shards: set[int] = set()
        self._key_positions = [
            schema.position_of(c) for c in shard_map.spec.columns
        ]

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
    ) -> np.ndarray:
        """Assign row ids as a single table would, then route each row
        to its shard.

        The all-shards health check runs *before* any mutation so a dead
        shard aborts the batch atomically — replication's partial-batch
        pinning then redelivers it untouched once the shard is back.
        """
        pool = self._pool
        pool.require_write(self)
        count = len(columns[0])
        if not count:
            return np.empty(0, dtype=np.int64)
        assigned = batch_row_ids(self, count, row_ids)
        shard_of_row = self.map.spec.shards_for_columns(
            [columns[p] for p in self._key_positions], assigned, pool.shards
        )
        for shard_id in np.unique(shard_of_row).tolist():
            indexes = np.flatnonzero(shard_of_row == shard_id)
            part_columns = [column.take(indexes) for column in columns]
            shard = pool.shard(shard_id)
            self.parts[shard_id].append_columns(
                part_columns,
                epoch,
                row_ids=assigned[indexes],
                versions=None
                if versions is None
                else tuple(np.asarray(v)[indexes] for v in versions),
            )
            shard.rows_written += len(indexes)
            shard.interconnect.send_to_accelerator(
                self.schema.columns_byte_size(part_columns)
            )
        return assigned

    def append_rows(
        self,
        rows: Sequence[tuple],
        epoch: int,
        row_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """:meth:`append_columns` for coerced row tuples, packed once."""
        packed = columns_from_rows(self.schema, rows)
        return self.append_columns(list(packed.values()), epoch, row_ids)

    def mark_deleted(self, row_ids: Sequence[int], epoch: int) -> int:
        """Broadcast the delete; each shard stamps only the ids it owns."""
        self._pool.require_write(self)
        return sum(part.mark_deleted(row_ids, epoch) for part in self.parts)

    def truncate(self, epoch: int) -> int:
        self._pool.require_write(self)
        return sum(part.truncate(epoch) for part in self.parts)

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
        matches in single-instance order; the executor re-applies the full
        predicate — same bytes out at every shard count.
        """
        pool = self._pool
        wanted = (
            list(columns)
            if columns is not None
            else list(self.schema.column_names)
        )
        scan_ids = pool.shards_for_ranges(self, ranges)
        gathered: list[tuple[np.ndarray, dict[str, VColumn]]] = []
        skipped = 0
        total = 0
        critical = 0.0
        for shard_id in scan_ids:
            pool.require_shard(shard_id, table=self)
            part = self.parts[shard_id]
            part.zone_maps_enabled = self.zone_maps_enabled
            ids, cols = part.read_visible(epoch, columns=wanted, ranges=ranges)
            skipped += part.last_scan_chunks_skipped
            total += part.last_scan_chunks_total
            shard = pool.shard(shard_id)
            busy = part.row_count / (SCAN_ROWS_PER_SECOND * pool.slice_count)
            shard.scans += 1
            shard.rows_scanned += len(ids)
            shard.simulated_busy_seconds += busy
            critical = max(critical, busy)
            if len(ids):
                # Modeled result shipping over the shard's own link.
                shard.interconnect.send_to_db2(8 * len(ids) * max(1, len(wanted)))
                gathered.append((ids, cols))
        self.last_scan_chunks_skipped = skipped
        self.last_scan_chunks_total = total
        pool.simulated_critical_path_seconds += critical
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
            self._pool.require_shard(shard_id, table=self)
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


class AcceleratorPool(AcceleratorEngine):
    """N accelerator shards behind the ``AcceleratorEngine`` interface."""

    def __init__(
        self,
        catalog,
        shards: int = 2,
        slice_count: int = 4,
        chunk_rows: int = 65536,
        fault_injector=None,
        tracer=None,
        failure_threshold: int = 3,
        cooldown_seconds: float = 0.1,
        bandwidth_bytes_per_second: float = 1_000_000_000.0,
        message_latency_seconds: float = 0.0005,
    ) -> None:
        if shards < 1:
            raise ReproError("an accelerator pool needs at least one shard")
        super().__init__(
            catalog,
            slice_count=slice_count,
            chunk_rows=chunk_rows,
            fault_injector=fault_injector,
            tracer=tracer,
        )
        self.shards = shards
        self._shard_list = [
            AcceleratorShard(
                shard_id,
                health=HealthMonitor(
                    failure_threshold=failure_threshold,
                    cooldown_seconds=cooldown_seconds,
                ),
                interconnect=Interconnect(
                    bandwidth_bytes_per_second=bandwidth_bytes_per_second,
                    message_latency_seconds=message_latency_seconds,
                    tracer=tracer,
                ),
            )
            for shard_id in range(shards)
        ]
        #: Serialises shard kill/rebuild against in-flight fan-outs.
        self._topology_lock = threading.Lock()
        #: Modeled wall-clock of the scan critical path: every fan-out
        #: adds the *slowest* shard's busy time, not the sum — the
        #: quantity E20 compares across shard counts.
        self.simulated_critical_path_seconds = 0.0
        #: Shard-scans avoided by partition-key pruning / attempted.
        self.shard_scans_pruned = 0
        self.shard_scans_total = 0
        #: Called with the live-shard count after a kill or rebuild so
        #: the WLM can resize the ACCELERATOR admission gate.
        self.capacity_listener: Optional[Callable[[int], None]] = None

    # -- shard access --------------------------------------------------------

    def shard(self, shard_id: int) -> AcceleratorShard:
        if not 0 <= shard_id < self.shards:
            raise ReproError(
                f"no shard {shard_id} (pool has {self.shards} shards)"
            )
        return self._shard_list[shard_id]

    @property
    def shard_list(self) -> list[AcceleratorShard]:
        return list(self._shard_list)

    def shard_parts(self, shard_id: int) -> list[ColumnStoreTable]:
        """The shard's partition of every table, from the live facades."""
        return [facade.parts[shard_id] for facade in self._tables.values()]

    def shard_row_count(self, shard_id: int) -> int:
        """Live rows the shard holds over every table."""
        return sum(part.row_count for part in self.shard_parts(shard_id))

    @property
    def live_shards(self) -> int:
        return sum(1 for shard in self._shard_list if shard.alive)

    def require_shard(self, shard_id: int, table: Optional[ShardedTable] = None) -> None:
        """Admission check for one shard: liveness, circuit, fault site.

        Injected faults for the shard's site are re-raised as
        :class:`ShardUnavailableError` after tripping the *shard's*
        circuit — the pool-wide health monitor never hears about them.
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

    # -- placement -----------------------------------------------------------

    def _candidate_shards(
        self, table: ShardedTable, ranges: Optional[dict]
    ) -> list[int]:
        candidates = table.map.spec.prune(ranges, self.shards, table.schema)
        if candidates is None:
            return list(range(self.shards))
        return sorted(c for c in candidates if 0 <= c < self.shards)

    def shards_for_ranges(
        self, table: ShardedTable, ranges: Optional[dict]
    ) -> list[int]:
        kept = self._candidate_shards(table, ranges)
        self.shard_scans_total += self.shards
        self.shard_scans_pruned += self.shards - len(kept)
        return kept

    # -- storage / DDL -------------------------------------------------------

    def create_storage(self, descriptor) -> None:
        key = descriptor.name
        if key in self._tables:
            raise ReproError(f"accelerator storage for {key} already exists")
        spec = self.catalog.partition_spec(key)
        if spec is None:
            spec = default_spec(descriptor)
        self._tables[key] = self._build_facade(key, descriptor.schema, spec)

    def _build_facade(
        self,
        name: str,
        schema: TableSchema,
        spec: PartitionSpec,
        generation: int = 1,
    ) -> ShardedTable:
        parts = [
            ColumnStoreTable(schema, chunk_rows=self.chunk_rows)
            for _ in self._shard_list
        ]
        return ShardedTable(
            self,
            name,
            schema,
            parts,
            ShardMap(table=name, spec=spec, generation=generation),
        )

    # -- benchmark hook ------------------------------------------------------

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

    # -- groom / recovery ----------------------------------------------------

    def _empty_successor(
        self,
        key: str,
        table: ShardedTable,
        spec: Optional[PartitionSpec] = None,
    ) -> ShardedTable:
        """Empty facade that continues ``table``'s row ids; a new ``spec``
        places its rows anew under the next shard-map generation, and
        ``table`` keeps its own placement until the successor replaces it."""
        generation = table.map.generation
        if spec is None:
            spec = table.map.spec
        else:
            generation += 1
        fresh = self._build_facade(
            key, table.schema, spec, generation=generation
        )
        fresh._next_row_id = table._next_row_id
        return fresh

    def restore_table(
        self,
        descriptor,
        rows: Sequence[tuple],
        applied_lsn: int = 0,
        lineage_epoch: int = 0,
    ) -> int:
        key = descriptor.name
        with self._write_lock:
            self._lookup_cache.pop(key, None)
            spec = self.catalog.partition_spec(key)
            if spec is None:
                spec = default_spec(descriptor)
            facade = self._build_facade(key, descriptor.schema, spec)
            self._tables[key] = facade
            if rows:
                facade.append_rows([tuple(r) for r in rows], epoch=0)
            if applied_lsn:
                self._applied_lsn[key] = applied_lsn
            if lineage_epoch:
                self._lineage[key] = lineage_epoch
        return len(rows)

    # -- shard lifecycle -----------------------------------------------------

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
                facade.parts[shard_id] = ColumnStoreTable(
                    facade.schema, chunk_rows=self.chunk_rows
                )
                facade.lost_shards.add(shard_id)
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

    # -- redistribution ------------------------------------------------------

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
        if not isinstance(table, ShardedTable):  # pragma: no cover - safety
            raise ReproError(f"{key} is not a sharded table")
        with self._write_lock:
            self.require_write(table)
            self._groom_locked(key, table, spec=spec)
            return self._tables[key].row_count

    def range_key_values(self, name: str, column: str) -> list:
        """Non-NULL values of one column (boundary computation input)."""
        key = name.upper()
        table = self.storage_for(key)
        _, columns = table.read_visible(self.current_epoch, columns=[column])
        return [v for v in columns[column].to_objects() if v is not None]


class PoolAdmissionHealth:
    """WLM-facing health view over a sharded pool.

    The load shedder's only question is "is queueing accelerator work
    pointless right now?". For a pool the honest answer is per-shard:
    one dead shard must NOT shed statements — surviving shards keep
    serving offloaded work, and pruned scans may never touch the dead
    one — but a pool with *no* usable shard, or a globally open
    circuit, should bounce sheddable classes immediately.
    """

    def __init__(self, health: HealthMonitor, pool: AcceleratorPool) -> None:
        self.global_health = health
        self.pool = pool

    @property
    def available(self) -> bool:
        if not self.global_health.available:
            return False
        return any(
            shard.alive and shard.health.available
            for shard in self.pool.shard_list
        )
