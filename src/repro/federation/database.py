"""The federated system facade and its control plane.

:class:`AcceleratedDatabase` owns the catalog, both engines, the
interconnect, replication, the router and the procedure registry, and
manages the accelerator: ACCELERATE, reload, remove, shard rebuilds,
RUNSTATS, metric sources and procedure-output hooks. Applications
connect through :class:`~repro.federation.session.Connection`, whose
``execute()`` takes plain SQL — routing, privilege checks, AOT delta
buffering and movement accounting all happen behind that call, the
transparency the paper insists on.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import asdict
from typing import Optional, Sequence

from repro.accelerator import AcceleratorEngine
from repro.analytics.builtins import register_all
from repro.analytics.framework import ProcedureRegistry
from repro.analytics.model_store import ModelStore
from repro.catalog import Catalog, Column, TableDescriptor, TableLocation, TableSchema, User
from repro.db2 import Db2Engine
from repro.errors import DuplicateObjectError, UnknownObjectError
from repro.federation.admin import register_admin_procedures
from repro.federation.faults import FaultInjector
from repro.federation.health import HealthMonitor
from repro.federation.network import Interconnect
from repro.federation.replication import ReplicationService
from repro.federation.router import PlanCache, QueryRouter
from repro.federation.session import Connection
from repro.metrics.counters import MovementStats
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import StatementRecord
from repro.obs.profile import QueryProfiler
from repro.obs.trace import Tracer
from repro.recovery.manager import RecoveryManager
from repro.shard import AcceleratorShard, PoolAdmissionHealth
from repro.sql.stats import DEFAULT_HISTOGRAM_BINS, CostModel, StatisticsManager
from repro.wlm import WorkloadManager

__all__ = ["AcceleratedDatabase", "accelerator_shards"]


def accelerator_shards(
    count: int = 1,
    failure_threshold: int = 3,
    cooldown_seconds: float = 0.1,
) -> list[AcceleratorShard]:
    """``count`` accelerator shards for an
    :class:`~repro.accelerator.AcceleratorEngine`, each with its own
    circuit breaker."""
    return [
        AcceleratorShard(
            shard_id,
            health=HealthMonitor(
                failure_threshold=failure_threshold,
                cooldown_seconds=cooldown_seconds,
            ),
        )
        for shard_id in range(count)
    ]


class AcceleratedDatabase:
    """DB2 + accelerator behind a single connect/execute API."""

    def __init__(
        self,
        slice_count: int = 4,
        chunk_rows: int = 65536,
        auto_replicate: bool = True,
        bandwidth_bytes_per_second: float = 1e9,
        message_latency_seconds: float = 0.0005,
        replication_batch_size: int = 1000,
        fault_seed: int = 0,
        failure_threshold: int = 3,
        cooldown_seconds: float = 0.1,
        tracing_enabled: bool = True,
        trace_retention: int = 256,
        profiling_enabled: bool = True,
        profile_retention: int = 128,
        slow_query_threshold_seconds: float = 1.0,
        slow_query_capacity: int = 64,
        shards: Optional[int] = None,
        plan_cache_capacity: int = 512,
        wlm_enabled: bool = False,
        wlm_db2_slots: int = 8,
        wlm_accelerator_slots: int = 4,
        wlm_max_queue_seconds: float = 5.0,
        checkpoint_dir: Optional[str] = None,
        checkpoint_retain: int = 3,
    ) -> None:
        self.catalog = Catalog()
        self.db2 = Db2Engine(self.catalog)
        #: Statement tracer — every component below reports spans into it.
        self.tracer = Tracer(
            enabled=tracing_enabled, max_traces=trace_retention
        )
        #: Shared metrics registry (owned instruments + snapshot sources).
        self.metrics = MetricsRegistry()
        #: Per-operator execution profiler: EXPLAIN ANALYZE, the
        #: cardinality-feedback store (SYSACCEL.MON_QERROR), and the
        #: slow-query log. EXPLAIN ANALYZE forces a profile for its own
        #: statement even while disabled.
        self.profiler = QueryProfiler(
            enabled=profiling_enabled,
            retention=profile_retention,
            slow_threshold_seconds=slow_query_threshold_seconds,
            slow_capacity=slow_query_capacity,
        )
        #: Deterministic fault injector consulted by the interconnect and
        #: the accelerator engine (see repro.federation.faults).
        self.faults = FaultInjector(seed=fault_seed)
        #: Circuit breaker tracking accelerator availability.
        self.health = HealthMonitor(
            failure_threshold=failure_threshold,
            cooldown_seconds=cooldown_seconds,
        )
        #: How many accelerator shards serve this federation. One (the
        #: default, also the ``SHARDS`` environment override) is the
        #: paper's single appliance; every count runs the same engine.
        self.shards = (
            int(os.environ.get("SHARDS", "1"))
            if shards is None
            else int(shards)
        )
        self.accelerator = AcceleratorEngine(
            self.catalog,
            accelerator_shards(
                self.shards,
                failure_threshold=failure_threshold,
                cooldown_seconds=cooldown_seconds,
            ),
            slice_count=slice_count,
            chunk_rows=chunk_rows,
            fault_injector=self.faults,
            tracer=self.tracer,
        )
        # GROOM reclaims only what no open transaction's snapshot sees.
        self.accelerator.oldest_snapshot = (
            self.db2.txn_manager.oldest_snapshot_epoch
        )
        self.interconnect = Interconnect(
            bandwidth_bytes_per_second=bandwidth_bytes_per_second,
            message_latency_seconds=message_latency_seconds,
            fault_injector=self.faults,
            tracer=self.tracer,
        )
        self.replication = ReplicationService(
            self.db2.change_log,
            self.accelerator,
            self.interconnect,
            self.catalog,
            batch_size=replication_batch_size,
            health=self.health,
            tracer=self.tracer,
            metrics=self.metrics,
            faults=self.faults,
        )
        # The replication cursor is itself a retention guard: a trim may
        # never drop records the single log reader has not consumed.
        # (The recovery manager registers a second guard for the oldest
        # retained checkpoint's watermark.)
        self.db2.change_log.add_retention_guard(
            lambda: self.replication.cursor_lsn
        )
        self.router = QueryRouter(self.catalog, health=self.health)
        #: Statement-plan cache: parsed/prepared queries and DML keyed by
        #: statement shape, invalidated by catalog generation bumps.
        self.plan_cache = PlanCache(capacity=plan_cache_capacity)
        #: Workload manager: service classes, per-engine admission gates,
        #: statement budgets, load shedding. Ships disabled (zero-cost
        #: fast path); SYSPROC.ACCEL_SET_WLM enables it at runtime.
        # Load shedding consults per-shard circuits: one failed shard
        # must not shed statements that the surviving shards can serve,
        # but an accelerator with no usable shard sheds like an offline
        # appliance.
        self.wlm = WorkloadManager(
            enabled=wlm_enabled,
            health=PoolAdmissionHealth(self.health, self.accelerator),
            db2_slots=wlm_db2_slots,
            accelerator_slots=wlm_accelerator_slots,
            max_queue_seconds=wlm_max_queue_seconds,
        )
        # Losing a shard shrinks the accelerator's concurrency; the WLM's
        # ACCELERATOR admission gate tracks the live capacity.
        base_slots = max(1, wlm_accelerator_slots)

        def _shard_capacity(live: int) -> None:
            self.wlm.resize_gate(
                "ACCELERATOR", max(1, (base_slots * live) // self.shards)
            )

        self.accelerator.capacity_listener = _shard_capacity
        #: Durable checkpointing + restart resync (DB2-side machinery: it
        #: survives an accelerator crash and drives the rebuild). With no
        #: ``checkpoint_dir`` the checkpoints live in memory — same frame
        #: format, no files.
        self.recovery = RecoveryManager(
            self,
            checkpoint_dir=checkpoint_dir,
            retain=checkpoint_retain,
        )
        #: Per-table/per-column optimizer statistics: seeded from zone
        #: maps at accelerate time, upgraded by RUNSTATS full scans,
        #: maintained incrementally from the replication change feed.
        self.stats = StatisticsManager(row_probe=self._live_row_count)
        #: Cost model shared by engine routing and WLM weighting.
        self.cost_model = CostModel()
        # Statistics maintenance hooks. Direct accelerator writes (AOT
        # DML, procedure output) mark the table's statistics dirty; the
        # write listener chains behind the recovery manager's lineage
        # journal, which claimed the slot above. Replicated change
        # batches fold into the statistics incrementally.
        recovery_listener = self.accelerator.write_listener

        def _stats_write_listener(table: str, epoch: int) -> None:
            if recovery_listener is not None:
                recovery_listener(table, epoch)
            self.stats.note_write(table)

        self.accelerator.write_listener = _stats_write_listener
        self.replication.change_listener = self.stats.apply_changes
        #: Queries transparently re-executed on DB2 (ENABLE WITH FAILBACK).
        self.failbacks = 0
        self.procedures = ProcedureRegistry()
        self.models = ModelStore()
        self.auto_replicate = auto_replicate
        #: Ring buffer of recently executed statements (monitoring).
        self.statement_history: deque[StatementRecord] = deque(maxlen=1000)
        self._register_metric_sources()
        # Prefetched so the per-statement path avoids registry lookups.
        self._latency_hist = self.metrics.histogram(
            "statement.latency_seconds"
        )
        self._rows_hist = self.metrics.histogram("statement.rows")
        register_all(self.procedures)
        register_admin_procedures(self.procedures)

    def _register_metric_sources(self) -> None:
        """Expose the pre-existing stats structures through the registry.

        The dataclasses stay the system of record; ``collect()`` merely
        snapshots them under ``interconnect.*`` / ``replication.*`` /
        ``health.*`` / ``accelerator.*`` prefixes.
        """
        self.metrics.register_source(
            "interconnect", lambda: asdict(self.interconnect.snapshot())
        )
        self.metrics.register_source(
            "replication", lambda: asdict(self.replication.stats())
        )
        self.metrics.register_source("health", self._health_metrics)
        self.metrics.register_source("accelerator", self._accelerator_metrics)
        self.metrics.register_source(
            "plan_cache", lambda: self.plan_cache.snapshot()
        )
        self.metrics.register_source("wlm", lambda: self.wlm.snapshot())
        self.metrics.register_source(
            "profiler", lambda: self.profiler.snapshot()
        )
        self.metrics.register_source(
            "recovery", lambda: self.recovery.status()
        )
        self.metrics.register_source("stats", lambda: self.stats.snapshot())

    def _health_metrics(self) -> dict:
        health = self.health
        return {
            "state": health.state.value,
            "consecutive_failures": health.consecutive_failures,
            "failures_total": health.failures_total,
            "successes_total": health.successes_total,
            "times_opened": health.times_opened,
            "times_closed": health.times_closed,
            "probes_attempted": health.probes_attempted,
            "requests_rejected": health.requests_rejected,
        }

    def _accelerator_metrics(self) -> dict:
        accelerator = self.accelerator
        return {
            "queries_executed": accelerator.queries_executed,
            "rows_scanned": accelerator.rows_scanned,
            "chunks_skipped": accelerator.chunks_skipped,
            "simulated_busy_seconds": accelerator.simulated_busy_seconds,
            "current_epoch": accelerator.current_epoch,
            "shards": accelerator.shards,
            "live_shards": accelerator.live_shards,
            "critical_path_seconds": (
                accelerator.simulated_critical_path_seconds
            ),
            "shard_scans_pruned": accelerator.shard_scans_pruned,
            "shard_scans_total": accelerator.shard_scans_total,
        }

    @property
    def accelerator_pool(self) -> Optional[AcceleratorEngine]:
        """The accelerator when it fans out over several shards, else
        None. Only the standing benchmark's layer recorder reads this
        name: it wraps shard spans when it gets an engine, and its
        one-shard workloads record no fan-out."""
        return None if self.shards == 1 else self.accelerator

    # -- sessions -----------------------------------------------------------------

    def _live_row_count(self, name: str) -> Optional[int]:
        """Current row count of a base table, or None when unknown.

        The one cardinality probe: the statistics manager rescales stale
        histograms against it, and the optimizer, cost model, profiler
        and WLM take base cardinalities from it. DB2 storage answers
        first — it is the system of record and an accelerated copy is
        never ahead of it; only AOTs are answered by the accelerator.
        """
        key = name.upper()
        if self.db2.has_storage(key):
            return self.db2.storage_for(key).row_count
        if self.accelerator.has_storage(key):
            return self.accelerator.storage_for(key).row_count
        return None

    def _table_columns(self, name: str) -> Optional[list[str]]:
        """Column names of a catalogued base table, or None when unknown:
        what lets the planner resolve unqualified column references."""
        catalog = self.catalog
        if not catalog.has_table(name):
            return None
        return catalog.table(name).schema.column_names

    def run_statistics(
        self,
        tables: Optional[Sequence[str]] = None,
        bins: int = DEFAULT_HISTOGRAM_BINS,
    ) -> list[str]:
        """RUNSTATS analogue: full-scan statistics collection.

        Scans each named table (default: every catalogued base table
        with storage) and records row counts, per-column NDVs, null
        counts, min/max, and equi-width histograms. Returns the tables
        collected, in collection order.
        """
        if tables:
            descriptors = [self.catalog.table(name) for name in tables]
        else:
            descriptors = self.catalog.tables()
        collected: list[str] = []
        for descriptor in descriptors:
            name = descriptor.name
            if self.accelerator.has_storage(name):
                rows = self.accelerator.snapshot_rows(name)
            elif self.db2.has_storage(name):
                rows = [row for _, row in self.db2.storage_for(name).scan()]
            else:
                continue
            self.stats.collect_from_rows(
                name,
                descriptor.schema.column_names,
                rows,
                generation=self.catalog.generation,
                bins=bins,
            )
            collected.append(name)
        return collected

    def create_table(
        self, name: str, schema: TableSchema, owner: str,
        in_accelerator: bool = False, distribute_on: Optional[list[str]] = None,
    ) -> TableDescriptor:
        """Catalog a table and create its storage: in DB2, or for an AOT
        on the accelerator only — the DB2 catalog keeps its nickname, the
        data lives on the accelerator (paper Sec. 2, Fig. 1)."""
        location = TableLocation.ACCELERATOR_ONLY if in_accelerator else TableLocation.DB2_ONLY
        descriptor = self.catalog.create_table(
            name, schema, location=location, distribute_on=distribute_on, owner=owner
        )
        (self.accelerator if in_accelerator else self.db2).create_storage(descriptor)
        return descriptor

    def connect(self, user: str = "SYSADM") -> Connection:
        return Connection(self, self.catalog.user(user))

    def create_user(self, name: str, is_admin: bool = False) -> User:
        return self.catalog.create_user(name, is_admin=is_admin)

    # -- acceleration management (ACCEL_ADD_TABLES analogue) -------------------------

    def add_table_to_accelerator(self, name: str) -> int:
        """Copy a DB2 table to the accelerator and start replication.

        Returns the number of rows in the initial copy. The full copy is
        charged to the interconnect — this is the bulk-load price the
        legacy flow pays again for every re-replicated stage table.
        """
        descriptor = self.catalog.table(name)
        if descriptor.location is not TableLocation.DB2_ONLY:
            raise DuplicateObjectError(
                f"table {descriptor.name} is already on the accelerator"
            )
        start_lsn = self.db2.change_log.head_lsn
        # set_location (not a bare attribute write) so cached plans
        # compiled against the old placement are invalidated.
        self.catalog.set_location(descriptor.name, TableLocation.ACCELERATED)
        self.accelerator.create_storage(descriptor)
        # Crash point: the placement moved and storage exists, but the
        # initial copy has not landed and replication is not registered —
        # recovery must finish the DDL's intent with a full reload.
        self.faults.crash_point("ddl.mid_accelerate")
        return self._copy_snapshot(descriptor.name, start_lsn)

    def _copy_snapshot(self, name: str, start_lsn: int) -> int:
        """Full DB2 → accelerator copy of one table into its (empty)
        accelerator storage, charged to the interconnect; replication
        then resumes from ``start_lsn``. Returns the rows copied."""
        storage = self.db2.storage_for(name)
        rows = [row for _, row in storage.scan()]
        self.interconnect.send_to_accelerator(storage.byte_count)
        if rows:
            self.accelerator.bulk_insert(name, rows)
        self.replication.register_table(name, start_lsn)
        # Seed optimizer statistics from the freshly built zone maps —
        # row count + per-column min/max for free; RUNSTATS upgrades
        # them to NDVs and histograms on demand.
        self.stats.seed_from_column_store(
            name,
            self.accelerator.storage_for(name),
            generation=self.catalog.generation,
        )
        return len(rows)

    def _accelerated_copy(self, name: str) -> TableDescriptor:
        descriptor = self.catalog.table(name)
        if descriptor.location is not TableLocation.ACCELERATED:
            raise UnknownObjectError(f"table {descriptor.name} is not an accelerated copy")
        return descriptor

    def reload_accelerated_table(self, name: str) -> int:
        """Re-snapshot an accelerated copy (ACCEL_LOAD_TABLES semantics).

        Drops the copy, takes a fresh full copy, and restarts replication
        from the current log head. Returns the copied row count.
        """
        descriptor = self._accelerated_copy(name)
        self.accelerator.drop_storage(descriptor.name)
        self.accelerator.create_storage(descriptor)
        return self._copy_snapshot(
            descriptor.name, self.db2.change_log.head_lsn
        )

    def remove_table_from_accelerator(self, name: str) -> None:
        descriptor = self._accelerated_copy(name)
        self.catalog.set_location(descriptor.name, TableLocation.DB2_ONLY)
        self.accelerator.drop_storage(descriptor.name)
        self.replication.unregister_table(descriptor.name)
        # The zone-map-seeded statistics described the accelerated copy;
        # DDL invalidates them (a later RUNSTATS re-collects DB2-side).
        self.stats.invalidate(descriptor.name)

    def rebuild_shard(self, shard_id: int) -> int:
        """Bring a killed accelerator shard back and reload what it lost.

        Revives the shard (fresh circuit, empty partitions) and
        re-snapshots every ACCELERATED copy that lost data on it — DB2
        is the system of record, so the reload is just
        :meth:`reload_accelerated_table` per affected table. Returns
        the number of tables reloaded. AOT partitions have no DB2 copy;
        a lost AOT needs ``SYSPROC.ACCEL_RECOVER`` (checkpoint restore)
        instead and keeps failing fast until then.
        """
        accelerator = self.accelerator
        accelerator.revive_shard(shard_id)
        reloaded = 0
        for descriptor in self.catalog.tables():
            if descriptor.location is not TableLocation.ACCELERATED:
                continue
            if not accelerator.has_storage(descriptor.name):
                continue
            storage = accelerator.storage_for(descriptor.name)
            if shard_id in storage.lost_shards:
                self.reload_accelerated_table(descriptor.name)
                reloaded += 1
        return reloaded

    # -- movement metrics ---------------------------------------------------------------

    def movement_snapshot(self) -> MovementStats:
        return self.interconnect.snapshot()

    def movement_since(self, snapshot: MovementStats) -> MovementStats:
        # Clamped: a snapshot taken before an ``interconnect.reset()``
        # must not yield negative movement deltas.
        return self.interconnect.since(snapshot).clamped()

    # -- procedure output hooks (used by ProcedureContext) --------------------------------

    def create_procedure_output_table(
        self,
        connection: Connection,
        name: str,
        columns: Sequence[tuple[str, object]],
    ) -> None:
        """Create an AOT for procedure output, owned by the caller."""
        schema = TableSchema(
            [Column(col_name, sql_type) for col_name, sql_type in columns]
        )
        self.create_table(name, schema, connection.user.name, in_accelerator=True)

    def insert_procedure_rows(
        self,
        connection: Connection,
        name: str,
        rows: Sequence,
    ) -> int:
        """Procedure output — row tuples or aligned columns — lands on
        the accelerator without crossing the interconnect (the algorithm
        already runs there)."""
        key = name.upper()
        return self.accelerator.insert_into(
            key, rows, delta=connection.delta_for(key)
        )

