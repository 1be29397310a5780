"""The federated system facade: one SQL interface over both engines.

:class:`AcceleratedDatabase` owns the shared catalog, the DB2 engine, the
accelerator engine, the interconnect model, the replication service, the
query router, and the analytics procedure registry. Applications interact
through :class:`Connection` objects whose ``execute()`` accepts plain SQL
— routing, privilege checks, AOT delta buffering, and movement accounting
all happen behind that call, which is the transparency the paper insists
on ("completely transparent for user applications").
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from repro.accelerator import AcceleratorEngine, DeltaBuffer
from repro.catalog import (
    Catalog,
    Column,
    Privilege,
    TableDescriptor,
    TableLocation,
    TableSchema,
    User,
)
from repro.catalog.schema import pack_rows
from repro.analytics.framework import ProcedureRegistry
from repro.analytics.model_store import ModelStore
from repro.db2 import Db2Engine
from repro.db2.transaction import Transaction
from repro.errors import (
    AcceleratorCrashError,
    AcceleratorUnavailableError,
    AnalyticsError,
    AuthorizationError,
    DuplicateObjectError,
    LinkError,
    ReproError,
    ShardUnavailableError,
    SqlError,
    StatementCancelledError,
    StatementTimeoutError,
    TransactionStateError,
    UnknownObjectError,
)
from repro.federation.faults import FaultInjector
from repro.federation.health import HealthMonitor
from repro.federation.network import Interconnect
from repro.federation.replication import ReplicationService
from repro.federation.router import (
    AccelerationMode,
    CachedPlan,
    PlanCache,
    QueryRouter,
    RoutingDecision,
    StatementShape,
    lift_changes_meaning,
)
from repro.federation.views import expand_views
from repro.metrics.counters import MovementStats, SizedRows, estimate_rows_bytes
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import execute_monitoring_query, monitoring_tables
from repro.recovery.manager import RecoveryManager
from repro.obs.profile import QueryProfiler, estimate_plan, plan_tree_lines
from repro.obs.trace import Tracer
from repro.result import Result
from repro.shard import (
    AcceleratorShard,
    PartitionSpec,
    PoolAdmissionHealth,
    range_boundaries,
)
from repro.sql import ast, parse_statement
from repro.sql.logical import plan_statement
from repro.sql.stats import (
    DEFAULT_HISTOGRAM_BINS,
    CostModel,
    StatisticsManager,
)
from repro.wlm import AdmissionTicket, WorkBudget, WorkloadManager, active_budget

__all__ = ["AcceleratedDatabase", "Connection", "accelerator_shards"]

#: Fixed per-statement protocol overhead on the interconnect (bytes).
STATEMENT_OVERHEAD_BYTES = 256


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


def _render_plan_value(value) -> str:
    if isinstance(value, dict):
        return "; ".join(f"{k}={v}" for k, v in sorted(value.items()))
    return str(value)


def _collect_predict_nodes(stmt) -> list[ast.Predict]:
    """Every PREDICT node in a select, including subqueries and unions."""
    out: list[ast.Predict] = []
    _walk_predict_statement(stmt, out)
    return out


def _walk_predict_statement(stmt, out: list) -> None:
    if isinstance(stmt, ast.SetOperation):
        _walk_predict_statement(stmt.left, out)
        _walk_predict_statement(stmt.right, out)
        return
    for expr in stmt.iter_expressions():
        for node in expr.walk():
            if isinstance(node, ast.Predict):
                out.append(node)
            elif isinstance(node, ast.SubqueryExpression):
                _walk_predict_statement(node.query, out)
    _walk_predict_from(stmt.from_item, out)


def _walk_predict_from(item, out: list) -> None:
    if isinstance(item, ast.SubquerySource):
        _walk_predict_statement(item.query, out)
    elif isinstance(item, ast.Join):
        _walk_predict_from(item.left, out)
        _walk_predict_from(item.right, out)


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
        self._register_builtin_procedures()

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

    def _register_builtin_procedures(self) -> None:
        # Imported lazily to avoid a package cycle at import time.
        from repro.analytics.builtins import register_all
        from repro.federation.admin import register_admin_procedures

        register_all(self.procedures)
        register_admin_procedures(self.procedures)

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

    def connect(self, user: str = "SYSADM") -> "Connection":
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

    def reload_accelerated_table(self, name: str) -> int:
        """Re-snapshot an accelerated copy (ACCEL_LOAD_TABLES semantics).

        Drops the copy, takes a fresh full copy, and restarts replication
        from the current log head. Returns the copied row count.
        """
        descriptor = self.catalog.table(name)
        if descriptor.location is not TableLocation.ACCELERATED:
            raise UnknownObjectError(
                f"table {descriptor.name} is not an accelerated copy"
            )
        self.accelerator.drop_storage(descriptor.name)
        self.accelerator.create_storage(descriptor)
        return self._copy_snapshot(
            descriptor.name, self.db2.change_log.head_lsn
        )

    def remove_table_from_accelerator(self, name: str) -> None:
        descriptor = self.catalog.table(name)
        if descriptor.location is not TableLocation.ACCELERATED:
            raise UnknownObjectError(
                f"table {descriptor.name} is not an accelerated copy"
            )
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
        connection: "Connection",
        name: str,
        columns: Sequence[tuple[str, object]],
    ) -> None:
        """Create an AOT for procedure output, owned by the caller."""
        schema = TableSchema(
            [Column(col_name, sql_type) for col_name, sql_type in columns]
        )
        descriptor = self.catalog.create_table(
            name,
            schema,
            location=TableLocation.ACCELERATOR_ONLY,
            owner=connection.user.name,
        )
        self.accelerator.create_storage(descriptor)

    def insert_procedure_rows(
        self,
        connection: "Connection",
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


_QUERY_TYPES = (ast.SelectStatement, ast.SetOperation)
_TXN_CONTROL = (ast.BeginStatement, ast.CommitStatement, ast.RollbackStatement)


def _unkeyed_plan(stmt: ast.Statement) -> Optional[CachedPlan]:
    """The plan of a query the plan cache does not hold (None for any
    other statement): never stored or looked up."""
    return CachedPlan(stmt) if isinstance(stmt, _QUERY_TYPES) else None


#: DML statement class → (privilege needed on the target, name of the
#: engine method that applies it; INSERT lands rows via ``_land_rows``).
_DML = {
    ast.InsertStatement: (Privilege.INSERT, None),
    ast.UpdateStatement: (Privilege.UPDATE, "update_where"),
    ast.DeleteStatement: (Privilege.DELETE, "delete_where"),
}


@dataclass
class _StatementRun:
    """What one statement's stages hand each other; nothing in it
    outlives :meth:`Connection._execute_statement`."""

    txn: Transaction
    #: The caller's parameters with the statement's lifted literals.
    params: Sequence[object]
    #: The WLM tier the statement is admitted under.
    service_class: str
    #: The statement's own plan — its shape's cached plan (query or
    #: DML), an unkeyed plan for a query AST, or the EXPLAIN ANALYZE
    #: target's; None otherwise.
    plan: Optional[CachedPlan]
    #: The text's shape; its ``text`` is the binding the top-level
    #: query's cardinality feedback is keyed by (None for an AST).
    shape: Optional[StatementShape] = None
    #: EXPLAIN ANALYZE profiles its statement even while the system
    #: profiler is disabled.
    force_profile: bool = False
    #: At most one admission ticket per statement (see ``_admit``).
    ticket: Optional[AdmissionTicket] = None
    #: Profiles of the engine executions so far (two when a
    #: mid-statement failure re-executed the plan on DB2).
    profiles: list = field(default_factory=list)


class Connection:
    """One session: user identity, transaction state, special registers."""

    def __init__(self, system: AcceleratedDatabase, user: User) -> None:
        self._system = system
        self.user = user
        self._txn: Optional[Transaction] = None
        self._explicit = False
        self.acceleration = AccelerationMode.ENABLE
        self.last_decision: Optional[str] = None
        #: CURRENT SERVICE CLASS — which WLM tier this session's
        #: statements are admitted under.
        self.service_class = "SYSDEFAULT"
        #: CURRENT STATEMENT TIMEOUT in seconds (None = the service
        #: class default, which may itself be unbounded).
        self.statement_timeout: Optional[float] = None
        #: The in-flight statement's budget — on the session only because
        #: :meth:`cancel` reads it, possibly from another thread. Every
        #: other per-statement value travels in a :class:`_StatementRun`.
        self._budget: Optional[WorkBudget] = None

    @property
    def system(self) -> AcceleratedDatabase:
        """The federation this connection belongs to."""
        return self._system

    # -- special registers --------------------------------------------------------

    def set_acceleration(self, mode: str) -> None:
        """Set CURRENT QUERY ACCELERATION (NONE / ENABLE / ALL)."""
        self.acceleration = AccelerationMode.from_name(mode)

    def set_service_class(self, name: str) -> None:
        """Set CURRENT SERVICE CLASS (validated against the registry)."""
        self.service_class = self._system.wlm.classes.get(name).name

    def set_statement_timeout(self, value: Union[str, float, None]) -> None:
        """Set CURRENT STATEMENT TIMEOUT (seconds; NONE/0 clears it)."""
        if value is None or (
            isinstance(value, str) and value.upper() in ("NONE", "NULL")
        ):
            self.statement_timeout = None
            return
        seconds = float(value)
        self.statement_timeout = seconds if seconds > 0 else None

    def cancel(self, reason: str = "cancelled by application") -> bool:
        """Cooperatively cancel the in-flight statement (thread-safe).

        Returns whether a cancellable statement was in flight. The
        statement notices at its next budget checkpoint (queue wakeup,
        chunk/row-batch boundary, lock wait) and aborts with
        :class:`~repro.errors.StatementCancelledError`, rolling back as
        any other statement failure would.
        """
        budget = self._budget
        if budget is None:
            return False
        budget.cancel(reason)
        return True

    # -- transaction control ---------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._explicit and self._txn is not None

    def begin(self) -> None:
        if self._explicit:
            raise TransactionStateError("transaction already open")
        self._txn = self._system.db2.txn_manager.begin()
        self._explicit = True

    def commit(self) -> None:
        if not self.in_transaction:
            raise TransactionStateError("no open transaction")
        txn = self._txn
        # Apply AOT deltas on the accelerator, then commit the DB2 side
        # (which publishes captured change records for replication).
        for delta in txn.aot_deltas.values():
            if not delta.is_empty:
                self._system.interconnect.send_to_accelerator(
                    STATEMENT_OVERHEAD_BYTES
                )
            self._system.accelerator.apply_delta(delta)
        self._system.db2.commit(txn)
        self._txn = None
        self._explicit = False
        # Crash point: DB2 committed (changelog published) but the client
        # was not acked and the commit-time drain has not run — DB2 is
        # ahead of the accelerator by exactly this transaction.
        self._system.faults.crash_point("commit.post_commit_pre_ack")
        replication = self._system.replication
        if self._system.auto_replicate and replication.backlog > 0:
            replication.drain()

    def rollback(self) -> None:
        if not self.in_transaction:
            raise TransactionStateError("no open transaction")
        self._system.db2.rollback(self._txn)  # deltas are simply dropped
        self._txn = None
        self._explicit = False

    def close(self) -> None:
        if self.in_transaction:
            self.rollback()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- context used by the analytics framework -----------------------------------------

    def active_deltas(self) -> dict[str, DeltaBuffer]:
        return self._txn.aot_deltas if self.in_transaction else {}

    def delta_for(self, table: str) -> Optional[DeltaBuffer]:
        """Where a write to AOT ``table`` goes: the open transaction's
        delta buffer (created on first use), or None in autocommit,
        where it applies to the table directly."""
        if not self.in_transaction:
            return None
        return self._txn.aot_deltas.setdefault(
            table.upper(), DeltaBuffer(table.upper())
        )

    def snapshot_epoch_for_statement(self) -> int:
        """Pin (and return) the transaction's accelerator snapshot epoch."""
        if self.in_transaction:
            if self._txn.snapshot_epoch is None:
                self._txn.snapshot_epoch = self._system.accelerator.current_epoch
            return self._txn.snapshot_epoch
        return self._system.accelerator.current_epoch

    # -- the statement path: parse → bind → authorize → route → admit → execute → record --------
    #
    # ``_execute_statement`` owns parse, record and the transaction scope;
    # the handler ``_STATEMENT_KINDS`` names runs the stages in between
    # (docs/architecture.md, "Life of a query" / "Life of a write").

    def execute(
        self,
        sql: Union[str, ast.Statement],
        params: Sequence[object] = (),
        service_class: Optional[str] = None,
        timeout_seconds: Optional[float] = None,
    ) -> Result:
        """Execute one statement.

        ``service_class`` / ``timeout_seconds`` are per-statement
        attribute overrides of the session's CURRENT SERVICE CLASS and
        CURRENT STATEMENT TIMEOUT registers.
        """
        wlm = self._system.wlm
        statement_class = (
            service_class.upper() if service_class else self.service_class
        )
        override = (
            timeout_seconds
            if timeout_seconds is not None
            else self.statement_timeout
        )
        # Disabled WLM with no timeout set: budget stays None and the
        # statement path pays nothing beyond these two checks.
        budget = (
            wlm.budget_for(statement_class, override)
            if (wlm.enabled or override is not None)
            else None
        )
        self._budget = budget
        try:
            with active_budget(budget):
                return self._execute_statement(sql, params, statement_class)
        except (StatementTimeoutError, StatementCancelledError) as exc:
            wlm.record_outcome(exc)
            raise
        finally:
            self._budget = None

    def _execute_statement(
        self,
        sql: Union[str, ast.Statement],
        params: Sequence[object],
        service_class: str,
    ) -> Result:
        system = self._system
        with self._span("statement", user=self.user.name) as span:
            stmt, plan, shape = self._resolve_statement(sql)
            handler, label = self._statement_kind(stmt)
            span.annotate(statement=label)
            if isinstance(stmt, _TXN_CONTROL):
                # The session's own transaction verbs: no statement
                # transaction, savepoint or history record around them.
                span.annotate(engine="DB2")
                handler(self, stmt, None)
                return Result(message=label.upper(), engine="DB2")

            if shape is not None:
                params = shape.params(params)
            autocommit = not self._explicit
            if autocommit:
                self._txn = system.db2.txn_manager.begin()
            txn = self._txn
            assert txn is not None
            savepoint = self._statement_savepoint(txn)
            run = _StatementRun(txn, params, service_class, plan, shape)
            self.last_decision = None
            started = time.perf_counter()
            try:
                try:
                    result = handler(self, stmt, run)
                except Exception:
                    if autocommit:
                        system.db2.rollback(txn)
                        self._txn = None
                    else:
                        self._restore_savepoint(txn, savepoint)
                    raise
                finally:
                    if self._txn is not None:
                        system.db2.txn_manager.end_statement(self._txn)
                if autocommit:
                    self._explicit = True  # reuse commit() for the implicit txn
                    try:
                        with self._span("commit"):
                            self.commit()
                    finally:
                        self._explicit = False
            finally:
                # The admission ticket covers the whole statement including
                # its commit; releasing in a finally (and release() being
                # idempotent) means no path — timeout, cancel, fault,
                # rollback — can leak a slot.
                if run.ticket is not None:
                    system.wlm.release(run.ticket)
            elapsed = time.perf_counter() - started
            span.annotate(engine=result.engine, rows=result.rowcount)
            # Record stage: statement history + latency/row histograms.
            system.statement_history.append(
                StatementRecord(
                    user=self.user.name,
                    statement_type=label,
                    engine=result.engine,
                    elapsed_seconds=elapsed,
                    rowcount=result.rowcount,
                    reason=self.last_decision or "",
                    trace_id=span.trace_id or "",
                )
            )
            system._latency_hist.observe(elapsed)
            system._rows_hist.observe(result.rowcount)
            system.metrics.counter(
                f"statement.engine.{result.engine.lower()}"
            ).inc()
            return result

    def _resolve_statement(
        self, sql: Union[str, ast.Statement]
    ) -> tuple[ast.Statement, Optional[CachedPlan], Optional[StatementShape]]:
        """Parse stage: the statement, its plan when it is a query or
        DML, and the shape of its text.

        Text goes through the statement-plan cache, keyed by shape: a
        hit returns the cached statement without lexing, parsing,
        binding or planning it, and its lifted literals bind as
        parameters. A miss parses the shape once and stores its plan.
        Other statements (DDL, CALL, SET, GRANT, EXPLAIN, transaction
        verbs, long ``INSERT … VALUES`` batches) are parsed every time
        and carry no plan. A pre-parsed query bypasses the cache
        entirely and gets an unkeyed plan.
        """
        with self._span("parse") as span:
            if not isinstance(sql, str):
                return sql, _unkeyed_plan(sql), None
            generation = self._system.catalog.generation
            miss: list = []
            found = self._system.plan_cache.lookup(sql, generation, miss)
            if found is None:
                return self._parse_and_store(sql, miss[0], generation)
            plan, shape = found
            if plan.executions:
                span.annotate(plan_cache="hit")
            return plan.statement, plan, shape

    def _parse_and_store(
        self, sql: str, shape: Optional[StatementShape], generation: int
    ) -> tuple[ast.Statement, Optional[CachedPlan], Optional[StatementShape]]:
        """A plan-cache miss: parse ``sql`` — its shape, when literals
        were lifted — and store the plan under the shape's key. A shape
        whose markers would change its meaning is refused: its texts
        are keyed with their literals, and one with the caller's own
        ``?`` there runs unkeyed."""
        if shape is None:  # never cached
            stmt = parse_statement(sql)
            return stmt, _unkeyed_plan(stmt), None
        cache = self._system.plan_cache
        try:
            stmt = parse_statement(shape.key if shape.lifted else sql)
        except ReproError:
            if not shape.lifted:
                raise
            stmt = None  # e.g. a lifted VARCHAR(16) length
        if stmt is None or (shape.values and lift_changes_meaning(stmt)):
            cache.refuse(shape.key)
            if not shape.lifted:
                return stmt, _unkeyed_plan(stmt), None
            shape = shape.unlifted()
            stmt = parse_statement(sql)
        return stmt, cache.store(shape.key, stmt, generation), shape

    def _statement_kind(self, stmt: ast.Statement):
        """(handler, label) of a statement from the dispatch table."""
        try:
            return self._STATEMENT_KINDS[type(stmt)]
        except KeyError:
            raise SqlError(
                f"unsupported statement {type(stmt).__name__}"
            ) from None

    def _span(self, name: str, **attributes):
        """A span under the system tracer (the shared no-op when off)."""
        return self._system.tracer.span(name, **attributes)

    def execute_script(self, sql: str) -> list[Result]:
        """Execute a semicolon-separated script; returns all results."""
        from repro.sql import parse_script

        return [self.execute(stmt) for stmt in parse_script(sql)]

    def query(self, sql: str, params: Sequence[object] = ()) -> list[tuple]:
        """Convenience: execute and return rows."""
        return self.execute(sql, params).rows

    # -- statement-level atomicity inside explicit transactions -----------------------------

    @staticmethod
    def _statement_savepoint(txn: Transaction):
        deltas = {
            table: (len(delta.inserted), set(delta.deleted_base_ids))
            for table, delta in txn.aot_deltas.items()
        }
        return (len(txn.undo_log), len(txn.pending_changes), deltas)

    @staticmethod
    def _restore_savepoint(txn: Transaction, savepoint) -> None:
        undo_length, changes_length, deltas = savepoint
        while len(txn.undo_log) > undo_length:
            txn.undo_log.pop()()
        del txn.pending_changes[changes_length:]
        for table, delta in list(txn.aot_deltas.items()):
            saved = deltas.get(table)
            if saved is None:
                del txn.aot_deltas[table]
                continue
            inserted_length, deleted_ids = saved
            del delta.inserted[inserted_length:]
            delta.deleted_base_ids = deleted_ids

    # -- session control and EXPLAIN ------------------------------------------------------------

    def _execute_set(self, stmt: ast.SetStatement, run) -> Result:
        register = stmt.register.upper()
        if register == "CURRENT QUERY ACCELERATION":
            self.set_acceleration(stmt.value)
            value = self.acceleration.value
        elif register == "CURRENT SERVICE CLASS":
            self.set_service_class(stmt.value)
            value = self.service_class
        elif register == "CURRENT STATEMENT TIMEOUT":
            try:
                self.set_statement_timeout(stmt.value)
            except ValueError:
                raise SqlError(
                    f"invalid CURRENT STATEMENT TIMEOUT value "
                    f"{stmt.value!r} (seconds or NONE)"
                ) from None
            timeout = self.statement_timeout
            value = "NONE" if timeout is None else f"{timeout:g}"
        else:
            raise SqlError(f"unknown special register {stmt.register}")
        return Result(message=f"{register} = {value}", engine="DB2")

    def _execute_call(self, stmt: ast.CallStatement, run) -> Result:
        # CALL runs on the accelerator; make it visible to repro.obs:
        # a proc.call span (linked to MON_STATEMENTS via the trace)
        # plus analytics.* counters covering every procedure call.
        system = self._system
        with self._span("proc.call", procedure=stmt.procedure.upper()) as span:
            scanned_before = system.accelerator.rows_scanned
            system.interconnect.send_to_accelerator(STATEMENT_OVERHEAD_BYTES)
            result = system.procedures.call(system, self, stmt)
            scanned = system.accelerator.rows_scanned - scanned_before
            system.metrics.counter("analytics.calls").inc()
            if scanned:
                system.metrics.counter("analytics.rows_scanned").inc(scanned)
            span.annotate(rows_scanned=scanned)
        return result

    def explain(self, sql: Union[str, ast.Statement]) -> dict:
        """Where would this statement run, and why?

        Runs the statement's own bind → authorize → route stages and
        renders their outcome — ``engine``, ``reason``, ``tables`` (and
        their placements), the estimated input rows — without executing
        the statement: it raises exactly the authorization and routing
        errors the statement would.
        """
        stmt = parse_statement(sql) if isinstance(sql, str) else sql
        __, label = self._statement_kind(stmt)
        if isinstance(stmt, _QUERY_TYPES):
            plan = self._authorized_plan(stmt)
            decision, __, estimated_rows, cost_advice = self._route(
                plan, self.acceleration
            )
            tables = dict.fromkeys(sorted(plan.monitored), "MONITORING VIEW")
            for name in sorted(plan.tables):
                tables[name] = self._system.catalog.table(name).location.value
            return {
                "statement": "QUERY",
                "engine": decision.engine,
                "reason": decision.reason,
                "acceleration": self.acceleration.value,
                "estimated_rows": estimated_rows or 0,
                "cost": (
                    None if cost_advice is None else cost_advice.describe()
                ),
                "tables": tables,
                # Rendered through the same formatter EXPLAIN ANALYZE
                # uses for its annotated OPERATOR column.
                "plan": plan_tree_lines(plan.logical),
            }
        tables = {}
        if type(stmt) in _DML:
            descriptor, decision = self._route_dml(stmt)
            tables[descriptor.name] = descriptor.location.value
        elif isinstance(stmt, ast.CallStatement):
            decision = RoutingDecision(
                "ACCELERATOR",
                "procedures execute on the accelerator after DB2 "
                "authorisation",
            )
        else:
            decision = RoutingDecision(
                "DB2", "DDL and control statements run on DB2"
            )
        # INSERT … SELECT and CTAS authorize their sub-select as well.
        nested = getattr(stmt, "select", None) or getattr(
            stmt, "as_select", None
        )
        if nested is not None:
            self._authorized_plan(nested)
        return {
            "statement": label.upper(),
            "engine": decision.engine,
            "reason": decision.reason,
            "tables": tables,
        }

    #: Columns of the EXPLAIN ANALYZE grid.
    EXPLAIN_ANALYZE_COLUMNS = [
        "OPERATOR",
        "ENGINE",
        "ACTUAL_ROWS",
        "ESTIMATED_ROWS",
        "Q_ERROR",
        "WALL_MS",
        "DETAIL",
    ]

    def _execute_explain(self, stmt: ast.ExplainStatement, run) -> Result:
        if stmt.analyze:
            return self._explain_analyze(stmt.statement, run)
        rows = []
        for key, value in self.explain(stmt.statement).items():
            if isinstance(value, (list, tuple)):
                # The rendered logical-plan tree: one row per line so
                # the indentation survives the ITEM/VALUE grid.
                rows.extend((key.upper(), str(line)) for line in value)
            else:
                rows.append((key.upper(), _render_plan_value(value)))
        return Result(columns=["ITEM", "VALUE"], rows=rows, engine="DB2")

    def _explain_analyze(self, stmt: ast.Statement, run) -> Result:
        """Execute the statement with profiling forced on and render the
        annotated plan tree: per-operator actual vs. estimated rows,
        Q-error, and wall time. A mid-statement accelerator failure under
        FAILBACK yields two sections — the failed accelerator attempt and
        the DB2 re-execution."""
        if not isinstance(stmt, _QUERY_TYPES):
            raise SqlError(
                "EXPLAIN ANALYZE supports queries only "
                f"(got {type(stmt).__name__})"
            )
        run.plan = CachedPlan(stmt)
        run.force_profile = True
        result = self._execute_query(stmt, run)
        rows: list[tuple] = []
        for profile in run.profiles:
            header = (
                f"execution [{profile.profile_id}] engine={profile.engine}"
            )
            if profile.failback:
                header += " (failback re-execution)"
            if profile.error is not None:
                header += f" error={profile.error}"
            rows.append(
                (
                    header,
                    profile.engine,
                    None,
                    None,
                    None,
                    round(profile.elapsed_seconds * 1000.0, 3),
                    profile.fingerprint[:120],
                )
            )
            for op in profile.operators:
                rows.append(
                    (
                        op.describe(),
                        op.engine,
                        op.actual_rows,
                        op.estimated_rows,
                        round(op.q_error, 4),
                        round(op.wall_seconds * 1000.0, 3),
                        op.flags(),
                    )
                )
        if not rows:
            rows.append(
                (
                    "(not profiled: monitoring views are served directly "
                    "from the observability structures)",
                    result.engine,
                    None,
                    None,
                    None,
                    None,
                    "",
                )
            )
        return Result(
            columns=list(self.EXPLAIN_ANALYZE_COLUMNS),
            rows=rows,
            engine=result.engine,
        )

    # -- authorize ------------------------------------------------------------------------------

    def _check_privilege(
        self, descriptor, privilege: Optional[Privilege], action: str = ""
    ) -> None:
        """The one owner-or-admin gate for a table or view (views share
        the TABLE privilege namespace). Anyone else needs ``privilege``
        granted — or, where no grant can stand in for ownership
        (``privilege`` None: DROP, ALTER, GRANT), is refused ``action``."""
        if self.user.is_admin or descriptor.owner == self.user.name:
            return
        if privilege is None:
            raise AuthorizationError(
                f"user {self.user.name} cannot {action}"
            )
        self._system.catalog.privileges.check(
            self.user.name, privilege, "TABLE", descriptor.name
        )

    # -- queries: bind → authorize → route → admit → execute ---------------------------------------

    def _bind(self, plan: CachedPlan) -> None:
        """Bind stage: resolve the statement's names and build its
        logical plan, once per plan.

        A prepared plan (a plan-cache hit) skips all of it; the catalog
        generation it was prepared under is what keeps that sound.
        """
        if plan.prepared:
            return
        stmt = plan.statement
        catalog = self._system.catalog
        # SYSACCEL.MON_* monitoring views are readable by every session
        # (like ACCEL_GET_HEALTH): nothing below is collected for them.
        plan.monitored = frozenset(monitoring_tables(stmt.referenced_tables()))
        if plan.monitored:
            plan.expanded = stmt
        else:
            # Definer-rights views: the caller needs SELECT on each view
            # and on each base table referenced *directly* in the
            # statement — tables reached only through a view body are
            # covered by the view grant.
            plan.direct_tables = frozenset(
                name.upper()
                for name in stmt.referenced_tables()
                if not catalog.has_view(name)
            )
            plan.expanded, view_names = self._expand_views(stmt)
            plan.view_names = tuple(view_names)
            plan.tables = frozenset(
                name.upper() for name in plan.expanded.referenced_tables()
            )
            plan.predicts = tuple(_collect_predict_nodes(plan.expanded))
            # PREDICT nodes take the model store before the plan build,
            # which copies them (dataclasses.replace keeps the store).
            for node in plan.predicts:
                node.store = self._system.models
        # Bind-and-rewrite before routing, because the cost-based route
        # needs per-operator estimates over the bound plan. Both engines
        # lower the same logical plan, so a statement that fails back to
        # DB2 after running on the accelerator reuses the identical plan
        # object.
        plan.logical = plan_statement(
            plan.expanded,
            table_rows=self._system._live_row_count,
            table_columns=self._system._table_columns,
        )
        if not plan.monitored:
            try:
                plan.route_facts = self._system.router.classify(plan.expanded)
            except ReproError:
                # An unknown name: left to the authorize and route
                # stages, which report it in their own order.
                plan.route_facts = None
        plan.prepared = True

    def _authorize(self, plan: CachedPlan) -> None:
        """Authorize stage: every execution and every EXPLAIN, never
        cached — grants and models change without bumping the catalog
        generation, and nothing is routed, admitted or delegated to the
        accelerator before DB2 has said yes."""
        catalog = self._system.catalog
        for name in plan.view_names:
            self._check_privilege(catalog.view(name), Privilege.SELECT)
        for name in plan.direct_tables:
            self._check_privilege(catalog.table(name), Privilege.SELECT)
        # Re-checked per execution: this enforces the owner gate and
        # catches dropped models even on plan-cache hits.
        models = self._system.models
        for node in plan.predicts:
            model = models.get(node.model)
            models.check_access(model, self.user.name, self.user.is_admin)
            if len(node.args) != len(model.features):
                raise AnalyticsError(
                    f"PREDICT({model.name}, ...) expects "
                    f"{len(model.features)} feature(s), got {len(node.args)}"
                )

    def _authorized_plan(self, stmt) -> CachedPlan:
        """Bind and authorize a query EXPLAIN will not execute."""
        plan = CachedPlan(stmt)
        self._bind(plan)
        self._authorize(plan)
        return plan

    def _route(
        self,
        plan: CachedPlan,
        mode: AccelerationMode,
        params: Sequence[object] = (),
        fingerprint: Optional[str] = None,
    ):
        """Route stage: (decision, per-node estimates, root row
        estimate, PlanCost advice). Re-runs per execution — the special
        register, health state and row estimates all change without
        bumping the catalog generation; only the plan's statement-only
        verdicts (``route_facts``) are reused.

        The row estimate is the logical plan's *root* estimate — a
        ``LIMIT 5`` probe on a million-row table estimates 5 rows, not
        the sum of every referenced table's cardinality (which made the
        WLM admit such probes as heavy and the router offload them).
        ``params`` resolve parameter markers in predicates, so a lifted
        literal is estimated as its value. ``fingerprint`` is the
        binding cardinality feedback is looked up under (None: none).
        When any referenced table has no storage on either engine,
        everything degrades to None so routing falls back to the shape
        heuristic instead of trusting a silent 0.
        """
        if plan.monitored:
            # SYSACCEL.MON_* views never reach the router: they are served
            # DB2-side from the live observability structures.
            return RoutingDecision("DB2", "monitoring view"), None, None, None
        system = self._system
        logical = plan.logical
        table_rows = system._live_row_count
        estimates = estimated_rows = cost_advice = None
        if all(table_rows(name) is not None for name in plan.tables):
            feedback = None
            if fingerprint is not None:
                lookup = system.profiler.feedback.lookup
                generation = system.catalog.generation

                def feedback(path):
                    return lookup(fingerprint, generation, path)

            estimates = estimate_plan(
                logical,
                table_rows,
                stats=system.stats,
                feedback=feedback,
                params=params,
            )
            estimated_rows = estimates.get(id(logical))
            cost_advice = system.cost_model.plan_costs(
                logical, estimates, base_rows=table_rows
            )
        with self._span("route", mode=mode.value) as route_span:
            facts = plan.route_facts
            if facts is None:  # raises bind's unknown-name error
                facts = system.router.classify(plan.expanded)
            decision = system.router.route_query(
                facts, mode, cost_advice=cost_advice
            )
            route_span.annotate(
                engine=decision.engine, reason=decision.reason
            )
        return decision, estimates, estimated_rows, cost_advice

    def _admit(
        self,
        run: "_StatementRun",
        engine: str,
        cheap: bool = False,
        estimated_rows: Optional[int] = None,
        estimated_cost: Optional[float] = None,
    ) -> None:
        """Admit stage: pass the statement through ``engine``'s gate.

        A ``cheap`` statement (a primary-key point lookup, which finishes
        in microseconds on either engine) bypasses the queue without
        taking a slot: parking it behind queued analytics would invert
        the latency goal. One ticket per statement: a nested select
        (INSERT ... SELECT, CTAS) reuses the ticket its statement already
        holds, so no statement ever waits on a second gate while holding
        slots on a first — admission cannot deadlock across engines.
        No-op while the WLM is disabled.
        """
        wlm = self._system.wlm
        if not wlm.enabled or run.ticket is not None:
            return
        with self._span(
            "wlm.admit", engine=engine, service_class=run.service_class
        ) as span:
            run.ticket = wlm.admit(
                engine,
                run.service_class,
                estimated_rows=estimated_rows,
                estimated_cost=estimated_cost,
                cheap=cheap,
                budget=self._budget,
            )
            span.annotate(
                bypassed=run.ticket.bypassed,
                queued_ms=round(run.ticket.queued_seconds * 1000.0, 3),
            )

    def _execute_select_on(
        self,
        engine: str,
        plan: CachedPlan,
        run: "_StatementRun",
        estimates,
        fingerprint: Optional[str],
    ) -> tuple[list[str], list[tuple]]:
        """Execute stage: run the bound plan on the routed engine, under
        a profile when the profiler (or EXPLAIN ANALYZE) asks for one.
        Errored executions keep their profile for EXPLAIN ANALYZE but
        never feed the cardinality store."""
        system = self._system
        profiler = system.profiler
        profile = None
        if profiler.enabled or run.force_profile:
            profile = profiler.begin(
                plan.logical,
                lambda name: system._live_row_count(name) or 0,
                engine=engine,
                fingerprint=fingerprint,
                generation=system.catalog.generation,
                estimates=estimates,
            )
        started = time.perf_counter()
        try:
            if engine == "ACCELERATOR":
                columns, rows = system.accelerator.execute_select(
                    plan.expanded,
                    params=run.params,
                    snapshot_epoch=self.snapshot_epoch_for_statement(),
                    deltas=self.active_deltas(),
                    plan=plan.logical,
                    profile=profile,
                )
            else:
                with self._span("db2.execute") as db2_span:
                    columns, rows = system.db2.execute_select(
                        run.txn,
                        plan.expanded,
                        run.params,
                        plan=plan.logical,
                        profile=profile,
                    )
                    db2_span.annotate(rows=len(rows))
        except Exception as exc:
            if profile is not None:
                profile.error = f"{type(exc).__name__}: {exc}"[:200]
            raise
        finally:
            if profile is not None:
                profiler.finish(profile, time.perf_counter() - started)
                run.profiles.append(profile)
        return columns, rows

    def _run_select(
        self, plan: CachedPlan, run: "_StatementRun", mode: AccelerationMode
    ) -> tuple[list[str], list[tuple], str]:
        """All query stages, in order, for one plan. No movement charges
        — callers charge according to where the rows actually go."""
        plan.executions += 1
        self._bind(plan)
        self._authorize(plan)
        # Feedback is keyed by the statement's own binding; a sub-select
        # (INSERT … SELECT, CTAS) records none.
        fingerprint = (
            run.shape.text
            if plan is run.plan and run.shape is not None
            else None
        )
        decision, estimates, estimated_rows, cost_advice = self._route(
            plan, mode, run.params, fingerprint
        )
        self.last_decision = decision.reason
        if plan.monitored:
            with self._span(
                "monitor.query", views=",".join(sorted(plan.monitored))
            ):
                columns, rows = execute_monitoring_query(
                    self._system, plan.expanded, run.params
                )
            return columns, rows, decision.engine
        if decision.reason.startswith("failback"):
            self._system.failbacks += 1
            self._system.metrics.counter("statement.failbacks").inc()
        # Admission happens after routing: the gate is per-engine and
        # the cost weight comes from the plan's root estimate plus the
        # cost model's per-engine work estimate.
        estimated_cost = None
        if cost_advice is not None:
            estimated_cost = (
                cost_advice.accelerator
                if decision.engine == "ACCELERATOR"
                else cost_advice.db2
            )
        facts = plan.route_facts
        self._admit(
            run,
            decision.engine,
            facts is not None and facts.point_lookup,
            estimated_rows,
            estimated_cost,
        )
        columns, rows = self._execute_select_on(
            decision.engine, plan, run, estimates, fingerprint
        )
        return columns, rows, decision.engine

    def _execute_query(self, stmt, run: "_StatementRun") -> Result:
        """Top-level SELECT: run it, and charge the result transfer.

        An accelerator or link failure *during* execution feeds the health
        monitor; under ``ENABLE WITH FAILBACK`` the statement then
        transparently re-executes on DB2 (results are identical — the copy
        is maintained from DB2's own change log), otherwise the failure
        surfaces as :class:`AcceleratorUnavailableError`.
        """
        system = self._system
        plan = run.plan
        try:
            columns, rows, engine = self._run_select(
                plan, run, self.acceleration
            )
            if engine == "ACCELERATOR":
                system.interconnect.send_to_accelerator(
                    STATEMENT_OVERHEAD_BYTES
                )
                system.interconnect.send_to_db2(estimate_rows_bytes(rows))
                system.health.record_success()
        except (AcceleratorCrashError, LinkError) as exc:
            # One shard failing is not an appliance failure: the shard's
            # own circuit already tripped inside the engine, and tripping
            # the global monitor here would take the surviving shards
            # out of offload with it.
            if not isinstance(exc, ShardUnavailableError):
                system.health.record_failure()
            if not self.acceleration.allows_failback or any(
                system.catalog.table(name).is_aot for name in plan.tables
            ):
                raise AcceleratorUnavailableError(
                    f"accelerator failed mid-statement: {exc}"
                ) from exc
            # Mode NONE routes to DB2: no result transfer to charge.
            with self._span(
                "failback", reason=f"{type(exc).__name__}: {exc}"[:200]
            ):
                columns, rows, engine = self._run_select(
                    plan, run, AccelerationMode.NONE
                )
            if run.profiles:
                run.profiles[-1].failback = True
            self.last_decision = "failback: accelerator failed mid-statement"
            system.failbacks += 1
            system.metrics.counter("statement.failbacks").inc()
        # The client edge: the one place a SELECT's result becomes rows.
        return Result(columns=columns, rows=list(rows), engine=engine)

    def _expand_views(self, stmt):
        catalog = self._system.catalog

        def lookup(name: str):
            if catalog.has_view(name):
                return catalog.view(name).query
            return None

        return expand_views(stmt, lookup)

    # -- DML ------------------------------------------------------------------------------------

    def _route_dml(self, stmt) -> tuple[TableDescriptor, RoutingDecision]:
        """Bind, authorize and route INSERT/UPDATE/DELETE: the target's
        placement decides the engine, and AOT DML — no DB2 copy to fall
        back to — fails fast here while the accelerator is OFFLINE."""
        catalog = self._system.catalog
        if catalog.has_view(stmt.table):
            raise SqlError(
                f"{stmt.table.upper()} is a view; views are read-only"
            )
        descriptor = catalog.table(stmt.table)
        self._check_privilege(descriptor, _DML[type(stmt)][0])
        return descriptor, self._system.router.route_dml(descriptor.name)

    def _execute_insert(
        self, stmt: ast.InsertStatement, run: "_StatementRun"
    ) -> Result:
        descriptor, decision = self._route_dml(stmt)
        if stmt.values is not None:
            source = self._evaluate_value_rows(stmt, run.params)
            source_engine = "DB2"
            self._admit(run, decision.engine, estimated_rows=len(source))
        else:
            plan = run.plan
            if plan is None:  # an AST: nothing to keep the plan on
                select_plan = CachedPlan(stmt.select)
            else:
                if plan.select_plan is None:
                    plan.select_plan = CachedPlan(stmt.select)
                select_plan = plan.select_plan
            __, source, source_engine = self._run_subselect(
                select_plan, run, descriptor.is_aot
            )
        count = self._land_rows(
            run,
            descriptor,
            source,
            stmt.columns,
            source_engine,
            STATEMENT_OVERHEAD_BYTES,
        )
        return Result(engine=decision.engine, rowcount=count)

    def _run_subselect(
        self, plan: CachedPlan, run: "_StatementRun", to_aot: bool
    ):
        """The sub-select of INSERT … SELECT or CTAS. An AOT target
        forces it onto the accelerator whenever its sources are visible
        there (mode ALL semantics); the whole statement then executes in
        place."""
        mode = AccelerationMode.ALL if to_aot else self.acceleration
        return self._run_select(plan, run, mode)

    def _land_rows(
        self,
        run: "_StatementRun",
        descriptor: TableDescriptor,
        source: Sequence[tuple],
        names: Optional[list[str]],
        source_engine: str,
        statement_bytes: int,
    ) -> int:
        """Coerce ``source`` (a sub-select's rows or VALUES rows; ``names``
        is the statement's column list) and land it in ``descriptor``'s
        table, charging the interconnect by (source engine, target
        placement).

        An AOT takes the batch as columns: an accelerator result still is
        its ``VTable`` and is never boxed; rows from DB2 or VALUES are
        packed once. A DB2 table takes row tuples.

        ``statement_bytes`` is the protocol overhead of shipping the
        statement itself to an AOT target: INSERT pays it here, CTAS
        already paid it with its CREATE.
        """
        system = self._system
        schema = descriptor.schema
        if descriptor.is_aot:
            if isinstance(source, SizedRows):
                columns = schema.coerce_columns(source.table.columns, names)
            else:
                columns = schema.coerce_rows(source, names)
            # VALUES or a DB2-side sub-select: the rows cross the wire.
            # A sub-select that ran on the accelerator lands in place and
            # only the statement travels — the paper's headline saving.
            crossing = source_engine != "ACCELERATOR"
            nbytes = schema.columns_byte_size(columns) if crossing else None
            if crossing or statement_bytes:
                system.interconnect.send_to_accelerator(
                    (nbytes or 0) + statement_bytes
                )
            return system.accelerator.insert_into(
                descriptor.name,
                columns,
                delta=self.delta_for(descriptor.name),
                already_coerced=True,
                nbytes=nbytes,
            )
        if names is None:
            rows = [schema.coerce_row(row) for row in source]
        else:
            rows = [schema.coerce_partial(names, row) for row in source]
        if source_engine == "ACCELERATOR":
            # Legacy-flow price: accelerator results materialised in DB2
            # cross the interconnect coming back — and, if the target is
            # accelerated, replication ships them out again after commit.
            system.interconnect.send_to_db2(
                sum(schema.row_byte_size(row) for row in rows)
            )
        return system.db2.insert_rows(
            run.txn, descriptor.name, rows, already_coerced=True
        )

    @staticmethod
    def _evaluate_value_rows(
        stmt: ast.InsertStatement, params: Sequence[object]
    ) -> list[tuple]:
        from repro.sql.expressions import Scope, compile_scalar

        scope = Scope([])
        return [
            tuple(compile_scalar(expr, scope, params)(()) for expr in value_row)
            for value_row in stmt.values or []
        ]

    def _execute_update_or_delete(
        self,
        stmt: Union[ast.UpdateStatement, ast.DeleteStatement],
        run: "_StatementRun",
    ) -> Result:
        system = self._system
        descriptor, decision = self._route_dml(stmt)
        self._admit(
            run,
            decision.engine,
            estimated_rows=system._live_row_count(descriptor.name) or 0,
        )
        engine_method = _DML[type(stmt)][1]
        if decision.engine == "ACCELERATOR":
            system.interconnect.send_to_accelerator(STATEMENT_OVERHEAD_BYTES)
            epoch = (
                self.snapshot_epoch_for_statement()
                if self.in_transaction
                else None
            )
            count = getattr(system.accelerator, engine_method)(
                stmt,
                params=run.params,
                snapshot_epoch=epoch,
                delta=self.delta_for(descriptor.name),
            )
        else:
            count = getattr(system.db2, engine_method)(
                run.txn, stmt, run.params
            )
        return Result(engine=decision.engine, rowcount=count)

    # -- DDL --------------------------------------------------------------------------------------

    def _execute_create_table(
        self, stmt: ast.CreateTableStatement, run: "_StatementRun"
    ) -> Result:
        if stmt.if_not_exists and self._system.catalog.has_table(stmt.name):
            return Result(message="TABLE EXISTS", engine="DB2")

        if stmt.as_select is not None:
            source_columns, source_rows, source_engine = self._run_subselect(
                CachedPlan(stmt.as_select), run, stmt.in_accelerator
            )
            schema = self._schema_from_columns(
                source_columns,
                source_rows.table.columns
                if isinstance(source_rows, SizedRows)
                else pack_rows(source_rows, len(source_columns)),
            )
        else:
            schema = TableSchema(
                [
                    Column(
                        column.name,
                        column.sql_type,
                        nullable=column.nullable,
                        primary_key=column.primary_key,
                    )
                    for column in stmt.columns
                ]
            )
        location = (
            TableLocation.ACCELERATOR_ONLY
            if stmt.in_accelerator
            else TableLocation.DB2_ONLY
        )
        descriptor = self._system.catalog.create_table(
            stmt.name,
            schema,
            location=location,
            distribute_on=stmt.distribute_on,
            owner=self.user.name,
        )
        if stmt.in_accelerator:
            # The nickname/proxy stays in the DB2 catalog; the data lives
            # only on the accelerator (paper Sec. 2, Fig. 1).
            self._system.accelerator.create_storage(descriptor)
            self._system.interconnect.send_to_accelerator(
                STATEMENT_OVERHEAD_BYTES
            )
        else:
            self._system.db2.create_storage(descriptor)

        count = 0
        if stmt.as_select is not None:
            count = self._land_rows(
                run, descriptor, source_rows, None, source_engine, 0
            )
        return Result(
            message=f"TABLE {descriptor.name} CREATED",
            engine="ACCELERATOR" if stmt.in_accelerator else "DB2",
            rowcount=count,
        )

    @staticmethod
    def _schema_from_columns(names: list[str], columns) -> TableSchema:
        """A CTAS schema: each column typed by its first non-NULL value."""
        from repro.sql.types import infer_type, DOUBLE

        out: list[Column] = []
        for name, column in zip(names, columns):
            live = np.flatnonzero(~column.null_mask())[:1]
            sample = column.values[live].tolist()
            sql_type = infer_type(sample[0]) if sample else DOUBLE
            out.append(Column(name, sql_type))
        return TableSchema(out)

    def _execute_drop_table(self, stmt: ast.DropTableStatement, run) -> Result:
        if stmt.if_exists and not self._system.catalog.has_table(stmt.name):
            return Result(message="NO TABLE", engine="DB2")
        descriptor = self._system.catalog.table(stmt.name)
        self._check_privilege(descriptor, None, f"drop {descriptor.name}")
        self._system.catalog.drop_table(descriptor.name)
        self._system.db2.drop_storage(descriptor.name)
        self._system.accelerator.drop_storage(descriptor.name)
        self._system.replication.unregister_table(descriptor.name)
        self._system.stats.invalidate(descriptor.name)
        return Result(message=f"TABLE {descriptor.name} DROPPED", engine="DB2")

    def _execute_alter_distribute(
        self, stmt: ast.AlterTableDistribute, run
    ) -> Result:
        """ALTER TABLE … ACCELERATE DISTRIBUTE BY HASH/RANGE/RANDOM.

        Records the placement spec in the shared catalog (DB2-side
        metadata: it survives accelerator crashes and drives rebuilt
        placement) and redistributes the live rows immediately — a
        GROOM under the new spec, at every shard count. RANGE boundaries
        are computed from the current data's quantiles at ALTER time.
        """
        descriptor = self._system.catalog.table(stmt.table)
        self._check_privilege(descriptor, None, f"alter {descriptor.name}")
        if not descriptor.is_accelerated:
            raise SqlError(
                f"table {descriptor.name} is not accelerator-resident; "
                "DISTRIBUTE BY governs accelerator placement"
            )
        columns = tuple(c.upper() for c in stmt.columns)
        for name in columns:
            if name not in descriptor.schema.column_names:
                raise UnknownObjectError(
                    f"table {descriptor.name} has no column {name}"
                )
        accelerator = self._system.accelerator
        if stmt.method == "RANGE":
            values = accelerator.range_key_values(descriptor.name, columns[0])
            spec = PartitionSpec(
                "RANGE", columns, range_boundaries(values, accelerator.shards)
            )
        elif stmt.method == "HASH":
            spec = PartitionSpec("HASH", columns)
        else:
            spec = PartitionSpec("RANDOM")
        self._system.catalog.set_partition_spec(descriptor.name, spec)
        self._system.interconnect.send_to_accelerator(STATEMENT_OVERHEAD_BYTES)
        moved = accelerator.redistribute(descriptor.name, spec)
        rendered = stmt.method
        if columns:
            rendered += f" ({', '.join(columns)})"
        return Result(
            message=f"TABLE {descriptor.name} DISTRIBUTE BY {rendered}",
            engine="ACCELERATOR",
            rowcount=moved,
        )

    def _execute_create_view(
        self, stmt: ast.CreateViewStatement, run
    ) -> Result:
        # Validate eagerly: expansion catches unknown views; execution of
        # the definition would catch unknown tables, but a cheap catalog
        # check keeps CREATE VIEW errors early and clear.
        expanded, __ = self._expand_views(stmt.query)
        for name in expanded.referenced_tables():
            self._system.catalog.table(name)  # raises if unknown
        descriptor = self._system.catalog.create_view(
            stmt.name, stmt.query, owner=self.user.name
        )
        return Result(
            message=f"VIEW {descriptor.name} CREATED", engine="DB2"
        )

    def _execute_drop_view(self, stmt: ast.DropViewStatement, run) -> Result:
        if stmt.if_exists and not self._system.catalog.has_view(stmt.name):
            return Result(message="NO VIEW", engine="DB2")
        descriptor = self._system.catalog.view(stmt.name)
        self._check_privilege(
            descriptor, None, f"drop view {descriptor.name}"
        )
        self._system.catalog.drop_view(descriptor.name)
        return Result(message=f"VIEW {descriptor.name} DROPPED", engine="DB2")

    # -- GRANT / REVOKE ------------------------------------------------------------------------------

    def _execute_grant_revoke(
        self, stmt: Union[ast.GrantStatement, ast.RevokeStatement], run
    ) -> Result:
        verb = "grant" if isinstance(stmt, ast.GrantStatement) else "revoke"
        object_name = stmt.object_name.upper()
        if stmt.object_type == "TABLE":
            catalog = self._system.catalog
            descriptor = (
                catalog.view(object_name)
                if catalog.has_view(object_name)
                else catalog.table(object_name)
            )
            self._check_privilege(
                descriptor, None, f"{verb} on {object_name}"
            )
            object_name = descriptor.name
        elif not self.user.is_admin:
            raise AuthorizationError(
                "only administrators manage procedure privileges"
            )
        grantee = self._system.catalog.user(stmt.grantee).name
        privileges = self._resolve_privileges(stmt.privileges, stmt.object_type)
        getattr(self._system.catalog.privileges, verb)(
            grantee, privileges, stmt.object_type, object_name
        )
        return Result(message=f"{verb.upper()} OK", engine="DB2")

    @staticmethod
    def _resolve_privileges(
        names: list[str], object_type: str
    ) -> list[Privilege]:
        if "ALL" in names:
            if object_type == "PROCEDURE":
                return [Privilege.EXECUTE]
            return [
                Privilege.SELECT,
                Privilege.INSERT,
                Privilege.UPDATE,
                Privilege.DELETE,
                Privilege.LOAD,
            ]
        return [Privilege.from_name(name) for name in names]

    #: Statement class → (handler, label): the one dispatch table.
    #: Handlers take ``(stmt, run)``; the label names the statement kind
    #: in the trace, the statement history and EXPLAIN.
    _STATEMENT_KINDS = {
        ast.SelectStatement: (_execute_query, "Select"),
        ast.SetOperation: (_execute_query, "SetOperation"),
        ast.InsertStatement: (_execute_insert, "Insert"),
        ast.UpdateStatement: (_execute_update_or_delete, "Update"),
        ast.DeleteStatement: (_execute_update_or_delete, "Delete"),
        ast.CreateTableStatement: (_execute_create_table, "CreateTable"),
        ast.DropTableStatement: (_execute_drop_table, "DropTable"),
        ast.AlterTableDistribute: (
            _execute_alter_distribute,
            "AlterTableDistribute",
        ),
        ast.CreateViewStatement: (_execute_create_view, "CreateView"),
        ast.DropViewStatement: (_execute_drop_view, "DropView"),
        ast.GrantStatement: (_execute_grant_revoke, "Grant"),
        ast.RevokeStatement: (_execute_grant_revoke, "Revoke"),
        ast.ExplainStatement: (_execute_explain, "Explain"),
        ast.SetStatement: (_execute_set, "Set"),
        ast.CallStatement: (_execute_call, "Call"),
        # Looked up on the instance: a wrapped commit() stays in the path.
        ast.BeginStatement: (lambda self, stmt, run: self.begin(), "Begin"),
        ast.CommitStatement: (lambda self, stmt, run: self.commit(), "Commit"),
        ast.RollbackStatement: (
            lambda self, stmt, run: self.rollback(),
            "Rollback",
        ),
    }
