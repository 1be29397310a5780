"""The statement pipeline: every statement a session executes.

:meth:`Connection.execute <repro.federation.session.Connection.execute>`
hands each statement to a :class:`_StatementRun`, whose stages are its
methods — resolve → bind → authorize → route → admit → execute → land →
record — and whose fields are what they hand each other. DDL,
GRANT/REVOKE, SET, CALL and EXPLAIN are :mod:`repro.federation.commands`
handlers over the same stages. ``parse_statement``, ``plan_statement``
and ``estimate_plan`` are called through this module's namespace only,
so a wrapper installed here sees every call.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.catalog import Privilege, TableDescriptor
from repro.errors import (
    AcceleratorCrashError,
    AcceleratorUnavailableError,
    AnalyticsError,
    AuthorizationError,
    LinkError,
    ReproError,
    ShardUnavailableError,
    SqlError,
)
from repro.federation import commands
from repro.federation.network import STATEMENT_OVERHEAD_BYTES
from repro.federation.router import (
    AccelerationMode,
    CachedPlan,
    RoutingDecision,
    StatementShape,
    lift_changes_meaning,
)
from repro.federation.views import expand_views
from repro.metrics.counters import SizedRows, estimate_rows_bytes
from repro.obs.monitor import (
    StatementRecord,
    execute_monitoring_query,
    monitoring_tables,
)
from repro.obs.profile import estimate_plan
from repro.result import Result
from repro.sql import ast, parse_statement
from repro.sql.expressions import Scope, compile_scalar
from repro.sql.logical import plan_statement
from repro.wlm import AdmissionTicket, WorkBudget

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.federation.session import Connection

_QUERY_TYPES = (ast.SelectStatement, ast.SetOperation)
_TXN_CONTROL = (ast.BeginStatement, ast.CommitStatement, ast.RollbackStatement)


def _unkeyed_plan(stmt: ast.Statement) -> Optional[CachedPlan]:
    """The plan of a query the plan cache does not hold (None for any
    other statement): never stored or looked up."""
    return CachedPlan(stmt) if isinstance(stmt, _QUERY_TYPES) else None


#: DML statement class → (privilege needed on the target, name of the
#: engine method that applies it; INSERT lands rows via ``land``).
_DML = {
    ast.InsertStatement: (Privilege.INSERT, None),
    ast.UpdateStatement: (Privilege.UPDATE, "update_where"),
    ast.DeleteStatement: (Privilege.DELETE, "delete_where"),
}


class _StatementRun:
    """One statement's pass through the pipeline: the stages are its
    methods, and what they hand each other is its state.

    The session is read (user, registers, the open transaction's deltas
    and snapshot pin) and written back in one place only: the routing
    reason, ``last_decision``.
    """

    def __init__(
        self,
        conn: Connection,
        service_class: str,
        budget: Optional[WorkBudget],
    ) -> None:
        self.conn = conn
        self.system = conn.system
        #: The WLM tier the statement is admitted under, and its budget.
        self.service_class = service_class
        self.budget = budget
        #: The session's explicit transaction, or the statement's own.
        self.txn = None
        #: The caller's parameters with the statement's lifted literals.
        self.params: Sequence[object] = ()
        #: The statement's own plan — its shape's cached plan (query or
        #: DML), an unkeyed plan for a query AST, or the EXPLAIN ANALYZE
        #: target's; None otherwise.
        self.plan: Optional[CachedPlan] = None
        #: The text's shape; its ``text`` is the binding the top-level
        #: query's cardinality feedback is keyed by (None for an AST).
        self.shape: Optional[StatementShape] = None
        #: EXPLAIN ANALYZE profiles its statement even while the system
        #: profiler is disabled.
        self.force_profile = False
        #: At most one admission ticket per statement (see ``admit``).
        self.ticket: Optional[AdmissionTicket] = None
        #: Profiles of the engine executions so far (two when a
        #: mid-statement failure re-executed the plan on DB2).
        self.profiles: list = []

    def span(self, name: str, **attributes):
        """A span under the system tracer (the shared no-op when off)."""
        return self.system.tracer.span(name, **attributes)

    # -- the statement: resolve, the handler in a transaction scope, record -----------

    def run(self, sql: Union[str, ast.Statement], params: Sequence[object]) -> Result:
        system = self.system
        with self.span("statement", user=self.conn.user.name) as span:
            stmt = self.resolve(sql)
            handler, label = _statement_kind(stmt)
            span.annotate(statement=label)
            if isinstance(stmt, _TXN_CONTROL):
                # The session's own transaction verbs: no statement
                # transaction, savepoint or history record around them.
                span.annotate(engine="DB2")
                handler(self, stmt)
                return Result(message=label.upper(), engine="DB2")
            self.params = params if self.shape is None else self.shape.params(params)
            self.conn.last_decision = None
            started = time.perf_counter()
            try:
                result = self.transact(handler, stmt)
            finally:
                # The admission ticket covers the whole statement including
                # its commit; releasing in a finally (and release() being
                # idempotent) means no path — timeout, cancel, fault,
                # rollback — can leak a slot.
                if self.ticket is not None:
                    system.wlm.release(self.ticket)
            self.record(span, label, result, time.perf_counter() - started)
            return result

    def transact(self, handler, stmt: ast.Statement) -> Result:
        """The statement's transaction scope. Inside an explicit
        transaction a failed statement rolls back to its savepoint;
        otherwise it runs in a transaction of its own, committed through
        the session's ``commit`` (looked up on the instance, so a wrapped
        commit stays in the path) or rolled back."""
        conn = self.conn
        db2 = self.system.db2
        txn = conn._txn
        autocommit = txn is None
        if autocommit:
            txn = db2.txn_manager.begin()
        else:
            savepoint = txn.savepoint()
        self.txn = txn
        try:
            result = handler(self, stmt)
        except Exception:
            if autocommit:
                db2.rollback(txn)
            else:
                txn.rollback_to(savepoint)
            raise
        finally:
            db2.txn_manager.end_statement(txn)
        if autocommit:
            conn._txn = txn  # the session commits it and lets it go
            with self.span("commit"):
                conn.commit()
        return result

    def resolve(self, sql: Union[str, ast.Statement]) -> ast.Statement:
        """Resolve stage: the statement, its plan when it is a query or
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
        with self.span("parse") as span:
            if not isinstance(sql, str):
                self.plan = _unkeyed_plan(sql)
                return sql
            cache = self.system.plan_cache
            generation = self.system.catalog.generation
            miss: list = []
            found = cache.lookup(sql, generation, miss)
            if found is not None:
                self.plan, self.shape = found
                if self.plan.executions:
                    span.annotate(plan_cache="hit")
                return self.plan.statement
            # A miss: parse the shape, when literals were lifted, and store
            # its plan. A shape whose markers would change its meaning is
            # refused: its texts are keyed with their literals, and one
            # with the caller's own ``?`` there runs unkeyed.
            shape = miss[0]
            if shape is None:  # never cached
                stmt = parse_statement(sql)
                self.plan = _unkeyed_plan(stmt)
                return stmt
            try:
                stmt = parse_statement(shape.key if shape.lifted else sql)
            except ReproError:
                if not shape.lifted:
                    raise
                stmt = None  # e.g. a lifted VARCHAR(16) length
            if stmt is None or (shape.values and lift_changes_meaning(stmt)):
                cache.refuse(shape.key)
                if not shape.lifted:
                    self.plan = _unkeyed_plan(stmt)
                    return stmt
                shape = shape.unlifted()
                stmt = parse_statement(sql)
            self.plan = cache.store(shape.key, stmt, generation)
            self.shape = shape
            return stmt

    def record(self, span, label: str, result: Result, elapsed: float) -> None:
        """Record stage: statement history, latency and row histograms."""
        system = self.system
        span.annotate(engine=result.engine, rows=result.rowcount)
        system.statement_history.append(
            StatementRecord(
                user=self.conn.user.name,
                statement_type=label,
                engine=result.engine,
                elapsed_seconds=elapsed,
                rowcount=result.rowcount,
                reason=self.conn.last_decision or "",
                trace_id=span.trace_id or "",
            )
        )
        system._latency_hist.observe(elapsed)
        system._rows_hist.observe(result.rowcount)
        system.metrics.counter(f"statement.engine.{result.engine.lower()}").inc()

    # -- bind → authorize → route → admit → execute ----------------------------

    def bind(self, plan: CachedPlan) -> None:
        """Bind stage: resolve the statement's names and build its
        logical plan, once per plan.

        A prepared plan (a plan-cache hit) skips all of it; the catalog
        generation it was prepared under is what keeps that sound.
        """
        if plan.prepared:
            return
        stmt = plan.statement
        system = self.system
        catalog = system.catalog
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
            plan.expanded, view_names = expand_views(stmt, catalog)
            plan.view_names = tuple(view_names)
            plan.tables = frozenset(
                name.upper() for name in plan.expanded.referenced_tables()
            )
            plan.predicts = tuple(
                node
                for __, exprs in ast.query_blocks(plan.expanded)
                for expr in exprs
                for node in expr.walk()
                if isinstance(node, ast.Predict)
            )
            # PREDICT nodes take the model store before the plan build,
            # which copies them (dataclasses.replace keeps the store).
            for node in plan.predicts:
                node.store = system.models
        # Bind-and-rewrite before routing, because the cost-based route
        # needs per-operator estimates over the bound plan. Both engines
        # lower the same logical plan, so a statement that fails back to
        # DB2 after running on the accelerator reuses the identical plan
        # object.
        plan.logical = plan_statement(
            plan.expanded,
            table_rows=system._live_row_count,
            table_columns=system._table_columns,
        )
        if not plan.monitored:
            try:
                plan.route_facts = system.router.classify(plan.expanded)
            except ReproError:
                # An unknown name: left to the authorize and route
                # stages, which report it in their own order.
                plan.route_facts = None
        plan.prepared = True

    def check_privilege(
        self, descriptor, privilege: Optional[Privilege], action: str = ""
    ) -> None:
        """The one owner-or-admin gate for a table or view (views share
        the TABLE privilege namespace). Anyone else needs ``privilege``
        granted — or, where no grant can stand in for ownership
        (``privilege`` None: DROP, ALTER, GRANT), is refused ``action``."""
        user = self.conn.user
        if user.is_admin or descriptor.owner == user.name:
            return
        if privilege is None:
            raise AuthorizationError(f"user {user.name} cannot {action}")
        self.system.catalog.privileges.check(
            user.name, privilege, "TABLE", descriptor.name
        )

    def authorize(self, plan: CachedPlan) -> None:
        """Authorize stage: every execution and every EXPLAIN, never
        cached — grants and models change without bumping the catalog
        generation, and nothing is routed, admitted or delegated to the
        accelerator before DB2 has said yes."""
        catalog = self.system.catalog
        for name in plan.view_names:
            self.check_privilege(catalog.view(name), Privilege.SELECT)
        for name in plan.direct_tables:
            self.check_privilege(catalog.table(name), Privilege.SELECT)
        # Re-checked per execution: this enforces the owner gate and
        # catches dropped models even on plan-cache hits.
        models = self.system.models
        user = self.conn.user
        for node in plan.predicts:
            model = models.get(node.model)
            models.check_access(model, user.name, user.is_admin)
            if len(node.args) != len(model.features):
                raise AnalyticsError(
                    f"PREDICT({model.name}, ...) expects "
                    f"{len(model.features)} feature(s), got {len(node.args)}"
                )

    def authorized_plan(self, stmt) -> CachedPlan:
        """Bind and authorize a query EXPLAIN will not execute."""
        plan = CachedPlan(stmt)
        self.bind(plan)
        self.authorize(plan)
        return plan

    def route(
        self,
        plan: CachedPlan,
        mode: AccelerationMode,
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
        The run's parameters resolve markers in predicates, so a lifted
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
        system = self.system
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
                params=self.params,
            )
            estimated_rows = estimates.get(id(logical))
            cost_advice = system.cost_model.plan_costs(
                logical, estimates, base_rows=table_rows
            )
        with self.span("route", mode=mode.value) as route_span:
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

    def admit(
        self,
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
        wlm = self.system.wlm
        if not wlm.enabled or self.ticket is not None:
            return
        with self.span(
            "wlm.admit", engine=engine, service_class=self.service_class
        ) as span:
            self.ticket = wlm.admit(
                engine,
                self.service_class,
                estimated_rows=estimated_rows,
                estimated_cost=estimated_cost,
                cheap=cheap,
                budget=self.budget,
            )
            span.annotate(
                bypassed=self.ticket.bypassed,
                queued_ms=round(self.ticket.queued_seconds * 1000.0, 3),
            )

    def execute(
        self,
        engine: str,
        plan: CachedPlan,
        estimates,
        fingerprint: Optional[str],
    ) -> tuple[list[str], list[tuple]]:
        """Execute stage: run the bound plan on the routed engine, under
        a profile when the profiler (or EXPLAIN ANALYZE) asks for one.
        Errored executions keep their profile for EXPLAIN ANALYZE but
        never feed the cardinality store."""
        system = self.system
        profiler = system.profiler
        profile = None
        if profiler.enabled or self.force_profile:
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
                    params=self.params,
                    snapshot_epoch=self.conn.snapshot_epoch_for_statement(),
                    deltas=self.conn.active_deltas(),
                    plan=plan.logical,
                    profile=profile,
                )
            else:
                with self.span("db2.execute") as db2_span:
                    columns, rows = system.db2.execute_select(
                        self.txn,
                        plan.expanded,
                        self.params,
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
                self.profiles.append(profile)
        return columns, rows

    def select(
        self, plan: CachedPlan, mode: AccelerationMode
    ) -> tuple[list[str], list[tuple], str]:
        """All query stages, in order, for one plan. No movement charges
        — callers charge according to where the rows actually go."""
        plan.executions += 1
        self.bind(plan)
        self.authorize(plan)
        # Feedback is keyed by the statement's own binding; a sub-select
        # (INSERT … SELECT, CTAS) records none.
        fingerprint = (
            self.shape.text
            if plan is self.plan and self.shape is not None
            else None
        )
        decision, estimates, estimated_rows, cost_advice = self.route(
            plan, mode, fingerprint
        )
        self.conn.last_decision = decision.reason
        system = self.system
        if plan.monitored:
            with self.span(
                "monitor.query", views=",".join(sorted(plan.monitored))
            ):
                columns, rows = execute_monitoring_query(
                    system, plan.expanded, self.params
                )
            return columns, rows, decision.engine
        if decision.reason.startswith("failback"):
            system.failbacks += 1
            system.metrics.counter("statement.failbacks").inc()
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
        self.admit(
            decision.engine,
            facts is not None and facts.point_lookup,
            estimated_rows,
            estimated_cost,
        )
        columns, rows = self.execute(decision.engine, plan, estimates, fingerprint)
        return columns, rows, decision.engine

    def subselect(self, plan: CachedPlan, to_aot: bool):
        """The sub-select of INSERT … SELECT or CTAS. An AOT target
        forces it onto the accelerator whenever its sources are visible
        there (mode ALL semantics); the whole statement then executes in
        place."""
        mode = AccelerationMode.ALL if to_aot else self.conn.acceleration
        return self.select(plan, mode)

    # -- handlers: queries and DML ---------------------------------------------

    def query(self, stmt) -> Result:
        """Top-level SELECT: run it, and charge the result transfer.

        An accelerator or link failure *during* execution feeds the health
        monitor; under ``ENABLE WITH FAILBACK`` the statement then
        transparently re-executes on DB2 (results are identical — the copy
        is maintained from DB2's own change log), otherwise the failure
        surfaces as :class:`AcceleratorUnavailableError`.
        """
        system = self.system
        plan = self.plan
        acceleration = self.conn.acceleration
        try:
            columns, rows, engine = self.select(plan, acceleration)
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
            if not acceleration.allows_failback or any(
                system.catalog.table(name).is_aot for name in plan.tables
            ):
                raise AcceleratorUnavailableError(
                    f"accelerator failed mid-statement: {exc}"
                ) from exc
            # Mode NONE routes to DB2: no result transfer to charge.
            with self.span(
                "failback", reason=f"{type(exc).__name__}: {exc}"[:200]
            ):
                columns, rows, engine = self.select(plan, AccelerationMode.NONE)
            if self.profiles:
                self.profiles[-1].failback = True
            self.conn.last_decision = "failback: accelerator failed mid-statement"
            system.failbacks += 1
            system.metrics.counter("statement.failbacks").inc()
        # The client edge: the one place a SELECT's result becomes rows.
        return Result(columns=columns, rows=list(rows), engine=engine)

    def route_dml(self, stmt) -> tuple[TableDescriptor, RoutingDecision]:
        """Bind, authorize and route INSERT/UPDATE/DELETE: the target's
        placement decides the engine, and AOT DML — no DB2 copy to fall
        back to — fails fast here while the accelerator is OFFLINE."""
        catalog = self.system.catalog
        if catalog.has_view(stmt.table):
            raise SqlError(
                f"{stmt.table.upper()} is a view; views are read-only"
            )
        descriptor = catalog.table(stmt.table)
        self.check_privilege(descriptor, _DML[type(stmt)][0])
        return descriptor, self.system.router.route_dml(descriptor.name)

    def insert(self, stmt: ast.InsertStatement) -> Result:
        descriptor, decision = self.route_dml(stmt)
        if stmt.values is not None:
            source = _evaluate_value_rows(stmt, self.params)
            source_engine = "DB2"
            self.admit(decision.engine, estimated_rows=len(source))
        else:
            plan = self.plan
            if plan is None:  # an AST: nothing to keep the plan on
                select_plan = CachedPlan(stmt.select)
            else:
                if plan.select_plan is None:
                    plan.select_plan = CachedPlan(stmt.select)
                select_plan = plan.select_plan
            __, source, source_engine = self.subselect(
                select_plan, descriptor.is_aot
            )
        count = self.land(
            descriptor,
            source,
            stmt.columns,
            source_engine,
            STATEMENT_OVERHEAD_BYTES,
        )
        return Result(engine=decision.engine, rowcount=count)

    def update_or_delete(
        self, stmt: Union[ast.UpdateStatement, ast.DeleteStatement]
    ) -> Result:
        system = self.system
        descriptor, decision = self.route_dml(stmt)
        self.admit(
            decision.engine,
            estimated_rows=system._live_row_count(descriptor.name) or 0,
        )
        engine_method = _DML[type(stmt)][1]
        if decision.engine == "ACCELERATOR":
            system.interconnect.send_to_accelerator(STATEMENT_OVERHEAD_BYTES)
            conn = self.conn
            epoch = (
                conn.snapshot_epoch_for_statement()
                if conn.in_transaction
                else None
            )
            count = getattr(system.accelerator, engine_method)(
                stmt,
                params=self.params,
                snapshot_epoch=epoch,
                delta=conn.delta_for(descriptor.name),
            )
        else:
            count = getattr(system.db2, engine_method)(
                self.txn, stmt, self.params
            )
        return Result(engine=decision.engine, rowcount=count)

    def land(
        self,
        descriptor: TableDescriptor,
        source: Sequence[tuple],
        names: Optional[list[str]],
        source_engine: str,
        statement_bytes: int,
    ) -> int:
        """Land stage: coerce ``source`` (a sub-select's rows or VALUES
        rows; ``names`` is the statement's column list) and land it in
        ``descriptor``'s table, charging the interconnect by (source
        engine, target placement).

        An AOT takes the batch as columns: an accelerator result still is
        its ``VTable`` and is never boxed; rows from DB2 or VALUES are
        packed once. A DB2 table takes row tuples.

        ``statement_bytes`` is the protocol overhead of shipping the
        statement itself to an AOT target: INSERT pays it here, CTAS
        already paid it with its CREATE.
        """
        system = self.system
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
                delta=self.conn.delta_for(descriptor.name),
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
            self.txn, descriptor.name, rows, already_coerced=True
        )

    def explain(self, sql: Union[str, ast.Statement]) -> dict:
        """What :meth:`Connection.explain` returns (see there)."""
        stmt = parse_statement(sql) if isinstance(sql, str) else sql
        return commands.explain(self, stmt, _statement_kind(stmt)[1])


def _evaluate_value_rows(
    stmt: ast.InsertStatement, params: Sequence[object]
) -> list[tuple]:
    scope = Scope([])
    return [
        tuple(compile_scalar(expr, scope, params)(()) for expr in value_row)
        for value_row in stmt.values or []
    ]


#: Statement class → handler, the one dispatch table. Handlers take
#: ``(run, stmt)``.
_HANDLERS = {
    ast.SelectStatement: _StatementRun.query,
    ast.SetOperation: _StatementRun.query,
    ast.InsertStatement: _StatementRun.insert,
    ast.UpdateStatement: _StatementRun.update_or_delete,
    ast.DeleteStatement: _StatementRun.update_or_delete,
    ast.CreateTableStatement: commands.create_table,
    ast.DropTableStatement: commands.drop_table,
    ast.AlterTableDistribute: commands.alter_distribute,
    ast.CreateViewStatement: commands.create_view,
    ast.DropViewStatement: commands.drop_view,
    ast.GrantStatement: commands.grant_revoke,
    ast.RevokeStatement: commands.grant_revoke,
    ast.ExplainStatement: commands.explain_statement,
    ast.SetStatement: commands.set_register,
    ast.CallStatement: commands.call,
    # Looked up on the instance: a wrapped commit() stays in the path.
    ast.BeginStatement: lambda run, stmt: run.conn.begin(),
    ast.CommitStatement: lambda run, stmt: run.conn.commit(),
    ast.RollbackStatement: lambda run, stmt: run.conn.rollback(),
}


def _statement_kind(stmt: ast.Statement):
    """(handler, label) of a statement. The label — its class name
    without "Statement" — names its kind in the trace, the statement
    history and EXPLAIN."""
    handler = _HANDLERS.get(type(stmt))
    if handler is None:
        raise SqlError(f"unsupported statement {type(stmt).__name__}")
    return handler, type(stmt).__name__.removesuffix("Statement")
