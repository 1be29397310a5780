"""Statement handlers off the data path: DDL, GRANT/REVOKE, SET, CALL
and EXPLAIN. Each takes the statement's pipeline run
(:class:`repro.federation.system._StatementRun`) and calls its stages,
never copies of them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

import numpy as np

from repro.catalog import Column, Privilege, TableSchema
from repro.catalog.privileges import TABLE_PRIVILEGES
from repro.catalog.schema import pack_rows
from repro.errors import AuthorizationError, SqlError, UnknownObjectError
from repro.federation.network import STATEMENT_OVERHEAD_BYTES
from repro.federation.router import CachedPlan, RoutingDecision
from repro.federation.views import expand_views
from repro.metrics.counters import SizedRows
from repro.obs.profile import plan_tree_lines
from repro.result import Result
from repro.shard import PartitionSpec, range_boundaries
from repro.sql import ast
from repro.sql.types import DOUBLE, infer_type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.federation.system import _StatementRun

_QUERIES = (ast.SelectStatement, ast.SetOperation)
_DML = (ast.InsertStatement, ast.UpdateStatement, ast.DeleteStatement)
_CALL_DECISION = RoutingDecision(
    "ACCELERATOR", "procedures execute on the accelerator after DB2 authorisation"
)
_CONTROL_DECISION = RoutingDecision("DB2", "DDL and control statements run on DB2")


# -- session registers and procedures ---------------------------------------------


def set_register(run: _StatementRun, stmt: ast.SetStatement) -> Result:
    conn = run.conn
    register = stmt.register.upper()
    if register == "CURRENT QUERY ACCELERATION":
        conn.set_acceleration(stmt.value)
        value = conn.acceleration.value
    elif register == "CURRENT SERVICE CLASS":
        conn.set_service_class(stmt.value)
        value = conn.service_class
    elif register == "CURRENT STATEMENT TIMEOUT":
        try:
            conn.set_statement_timeout(stmt.value)
        except ValueError:
            raise SqlError(
                f"invalid CURRENT STATEMENT TIMEOUT value "
                f"{stmt.value!r} (seconds or NONE)"
            ) from None
        timeout = conn.statement_timeout
        value = "NONE" if timeout is None else f"{timeout:g}"
    else:
        raise SqlError(f"unknown special register {stmt.register}")
    return Result(message=f"{register} = {value}", engine="DB2")


def call(run: _StatementRun, stmt: ast.CallStatement) -> Result:
    # CALL runs on the accelerator; make it visible to repro.obs:
    # a proc.call span (linked to MON_STATEMENTS via the trace)
    # plus analytics.* counters covering every procedure call.
    system = run.system
    with run.span("proc.call", procedure=stmt.procedure.upper()) as span:
        scanned_before = system.accelerator.rows_scanned
        system.interconnect.send_to_accelerator(STATEMENT_OVERHEAD_BYTES)
        result = system.procedures.call(system, run.conn, stmt)
        scanned = system.accelerator.rows_scanned - scanned_before
        system.metrics.counter("analytics.calls").inc()
        if scanned:
            system.metrics.counter("analytics.rows_scanned").inc(scanned)
        span.annotate(rows_scanned=scanned)
    return result


# -- EXPLAIN ----------------------------------------------------------------------


def explain(run: _StatementRun, stmt: ast.Statement, label: str) -> dict:
    """The statement's bind → authorize → route stages, rendered (see
    :meth:`repro.federation.session.Connection.explain`)."""
    if isinstance(stmt, _QUERIES):
        plan = run.authorized_plan(stmt)
        acceleration = run.conn.acceleration
        decision, __, estimated_rows, cost_advice = run.route(plan, acceleration)
        tables = dict.fromkeys(sorted(plan.monitored), "MONITORING VIEW")
        for name in sorted(plan.tables):
            tables[name] = run.system.catalog.table(name).location.value
        return {
            "statement": "QUERY",
            "engine": decision.engine,
            "reason": decision.reason,
            "acceleration": acceleration.value,
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
    if isinstance(stmt, _DML):
        descriptor, decision = run.route_dml(stmt)
        tables[descriptor.name] = descriptor.location.value
    elif isinstance(stmt, ast.CallStatement):
        decision = _CALL_DECISION
    else:
        decision = _CONTROL_DECISION
    # INSERT … SELECT and CTAS authorize their sub-select as well.
    nested = getattr(stmt, "select", None) or getattr(
        stmt, "as_select", None
    )
    if nested is not None:
        run.authorized_plan(nested)
    return {
        "statement": label.upper(),
        "engine": decision.engine,
        "reason": decision.reason,
        "tables": tables,
    }


def explain_statement(run: _StatementRun, stmt: ast.ExplainStatement) -> Result:
    if stmt.analyze:
        return _explain_analyze(run, stmt.statement)
    rows = []
    for key, value in run.explain(stmt.statement).items():
        if isinstance(value, (list, tuple)):
            # The rendered logical-plan tree: one row per line so
            # the indentation survives the ITEM/VALUE grid.
            rows.extend((key.upper(), str(line)) for line in value)
        elif isinstance(value, dict):
            rows.append((key.upper(), "; ".join(f"{k}={v}" for k, v in sorted(value.items()))))
        else:
            rows.append((key.upper(), str(value)))
    return Result(columns=["ITEM", "VALUE"], rows=rows, engine="DB2")


def _explain_analyze(run: _StatementRun, stmt: ast.Statement) -> Result:
    """Execute the statement with profiling forced on and render the
    annotated plan tree: per-operator actual vs. estimated rows,
    Q-error, and wall time. A mid-statement accelerator failure under
    FAILBACK yields two sections — the failed accelerator attempt and
    the DB2 re-execution."""
    if not isinstance(stmt, _QUERIES):
        raise SqlError(
            "EXPLAIN ANALYZE supports queries only "
            f"(got {type(stmt).__name__})"
        )
    run.plan = CachedPlan(stmt)
    run.force_profile = True
    result = run.query(stmt)
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
        columns=[
            "OPERATOR", "ENGINE", "ACTUAL_ROWS", "ESTIMATED_ROWS", "Q_ERROR",
            "WALL_MS", "DETAIL",
        ],
        rows=rows,
        engine=result.engine,
    )


# -- DDL ------------------------------------------------------------------------------


def create_table(run: _StatementRun, stmt: ast.CreateTableStatement) -> Result:
    system = run.system
    if stmt.if_not_exists and system.catalog.has_table(stmt.name):
        return Result(message="TABLE EXISTS", engine="DB2")

    if stmt.as_select is not None:
        source_columns, source_rows, source_engine = run.subselect(
            CachedPlan(stmt.as_select), stmt.in_accelerator
        )
        schema = _schema_from_columns(
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
    descriptor = system.create_table(
        stmt.name,
        schema,
        run.conn.user.name,
        in_accelerator=stmt.in_accelerator,
        distribute_on=stmt.distribute_on,
    )
    if stmt.in_accelerator:
        system.interconnect.send_to_accelerator(STATEMENT_OVERHEAD_BYTES)

    count = 0
    if stmt.as_select is not None:
        count = run.land(descriptor, source_rows, None, source_engine, 0)
    return Result(
        message=f"TABLE {descriptor.name} CREATED",
        engine="ACCELERATOR" if stmt.in_accelerator else "DB2",
        rowcount=count,
    )


def _schema_from_columns(names: list[str], columns) -> TableSchema:
    """A CTAS schema: each column typed by its first non-NULL value."""
    out: list[Column] = []
    for name, column in zip(names, columns):
        live = np.flatnonzero(~column.null_mask())[:1]
        sample = column.values[live].tolist()
        sql_type = infer_type(sample[0]) if sample else DOUBLE
        out.append(Column(name, sql_type))
    return TableSchema(out)


def drop_table(run: _StatementRun, stmt: ast.DropTableStatement) -> Result:
    system = run.system
    if stmt.if_exists and not system.catalog.has_table(stmt.name):
        return Result(message="NO TABLE", engine="DB2")
    descriptor = system.catalog.table(stmt.name)
    run.check_privilege(descriptor, None, f"drop {descriptor.name}")
    system.catalog.drop_table(descriptor.name)
    system.db2.drop_storage(descriptor.name)
    system.accelerator.drop_storage(descriptor.name)
    system.replication.unregister_table(descriptor.name)
    system.stats.invalidate(descriptor.name)
    return Result(message=f"TABLE {descriptor.name} DROPPED", engine="DB2")


def alter_distribute(run: _StatementRun, stmt: ast.AlterTableDistribute) -> Result:
    """ALTER TABLE … ACCELERATE DISTRIBUTE BY HASH/RANGE/RANDOM.

    Records the placement spec in the shared catalog (DB2-side
    metadata: it survives accelerator crashes and drives rebuilt
    placement) and redistributes the live rows immediately — a
    GROOM under the new spec, at every shard count. RANGE boundaries
    are computed from the current data's quantiles at ALTER time.
    """
    system = run.system
    descriptor = system.catalog.table(stmt.table)
    run.check_privilege(descriptor, None, f"alter {descriptor.name}")
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
    accelerator = system.accelerator
    if stmt.method == "RANGE":
        values = accelerator.range_key_values(descriptor.name, columns[0])
        spec = PartitionSpec(
            "RANGE", columns, range_boundaries(values, accelerator.shards)
        )
    elif stmt.method == "HASH":
        spec = PartitionSpec("HASH", columns)
    else:
        spec = PartitionSpec("RANDOM")
    system.catalog.set_partition_spec(descriptor.name, spec)
    system.interconnect.send_to_accelerator(STATEMENT_OVERHEAD_BYTES)
    moved = accelerator.redistribute(descriptor.name, spec)
    rendered = stmt.method
    if columns:
        rendered += f" ({', '.join(columns)})"
    return Result(
        message=f"TABLE {descriptor.name} DISTRIBUTE BY {rendered}",
        engine="ACCELERATOR",
        rowcount=moved,
    )


def create_view(run: _StatementRun, stmt: ast.CreateViewStatement) -> Result:
    # Validate eagerly: expansion catches unknown views; execution of
    # the definition would catch unknown tables, but a cheap catalog
    # check keeps CREATE VIEW errors early and clear.
    catalog = run.system.catalog
    expanded, __ = expand_views(stmt.query, catalog)
    for name in expanded.referenced_tables():
        catalog.table(name)  # raises if unknown
    descriptor = catalog.create_view(
        stmt.name, stmt.query, owner=run.conn.user.name
    )
    return Result(message=f"VIEW {descriptor.name} CREATED", engine="DB2")


def drop_view(run: _StatementRun, stmt: ast.DropViewStatement) -> Result:
    catalog = run.system.catalog
    if stmt.if_exists and not catalog.has_view(stmt.name):
        return Result(message="NO VIEW", engine="DB2")
    descriptor = catalog.view(stmt.name)
    run.check_privilege(descriptor, None, f"drop view {descriptor.name}")
    catalog.drop_view(descriptor.name)
    return Result(message=f"VIEW {descriptor.name} DROPPED", engine="DB2")


# -- GRANT / REVOKE ---------------------------------------------------------------


def grant_revoke(
    run: _StatementRun, stmt: Union[ast.GrantStatement, ast.RevokeStatement]
) -> Result:
    verb = "grant" if isinstance(stmt, ast.GrantStatement) else "revoke"
    catalog = run.system.catalog
    object_name = stmt.object_name.upper()
    if stmt.object_type == "TABLE":
        descriptor = (
            catalog.view(object_name)
            if catalog.has_view(object_name)
            else catalog.table(object_name)
        )
        run.check_privilege(descriptor, None, f"{verb} on {object_name}")
        object_name = descriptor.name
    elif not run.conn.user.is_admin:
        raise AuthorizationError(
            "only administrators manage procedure privileges"
        )
    grantee = catalog.user(stmt.grantee).name
    privileges = _resolve_privileges(stmt.privileges, stmt.object_type)
    getattr(catalog.privileges, verb)(
        grantee, privileges, stmt.object_type, object_name
    )
    return Result(message=f"{verb.upper()} OK", engine="DB2")


def _resolve_privileges(names: list[str], object_type: str) -> list[Privilege]:
    if "ALL" in names:
        if object_type == "PROCEDURE":
            return [Privilege.EXECUTE]
        return list(TABLE_PRIVILEGES)
    return [Privilege.from_name(name) for name in names]
