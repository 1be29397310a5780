"""Vectorised query execution for the accelerator.

The engine lowers the shared logical plan (:mod:`repro.sql.logical`) to
column-batch kernels: operators consume and produce
:class:`~repro.accelerator.vtable.VTable` batches; predicates and
projections run as numpy kernels compiled by
:func:`repro.sql.expressions.compile_vector`. Grouped aggregation uses
``bincount`` / ``ufunc.at`` kernels on group-inverse arrays. This is the
simulation stand-in for Netezza's FPGA-accelerated streaming execution:
the *shape* of its advantage over DB2's interpreted row pipeline — column
pruning (``Scan.columns``), zone-map skipping (``Scan.predicate``), batch
arithmetic — is preserved.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from typing import Callable, Optional, Protocol, Sequence, Union

import numpy as np

from repro.catalog.schema import Column, TableSchema
from repro.errors import ParseError, SqlError
from repro.metrics.counters import SizedRows
from repro.sql import ast, logical
from repro.sql.expressions import (
    Scope,
    VColumn,
    compile_scalar,
    compile_vector,
    expression_label,
)
from repro.sql.correlation import SubqueryExecutor
from repro.wlm.budget import current_budget
from repro.sql.planning import (
    canonicalize,
    extract_column_ranges,
    map_children,
    references_only,
    resolve_order_position,
    split_conjuncts,
)
from repro.sql.stats import CostModel
from repro.accelerator.vtable import VTable, column_codes, order_indexes, rows_from_columns

#: Shared strategy thresholds for the estimate-driven join choice.
_COST_MODEL = CostModel()

#: The LIMIT window of a statement without one.
_NO_WINDOW = slice(None)

__all__ = [
    "VectorTableProvider",
    "VectorQueryEngine",
    "ScanWorkerPool",
]


class ScanWorkerPool:
    """Process-wide thread pools, keyed by size.

    Nothing in ``repro`` calls it: queries scan in one sequential
    pipeline and every training epoch is one sequential pass. It stays
    only because the standing benchmark's layer recorder
    (``benchmarks/standing/layers.py``) imports and wraps it; the next
    change to that benchmark deletes both.
    """

    _lock = threading.Lock()
    _pools: dict[int, ThreadPoolExecutor] = {}

    @classmethod
    def run(cls, workers: int, fn: Callable, items: Sequence) -> list:
        """Apply ``fn`` to ``items`` on the shared pool; order preserved."""
        with cls._lock:
            pool = cls._pools.get(workers)
            if pool is None:
                pool = ThreadPoolExecutor(
                    max_workers=workers,
                    thread_name_prefix=f"accel-scan{workers}",
                )
                cls._pools[workers] = pool
        return list(pool.map(fn, items))


class VectorTableProvider(Protocol):
    """What the vector executor needs from the accelerator engine."""

    def table_schema(self, name: str) -> TableSchema:
        """Schema of a base table."""

    def scan_columns(
        self,
        name: str,
        ranges: Optional[dict[str, tuple]] = None,
        columns: Optional[Sequence[str]] = None,
    ) -> tuple[dict[str, VColumn], int]:
        """Current visible columns of a base table (plus row count).

        ``columns`` restricts materialisation to a name subset (projection
        pruning); providers without column projection may ignore it and
        return every column.
        """


class VectorQueryEngine:
    """Executes logical plans as column-batch pipelines."""

    def __init__(
        self,
        provider: VectorTableProvider,
        params: Sequence[object] = (),
        kernel_cache=None,
        tracer=None,
        profile=None,
        estimates=None,
    ) -> None:
        self._provider = provider
        self._params = params
        #: Optional cardinality estimates keyed by id(plan node); when
        #: present, INNER joins of tiny products take the vectorised
        #: cross-filter path instead of the pairing kernel. Both are
        #: byte-identical.
        self._estimates = estimates if estimates is not None else {}
        #: Optional StatementProfile (repro.obs.profile); when set, each
        #: plan operator reports rows/wall-time/chunks-pruned into it.
        #: Disabled cost: one ``is None`` check per operator.
        self._profile = profile
        #: Optional compiled-kernel cache (``get``/``put``) owned by the
        #: statement's cached plan. Only subquery-free expressions are
        #: cached: subquery kernels close over a resolver bound to this
        #: execution's snapshot. Keys include the params tuple because
        #: parameter values are baked into the compiled closures.
        self._kernel_cache = kernel_cache
        #: Optional repro.obs tracer; when enabled, each plan operator
        #: emits an ``op.*`` child span so MON_SPANS shows plan shape.
        self.tracer = tracer
        #: The statement's work budget, captured once at engine
        #: construction (one engine per statement), so every operator
        #: checkpoint reads one attribute instead of the contextvar.
        self._budget = current_budget()
        self.rows_scanned = 0

    # -- public API --------------------------------------------------------------

    def execute(
        self,
        stmt: Union[ast.SelectStatement, ast.SetOperation, logical.PlanNode],
    ) -> tuple[list[str], list[tuple]]:
        """Run a statement or pre-bound logical plan; returns (columns, rows).

        The plan runs column-at-a-time throughout and the rows returned
        are still its last :class:`VTable`: they box into tuples when —
        and only if — somebody reads them.
        """
        if isinstance(stmt, logical.PlanNode):
            plan = stmt
        else:
            plan = logical.plan_statement(stmt)
        columns, table = self._execute_plan(plan)
        return columns, SizedRows(table)

    def _checkpoint(self) -> None:
        """Cooperative cancellation point (operator/chunk boundaries)."""
        if self._budget is not None:
            self._budget.check()

    def _op_span(self, name: str, **attrs):
        tracer = self.tracer
        if tracer is None or not getattr(tracer, "enabled", False):
            return nullcontext()
        return tracer.span(f"op.{name}", **attrs)

    def _stats(self, node: logical.PlanNode):
        """This node's OperatorStats, or None when profiling is off."""
        profile = self._profile
        if profile is None:
            return None
        return profile.stats_for(node)

    def _resolver(self, scope: Scope) -> SubqueryExecutor:
        """Scope-aware subquery executor (see repro.sql.correlation)."""
        return SubqueryExecutor(
            scope,
            lambda table: self._provider.table_schema(table).column_names,
            lambda query: self.execute(query)[1],
        )

    def _compile_where(self, where: ast.Expression, scope: Scope) -> Callable:
        """Compile a WHERE predicate, reusing the plan's kernel cache.

        Subquery-bearing predicates are compiled fresh every time (their
        resolver captures this execution's snapshot); everything else is
        cached by (expression identity, scope, params). Each entry pins
        the expression object it was compiled from and is validated by
        identity on lookup: predicates of ephemeral ASTs (bound
        correlated subqueries) die after execution, and without the pin a
        later AST could be allocated at the recycled address and collide
        on ``id`` — serving a kernel compiled for a different literal.
        """
        if self._kernel_cache is None or _contains_subquery(where):
            return compile_vector(
                where, scope, self._params, self._resolver(scope)
            )
        try:
            key = (id(where), tuple(scope.entries), tuple(self._params))
            hash(key)
        except TypeError:
            return compile_vector(where, scope, self._params)
        entry = self._kernel_cache.get(key)
        if entry is not None and entry[0] is where:
            return entry[1]
        fn = compile_vector(where, scope, self._params)
        self._kernel_cache.put(key, (where, fn))
        return fn

    # -- plan walker -------------------------------------------------------------

    def _execute_plan(self, node: logical.PlanNode) -> tuple[list[str], VTable]:
        self._checkpoint()
        if isinstance(node, logical.Limit):
            with self._op_span("limit"):
                stats = self._stats(node)
                started = time.perf_counter() if stats is not None else 0.0
                start = node.offset or 0
                window = slice(
                    start, None if node.limit is None else start + node.limit
                )
                if isinstance(node.child, logical.Sort):
                    # Top-N: the sort slices its order vector by the
                    # window before gathering any row.
                    columns, table = self._execute_sort(node.child, window)
                else:
                    columns, table = self._execute_plan(node.child)
                    table = table.take(np.arange(table.length)[window])
                if stats is not None:
                    stats.observe(table.length, time.perf_counter() - started)
                return columns, table
        if isinstance(node, logical.Sort):
            return self._execute_sort(node)
        if isinstance(node, logical.SetOp):
            return self._execute_set_op(node)
        if isinstance(node, (logical.Aggregate, logical.Project)):
            return self._execute_select(node)[:2]
        raise ParseError(f"cannot execute plan node {type(node).__name__}")

    def _execute_sort(
        self, node: logical.Sort, window: slice = _NO_WINDOW
    ) -> tuple[list[str], VTable]:
        """ORDER BY, with the enclosing LIMIT's ``window`` if there is one.

        The profile counts the rows the Sort ordered, not the rows the
        window let through (those are the Limit's).
        """
        stats = self._stats(node)
        started = time.perf_counter() if stats is not None else 0.0
        child = node.child
        with self._op_span("sort"):
            # Projection and aggregation fuse their ORDER BY (keys may
            # reference the pre-projection input scope); set operations
            # sort over output columns.
            if isinstance(child, logical.Aggregate) or (
                isinstance(child, logical.Project) and child.child is not None
            ):
                columns, table, ordered = self._execute_select(
                    child, node.order_by, window
                )
            else:
                columns, table = self._execute_plan(child)
                named = VTable(
                    Scope([(None, name) for name in columns]),
                    table.columns,
                    table.length,
                )
                keys = self._order_keys(node.order_by, table.columns, named, {})
                table, ordered = _arrange(table, keys, node.order_by, False, window)
        if stats is not None:
            stats.observe(ordered, time.perf_counter() - started)
        return columns, table

    def _order_keys(
        self,
        order_by: Sequence[ast.OrderItem],
        out_cols: list[VColumn],
        table: VTable,
        alias_map: dict[str, ast.Expression],
    ) -> list[VColumn]:
        """ORDER BY key columns: 1-based positions name output columns,
        anything else is an expression over ``table`` (select aliases in
        ``alias_map`` apply when the name is not a column of it)."""
        keys: list[VColumn] = []
        for order in order_by:
            expr = order.expression
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                keys.append(
                    out_cols[resolve_order_position(expr.value, len(out_cols))]
                )
                continue
            if (
                isinstance(expr, ast.ColumnRef)
                and expr.table is None
                and expr.name in alias_map
                and not _resolvable(expr, table.scope)
            ):
                expr = alias_map[expr.name]
            fn = compile_vector(
                expr, table.scope, self._params, self._resolver(table.scope)
            )
            keys.append(fn(table.columns, table.length))
        return keys

    def _execute_set_op(self, node: logical.SetOp) -> tuple[list[str], VTable]:
        stats = self._stats(node)
        started = time.perf_counter() if stats is not None else 0.0
        with self._op_span("setop", op=node.op):
            left_cols, left = self._execute_plan(node.left)
            right_cols, right = self._execute_plan(node.right)
            table = _combine_set_tables(node.op, left, right)
        if stats is not None:
            stats.observe(table.length, time.perf_counter() - started)
        return left_cols, table

    def _execute_select(
        self,
        node: Union[logical.Project, logical.Aggregate],
        order_by: Sequence[ast.OrderItem] = (),
        window: slice = _NO_WINDOW,
    ) -> tuple[list[str], VTable, int]:
        """A Project or Aggregate with its fused ORDER BY and LIMIT window.

        Returns (columns, table, rows produced before ``window``).
        """
        stats = self._stats(node)
        started = time.perf_counter() if stats is not None else 0.0
        aggregate = isinstance(node, logical.Aggregate)
        with self._op_span("aggregate" if aggregate else "project"):
            if not aggregate and node.child is None:
                columns, table = self._constant_select(node.select_items)
                keys: list[VColumn] = []
            else:
                source = self._build_table(node.child)
                produce = self._aggregate if aggregate else self._project
                columns, table, keys = produce(node, order_by, source)
            table, produced = _arrange(table, keys, order_by, node.distinct, window)
        if stats is not None:
            stats.observe(produced, time.perf_counter() - started)
        return columns, table, produced

    def _constant_select(
        self, select_items: Sequence[ast.SelectItem]
    ) -> tuple[list[str], VTable]:
        scope = Scope([])
        columns: list[str] = []
        values: list[object] = []
        for position, item in enumerate(select_items):
            if isinstance(item.expression, ast.Star):
                raise ParseError("'*' requires a FROM clause")
            fn = compile_scalar(
                item.expression, scope, self._params, self._resolver(scope)
            )
            values.append(fn(()))
            columns.append(item.alias or expression_label(item.expression, position))
        return columns, VTable(
            scope, [VColumn.from_objects([v]) for v in values], 1
        )

    # -- FROM side of the plan ------------------------------------------------------

    def _build_table(
        self,
        node: logical.PlanNode,
        hint: Optional[ast.Expression] = None,
    ) -> VTable:
        """Materialise a from-subtree as a VTable.

        ``hint`` is a predicate that will be applied *above* this subtree
        (a Filter over a Join); scans use it for zone-map range extraction
        only — chunk skipping is conservative, so pruning by a predicate
        that is re-checked later preserves results while cutting
        rows_scanned.
        """
        scan, predicates = _peel_filters(node)
        if scan is not None:
            table = self._scan_pipeline(scan, predicates, hint)
            if self._profile is not None and node is not scan:
                # Filters collapsed into the scan pipeline report the
                # pipeline's output as their own (marked fused).
                self._profile.mark_fused_filters(node, table.length)
            return table
        if isinstance(node, logical.Filter):
            child_hint = (
                node.predicate
                if hint is None
                else ast.BinaryOp(op="AND", left=hint, right=node.predicate)
            )
            table = self._build_table(node.child, hint=child_hint)
            with self._op_span("filter"):
                stats = self._stats(node)
                started = time.perf_counter() if stats is not None else 0.0
                result = self._filter_table(table, node.predicate)
                if stats is not None:
                    stats.observe(
                        result.length,
                        time.perf_counter() - started,
                        rows_in=table.length,
                    )
                return result
        if isinstance(node, logical.SubqueryBind):
            stats = self._stats(node)
            started = time.perf_counter() if stats is not None else 0.0
            with self._op_span("subquery", alias=node.alias):
                columns, table = self._execute_plan(node.plan)
            scope = Scope([(node.alias, name) for name in columns])
            if stats is not None:
                stats.observe(table.length, time.perf_counter() - started)
            return VTable(scope, table.columns, table.length)
        if isinstance(node, logical.Join):
            stats = self._stats(node)
            if stats is None:
                return self._join(node, hint)
            started = time.perf_counter()
            table = self._join(node, hint)
            stats.observe(table.length, time.perf_counter() - started)
            return table
        raise ParseError(f"cannot execute plan node {type(node).__name__}")

    def _filter_table(self, table: VTable, predicate: ast.Expression) -> VTable:
        fn = self._compile_where(predicate, table.scope)
        return table.filter(_truth(fn(table.columns, table.length)))

    # -- scans ------------------------------------------------------------------------

    def _scan_pipeline(
        self,
        scan: logical.Scan,
        predicates: list[ast.Expression],
        hint: Optional[ast.Expression],
    ) -> VTable:
        stats = self._stats(scan)
        if stats is None:
            return self._scan_pipeline_impl(scan, predicates, hint)
        chunks_fn = getattr(self._provider, "chunks_skipped_total", None)
        chunks_before = chunks_fn() if chunks_fn is not None else 0
        scanned_before = self.rows_scanned
        started = time.perf_counter()
        table = self._scan_pipeline_impl(scan, predicates, hint)
        stats.observe(
            table.length,
            time.perf_counter() - started,
            rows_in=self.rows_scanned - scanned_before,
        )
        if chunks_fn is not None:
            stats.chunks_skipped += chunks_fn() - chunks_before
        return table

    def _scan_pipeline_impl(
        self,
        scan: logical.Scan,
        predicates: list[ast.Expression],
        hint: Optional[ast.Expression],
    ) -> VTable:
        self._checkpoint()
        schema = self._provider.table_schema(scan.table)
        cols = _pruned_schema_columns(scan, schema)
        scope = Scope([(scan.binding, c.name) for c in cols])
        binding_columns = {i: c.name for i, c in enumerate(cols)}
        parts = ([scan.predicate] if scan.predicate is not None else []) + list(
            reversed(predicates)
        )
        range_parts = parts + ([hint] if hint is not None else [])
        ranges = (
            extract_column_ranges(_and_all(range_parts), scope, binding_columns)
            if range_parts
            else {}
        )
        column_names = (
            [c.name for c in cols] if scan.columns is not None else None
        )
        with self._op_span("scan", table=scan.table):
            columns, length = self._provider.scan_columns(
                scan.table, ranges or None, columns=column_names
            )
            self.rows_scanned += length
            ordered = [columns[c.name] for c in cols]
            table = VTable(scope, ordered, length)
            if parts:
                table = self._filter_table(table, _and_all(parts))
        return table

    # -- joins -----------------------------------------------------------------------

    def _join(
        self, join: logical.Join, hint: Optional[ast.Expression]
    ) -> VTable:
        join_type = join.join_type
        left_node, right_node = join.left, join.right
        swap = join_type == "RIGHT"
        if swap:
            # RIGHT OUTER = LEFT OUTER with swapped inputs + column remap.
            left_node, right_node = right_node, left_node
            join_type = "LEFT"
        with self._op_span("join", join_type=join.join_type):
            left = self._build_table(left_node, hint=hint)
            right = self._build_table(right_node, hint=hint)
            estimates = (
                (self._estimates.get(id(left_node)), self._estimates.get(id(right_node)))
                if self._estimates
                else (None, None)
            )
            table = self._join_tables(
                left, right, join_type, join.condition, estimates=estimates
            )
        if not swap:
            return table
        cut = len(left.scope)  # width of the original right side
        entries = table.scope.entries[cut:] + table.scope.entries[:cut]
        columns = table.columns[cut:] + table.columns[:cut]
        return VTable(Scope(entries), columns, table.length)

    def _join_tables(
        self,
        left: VTable,
        right: VTable,
        join_type: str,
        condition: Optional[ast.Expression],
        estimates: tuple[Optional[int], Optional[int]] = (None, None),
    ) -> VTable:
        combined_scope = Scope(left.scope.entries + right.scope.entries)

        if join_type == "CROSS":
            return _cross_product(left, right, combined_scope)[0]

        if condition is None:
            raise ParseError(f"{join_type} JOIN requires ON")
        if join_type not in ("INNER", "LEFT"):
            raise ParseError(f"unsupported join type {join_type}")

        est_left, est_right = estimates
        if join_type == "INNER" and _COST_MODEL.prefer_nested_loop(est_left, est_right):
            # Tiny product: one vectorised cross-filter beats coding the
            # keys. Candidate pairs come out in the same (left, right)
            # lexicographic order as the pairing kernel's.
            return self._nested_join(
                left, right, condition, combined_scope, join_type
            )

        left_keys, right_keys, residual = self._split_equi(
            condition, left.scope, right.scope
        )
        if not left_keys:
            return self._nested_join(
                left, right, condition, combined_scope, join_type
            )

        left_key_cols = [fn(left.columns, left.length) for fn in left_keys]
        right_key_cols = [fn(right.columns, right.length) for fn in right_keys]

        # Phase 1: matching candidate pairs only (no padding yet).
        left_indexes, right_indexes = _equi_pairs(left_key_cols, right_key_cols)
        columns = left.gather(left_indexes) + right.gather(right_indexes)
        table = VTable(combined_scope, columns, len(left_indexes))

        # Phase 2: the residual is part of the join condition, so it
        # filters candidate pairs *before* outer padding is decided.
        if residual is not None and table.length:
            mask = _truth(residual(table.columns, table.length))
            left_indexes = left_indexes[mask]
            table = table.filter(mask)

        if join_type != "LEFT":
            return table
        # Phase 3: null-extend left rows with no surviving match.
        return _null_extend(table, left, right, left_indexes)

    def _split_equi(
        self,
        condition: ast.Expression,
        left_scope: Scope,
        right_scope: Scope,
    ):
        left_keys: list[Callable] = []
        right_keys: list[Callable] = []
        residual_parts: list[ast.Expression] = []
        for conjunct in split_conjuncts(condition):
            if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
                sides = (conjunct.left, conjunct.right)
                if references_only(sides[0], left_scope) and references_only(
                    sides[1], right_scope
                ):
                    left_keys.append(compile_vector(sides[0], left_scope, self._params))
                    right_keys.append(
                        compile_vector(sides[1], right_scope, self._params)
                    )
                    continue
                if references_only(sides[1], left_scope) and references_only(
                    sides[0], right_scope
                ):
                    left_keys.append(compile_vector(sides[1], left_scope, self._params))
                    right_keys.append(
                        compile_vector(sides[0], right_scope, self._params)
                    )
                    continue
            residual_parts.append(conjunct)
        residual = None
        if residual_parts:
            combined = Scope(left_scope.entries + right_scope.entries)
            residual = compile_vector(
                _and_all(residual_parts),
                combined,
                self._params,
                self._resolver(combined),
            )
        return left_keys, right_keys, residual

    def _nested_join(
        self,
        left: VTable,
        right: VTable,
        condition: ast.Expression,
        combined_scope: Scope,
        join_type: str,
    ) -> VTable:
        """Non-equi join: evaluate the predicate over the cross product."""
        cross, left_idx = _cross_product(left, right, combined_scope)
        predicate = compile_vector(
            condition, combined_scope, self._params, self._resolver(combined_scope)
        )
        mask = _truth(predicate(cross.columns, cross.length))
        inner = cross.filter(mask)
        if join_type != "LEFT":
            return inner
        return _null_extend(inner, left, right, left_idx[mask])

    # -- aggregation -----------------------------------------------------------------------

    def _aggregate(
        self,
        node: logical.Aggregate,
        order_by: Sequence[ast.OrderItem],
        table: VTable,
    ) -> tuple[list[str], VTable, list[VColumn]]:
        """Returns (columns, one row per group, ORDER BY key columns)."""
        scope = table.scope
        group_canon = [canonicalize(g, scope) for g in node.group_by]
        aggregates: list[ast.FunctionCall] = []

        def rewrite(expr: ast.Expression) -> ast.Expression:
            canon = None
            try:
                canon = canonicalize(expr, scope)
            except ParseError:
                pass
            if canon is not None:
                for index, group_expr in enumerate(group_canon):
                    if canon == group_expr:
                        return ast.ColumnRef(name=f"__G{index}")
            if isinstance(expr, ast.FunctionCall) and expr.is_aggregate:
                key = _aggregate_key(expr, scope)
                for index, existing in enumerate(aggregates):
                    if _aggregate_key(existing, scope) == key:
                        return ast.ColumnRef(name=f"__A{index}")
                aggregates.append(expr)
                return ast.ColumnRef(name=f"__A{len(aggregates) - 1}")
            return map_children(expr, rewrite)

        select_rewritten: list[tuple[ast.Expression, Optional[str]]] = []
        for item in node.select_items:
            if isinstance(item.expression, ast.Star):
                raise ParseError("'*' cannot be combined with GROUP BY")
            select_rewritten.append((rewrite(item.expression), item.alias))
        having_rewritten = (
            rewrite(node.having) if node.having is not None else None
        )
        alias_map = {
            alias: expr for expr, alias in select_rewritten if alias is not None
        }
        order_rewritten: list[ast.OrderItem] = []
        for order in order_by:
            expr = order.expression
            if (
                isinstance(expr, ast.ColumnRef)
                and expr.table is None
                and expr.name in alias_map
            ):
                new_expr = alias_map[expr.name]
            elif isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                new_expr = select_rewritten[
                    resolve_order_position(expr.value, len(select_rewritten))
                ][0]
            else:
                new_expr = rewrite(expr)
            order_rewritten.append(
                ast.OrderItem(expression=new_expr, ascending=order.ascending)
            )

        # Group keys.
        key_columns = [
            compile_vector(g, scope, self._params, self._resolver(scope))(
                table.columns, table.length
            )
            for g in node.group_by
        ]
        inverse, group_count, first_rows = _group_inverse(key_columns, table.length)
        if group_count == 0 and not node.group_by:
            group_count = 1

        # Aggregates.
        agg_columns: list[VColumn] = []
        for call in aggregates:
            agg_columns.append(
                self._compute_aggregate(call, table, inverse, group_count)
            )

        post_entries = [(None, f"__G{i}") for i in range(len(node.group_by))]
        post_entries += [(None, f"__A{j}") for j in range(len(aggregates))]
        post_scope = Scope(post_entries)
        # A group's key is its first row's: dtypes and values stay exact.
        group_out_columns = VTable(Scope([]), key_columns, table.length).gather(
            first_rows
        )
        post_table = VTable(
            post_scope, group_out_columns + agg_columns, group_count
        )

        if having_rewritten is not None:
            predicate = compile_vector(
                having_rewritten, post_scope, self._params, self._resolver(post_scope)
            )
            post_table = post_table.filter(
                _truth(predicate(post_table.columns, post_table.length))
            )

        columns = [
            alias or expression_label(node.select_items[i].expression, i)
            for i, (_, alias) in enumerate(select_rewritten)
        ]
        projected = [
            compile_vector(expr, post_scope, self._params, self._resolver(post_scope))(
                post_table.columns, post_table.length
            )
            for expr, _ in select_rewritten
        ]
        key_cols = [
            compile_vector(
                o.expression, post_scope, self._params, self._resolver(post_scope)
            )(post_table.columns, post_table.length)
            for o in order_rewritten
        ]
        return columns, VTable(Scope([]), projected, post_table.length), key_cols

    def _compute_aggregate(
        self,
        call: ast.FunctionCall,
        table: VTable,
        inverse: np.ndarray,
        group_count: int,
    ) -> VColumn:
        name = call.name
        if name == "COUNT" and call.args and isinstance(call.args[0], ast.Star):
            return VColumn(values=_group_counts(inverse, group_count))
        if not call.args:
            raise ParseError(f"aggregate {name} requires an argument")
        arg = compile_vector(
            call.args[0], table.scope, self._params, self._resolver(table.scope)
        )(table.columns, table.length)
        live = ~arg.null_mask()
        if name == "COUNT":
            if call.distinct:
                return _count_distinct(arg, inverse, group_count, live)
            return VColumn(values=_group_counts(inverse[live], group_count))
        if arg.values.dtype.kind not in "ifb":
            return _object_aggregate(name, arg, inverse, group_count, live)
        integral = arg.values.dtype.kind in "ib"
        if name in ("MIN", "MAX"):
            return _min_max(name, arg, inverse, group_count, live, integral)
        groups = inverse[live]
        counts = _group_counts(groups, group_count)
        empty = counts == 0
        mask = empty if empty.any() else None
        if name == "SUM" and integral:
            sums = _integer_sums(arg.values[live].astype(np.int64), groups, group_count)
            return VColumn(values=sums, mask=mask)
        values = arg.values[live].astype(np.float64, copy=False)
        sums = np.bincount(groups, weights=values, minlength=group_count)
        if name == "SUM":
            return VColumn(values=sums, mask=mask)
        safe_counts = np.where(empty, 1, counts)
        if name == "AVG":
            return VColumn(values=sums / safe_counts, mask=mask)
        if name in ("STDDEV", "VARIANCE"):
            squares = np.bincount(
                groups, weights=values * values, minlength=group_count
            )
            means = sums / safe_counts
            variance = np.maximum(0.0, squares / safe_counts - means * means)
            out = np.sqrt(variance) if name == "STDDEV" else variance
            return VColumn(values=out, mask=mask)
        raise ParseError(f"unknown aggregate {name}")

    # -- projection --------------------------------------------------------------------------

    def _project(
        self,
        node: logical.Project,
        order_by: Sequence[ast.OrderItem],
        table: VTable,
    ) -> tuple[list[str], VTable, list[VColumn]]:
        """Returns (columns, projected table, ORDER BY key columns)."""
        select_items = node.select_items
        columns: list[str] = []
        out_cols: list[VColumn] = []
        position = 0
        for item in select_items:
            if isinstance(item.expression, ast.Star):
                for index in table.scope.star_indexes(item.expression.table):
                    columns.append(table.scope.entries[index][1])
                    out_cols.append(table.columns[index])
                    position += 1
                continue
            fn = compile_vector(
                item.expression, table.scope, self._params, self._resolver(table.scope)
            )
            out_cols.append(fn(table.columns, table.length))
            columns.append(item.alias or expression_label(item.expression, position))
            position += 1
        alias_map = {
            item.alias: item.expression
            for item in select_items
            if item.alias is not None
        }
        keys = self._order_keys(order_by, out_cols, table, alias_map)
        return columns, VTable(Scope([]), out_cols, table.length), keys


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _arrange(
    out: VTable,
    key_cols: list[VColumn],
    order_by: Sequence[ast.OrderItem],
    distinct: bool,
    window: slice,
) -> tuple[VTable, int]:
    """ORDER BY, DISTINCT and the LIMIT window over ``out``.

    All three work on one vector of row indexes and the rows are gathered
    once, after the window has cut it: top-N moves ``limit`` rows, not
    the sorted table. Also returns the row count before the window (a
    window only ever comes with an ORDER BY).
    """
    indexes = None
    if order_by:
        indexes = order_indexes(key_cols, [o.ascending for o in order_by])
    if distinct:
        ordered = out if indexes is None else out.take(indexes)
        first = _first_occurrences(ordered)
        indexes = first if indexes is None else indexes[first]
    if indexes is None:
        return out, out.length
    return out.take(indexes[window]), len(indexes)


def _first_occurrences(table: VTable) -> np.ndarray:
    """Indexes of the first row of each distinct value, in row order.

    DISTINCT and the set operations compare whole rows the way the row
    engine does (Python tuple equality), so they box the rows to decide
    which to keep; the rows kept are still gathered as columns.
    """
    seen: dict[tuple, int] = {}
    for index, row in enumerate(rows_from_columns(table.columns)):
        seen.setdefault(row, index)
    return np.fromiter(seen.values(), dtype=np.int64, count=len(seen))


def _combine_set_tables(op: str, left: VTable, right: VTable) -> VTable:
    """UNION [ALL] / EXCEPT / INTERSECT (see logical.combine_set_rows)."""
    if left.width != right.width:
        raise SqlError("set operation operands have different widths")
    if op in ("UNION ALL", "UNION"):
        table = VTable(
            left.scope,
            [_concat_columns(a, b) for a, b in zip(left.columns, right.columns)],
            left.length + right.length,
        )
        if op == "UNION ALL":
            return table
    elif op in ("EXCEPT", "INTERSECT"):
        right_rows = set(rows_from_columns(right.columns))
        keep = [
            (row in right_rows) == (op == "INTERSECT")
            for row in rows_from_columns(left.columns)
        ]
        table = left.filter(np.array(keep, dtype=bool))
    else:
        raise ParseError(f"unknown set operation {op}")
    return table.take(_first_occurrences(table))


def _truth(result: VColumn) -> np.ndarray:
    """Rows where a predicate's result is TRUE (NULL is not)."""
    mask = result.values.astype(bool)
    if result.mask is not None:
        mask &= ~result.mask
    return mask


def _contains_subquery(expr: ast.Expression) -> bool:
    return any(
        isinstance(node, ast.SubqueryExpression) for node in expr.walk()
    )


def _and_all(conjuncts: Sequence[ast.Expression]) -> ast.Expression:
    combined = conjuncts[0]
    for part in conjuncts[1:]:
        combined = ast.BinaryOp(op="AND", left=combined, right=part)
    return combined


def _peel_filters(
    node: logical.PlanNode,
) -> tuple[Optional[logical.Scan], list[ast.Expression]]:
    """Decompose Filter*(Scan) chains; (None, []) for anything else."""
    predicates: list[ast.Expression] = []
    while isinstance(node, logical.Filter):
        predicates.append(node.predicate)
        node = node.child
    if isinstance(node, logical.Scan):
        return node, predicates
    return None, []


def _pruned_schema_columns(
    scan: logical.Scan, schema: TableSchema
) -> list[Column]:
    """The schema columns this scan materialises, in schema order."""
    if scan.columns is None:
        return list(schema.columns)
    wanted = set(scan.columns)
    cols = [c for c in schema.columns if c.name in wanted]
    if not cols:
        # Nothing referenced (e.g. COUNT(*)-only): keep one column so the
        # scan still carries a row count.
        cols = [schema.columns[0]]
    return cols


def _resolvable(expr: ast.Expression, scope: Scope) -> bool:
    try:
        canonicalize(expr, scope)
        return True
    except ParseError:
        return False


def _aggregate_key(call: ast.FunctionCall, scope: Scope):
    parts: list[object] = [call.name, call.distinct]
    for arg in call.args:
        if isinstance(arg, ast.Star):
            parts.append("*")
        else:
            parts.append(canonicalize(arg, scope))
    return tuple(parts)


#: Integer codes stay direct-addressed (one table slot per possible
#: code) while their span is within this many slots per row coded.
_SLOTS_PER_ROW = 4

_NO_ROWS = np.empty(0, dtype=np.int64)


def _equi_pairs(
    left_keys: list[VColumn], right_keys: list[VColumn]
) -> tuple[np.ndarray, np.ndarray]:
    """Row index pairs ``(left, right)`` of every equi-join match.

    Each key column pair is coded over the two sides concatenated
    (:func:`_joint_codes`: equal keys share a code wherever they sit, a
    key that equals nothing has none) and the parts combine as digits of
    one mixed-radix code per row (:func:`_mixed_radix`). Matching is
    direct addressing on that code: ``bincount`` + ``cumsum`` give
    every code its run of right rows. Pairs come out left-major, each
    left row's matches in ascending right order — the order of the row
    engine's build-right hash join.
    """
    cut = len(left_keys[0])
    parts = [_joint_codes(left, right) for left, right in zip(left_keys, right_keys)]
    live = np.logical_and.reduce([codes >= 0 for codes, __ in parts])
    left_rows = np.flatnonzero(live[:cut])
    right_rows = np.flatnonzero(live[cut:])
    if not len(left_rows) or not len(right_rows):
        return _NO_ROWS, _NO_ROWS
    combined, radix = _mixed_radix(parts, len(live))
    left_codes, right_codes = combined[left_rows], combined[cut + right_rows]
    counts = np.bincount(right_codes, minlength=radix)
    if counts.max() == 1:
        # Unique build keys (a dimension's primary key): every code
        # addresses its one right row.
        slot = np.full(radix, -1, dtype=np.int64)
        slot[right_codes] = right_rows
        matches = slot[left_codes]
        hit = matches >= 0
        return left_rows[hit], matches[hit]
    # Right rows grouped by code, ascending within a code (stable).
    by_code = right_rows[np.argsort(right_codes, kind="stable")]
    run_starts = np.cumsum(counts) - counts
    matches = counts[left_codes]
    # Offset 0..count-1 within each left row's match run.
    offsets = np.arange(int(matches.sum())) - np.repeat(
        np.cumsum(matches) - matches, matches
    )
    return (
        np.repeat(left_rows, matches),
        by_code[np.repeat(run_starts[left_codes], matches) + offsets],
    )


def _joint_codes(left: VColumn, right: VColumn) -> tuple[np.ndarray, int]:
    """Code one equi-join key column pair, left rows then right rows.

    Returns ``(codes, cardinality)``: int64 codes in ``[0, cardinality)``
    that are equal exactly where the row engine's hash join finds the
    keys equal (Python ``==``), and ``-1`` for a key that equals nothing
    — NULL, NaN, or a DOUBLE with no INTEGER twin.

    Two coders: integer keys of small joint span code as ``key - min``;
    everything else is ranked (numbers) or hashed (boxed values).
    """
    sides = [left.values, right.values]
    dead = [left.null_mask(), right.null_mask()]
    kinds = {values.dtype.kind for values in sides}
    if "O" not in kinds and "f" in kinds and kinds != {"f"}:
        # INTEGER = DOUBLE compares exactly. float64 cannot tell 2**53
        # from 2**53 + 1, so the integers never convert: a float joins
        # as the int64 it is integral and in range for, or not at all.
        for side, values in enumerate(sides):
            if values.dtype.kind == "f":
                whole = (
                    (values >= -(2.0**63))
                    & (values < 2.0**63)
                    & (values == np.floor(values))
                )
                sides[side] = np.where(whole, values, 0.0).astype(np.int64)
                dead[side] = dead[side] | ~whole
        kinds = {"i"}
    live = ~np.concatenate(dead)
    ranked = None
    if "O" in kinds:
        # VARCHAR, DATE, DECIMAL: the boxed values' own == and hash.
        keys = np.concatenate([v.astype(object) for v in sides])[live].tolist()
        rank = {key: code for code, key in enumerate(dict.fromkeys(keys))}
        ranked = np.fromiter(map(rank.__getitem__, keys), np.int64, len(keys))
        cardinality = len(rank)
    elif kinds == {"f"}:
        values = np.concatenate(sides)
        live &= ~np.isnan(values)
        values = values[live]
    else:
        values = np.concatenate(sides)[live].astype(np.int64, copy=False)
        if len(values):
            low, high = int(values.min()), int(values.max())
            if high - low < _SLOTS_PER_ROW * len(values):
                ranked, cardinality = values - low, high - low + 1
    if ranked is None:
        uniques, ranked = np.unique(values, return_inverse=True)
        cardinality = len(uniques)
    codes = np.full(len(live), -1, dtype=np.int64)
    codes[live] = ranked
    return codes, max(cardinality, 1)


def _group_inverse(
    key_columns: list[VColumn], length: int
) -> tuple[np.ndarray, int, np.ndarray]:
    """Map rows to dense group ids, groups numbered by first appearance.

    Returns ``(inverse, n_groups, first_rows)``; ``first_rows[g]`` is the
    first row of group ``g``, whose key values are the group's. Each key
    column is ranked to codes (NULL is a value of its own: SQL groups
    NULLs together) and the codes are combined as digits of one
    mixed-radix number per row, which then addresses the group directly:
    no sort over the rows, only over the groups.
    """
    if not key_columns:  # every row in one group; none when there are no rows
        groups = min(length, 1)
        return np.zeros(length, dtype=np.int64), groups, np.zeros(groups, dtype=np.int64)
    combined, radix = _mixed_radix(map(column_codes, key_columns), length)
    # One slot per possible code, holding the first row that has it.
    first = np.full(radix, length, dtype=np.int64)
    np.minimum.at(first, combined, np.arange(length))
    used = np.flatnonzero(first < length)
    by_appearance = np.argsort(first[used])
    rank = np.empty(radix, dtype=np.int64)
    rank[used[by_appearance]] = np.arange(len(used))
    return rank[combined], len(used), first[used[by_appearance]]


def _mixed_radix(parts, length: int) -> tuple[np.ndarray, int]:
    """Combine per-column ``(codes, cardinality)`` pairs as digits of one
    mixed-radix int64 code per row; returns ``(codes, radix)``.

    The number is re-ranked (at most ``length`` distinct values) before
    it could overflow, and at the end when it is too sparse to address
    directly, so ``radix`` slots are always affordable.
    """
    combined, radix = np.zeros(length, dtype=np.int64), 1
    for codes, cardinality in parts:
        if radix * cardinality >= 2**62:
            uniques, combined = np.unique(combined, return_inverse=True)
            radix = len(uniques)
        combined = combined * cardinality + codes
        radix *= cardinality
    if radix > _SLOTS_PER_ROW * length:
        uniques, combined = np.unique(combined, return_inverse=True)
        radix = len(uniques)
    return combined, radix


def _integer_sums(
    values: np.ndarray, groups: np.ndarray, group_count: int
) -> np.ndarray:
    """Exact per-group sums of int64 ``values``: accumulated in int64
    while a float estimate shows no group can leave it, as Python ints
    (an object column, like the row engine's) otherwise."""
    reach = np.bincount(
        groups, weights=np.abs(values.astype(np.float64)), minlength=group_count
    )
    if reach.max(initial=0.0) < 2.0**62:
        sums = np.zeros(group_count, dtype=np.int64)
        np.add.at(sums, groups, values)
        return sums
    totals = [0] * group_count
    for group, value in zip(groups.tolist(), values.tolist()):
        totals[group] += value
    return np.array(totals, dtype=object)


def _count_distinct(
    arg: VColumn, inverse: np.ndarray, group_count: int, live: np.ndarray
) -> VColumn:
    """COUNT(DISTINCT): the distinct ``(group, value code)`` pairs of each
    group's live rows.

    Equal values share a code, so -0.0 counts as 0.0, as Python's ``==``
    has it. NaN equals nothing, not even itself: the row engine's set
    keeps every row's NaN, so each NaN row counts on its own.
    """
    counts = np.zeros(group_count, dtype=np.int64)
    if arg.values.dtype.kind == "f":
        nan = live & np.isnan(arg.values)
        if nan.any():
            counts += np.bincount(inverse[nan], minlength=group_count)
            live = live & ~nan
    codes, bound = column_codes(arg)
    pairs = inverse[live] * bound + codes[live]
    span = group_count * bound
    if span <= _SLOTS_PER_ROW * len(pairs):
        seen = np.zeros(span, dtype=bool)
        seen[pairs] = True
        distinct = np.flatnonzero(seen)
    else:
        distinct = np.unique(pairs)
    counts += np.bincount(distinct // max(bound, 1), minlength=group_count)
    return VColumn(values=counts)


def _group_counts(groups: np.ndarray, group_count: int) -> np.ndarray:
    """Rows per group code; one group needs no ``bincount`` pass (about
    1 ms per 240k rows)."""
    if group_count == 1:
        return np.array([len(groups)], dtype=np.int64)
    return np.bincount(groups, minlength=group_count).astype(np.int64)


def _min_max(
    name: str,
    arg: VColumn,
    inverse: np.ndarray,
    group_count: int,
    live: np.ndarray,
    integral: bool,
) -> VColumn:
    """MIN/MAX of a packed numeric column; a NaN makes its group's NaN."""
    # Integers stay int64: float64 cannot tell 2**53 from 2**53 + 1.
    dtype = np.int64 if integral else np.float64
    ufunc = np.minimum if name == "MIN" else np.maximum
    values = (arg.values if arg.mask is None else arg.values[live]).astype(
        dtype, copy=False
    )
    if group_count == 1:
        # One group: a plain reduction, several times ufunc.at's speed.
        if not len(values):
            return VColumn(
                values=np.array([0 if integral else np.nan], dtype=dtype),
                mask=np.ones(1, dtype=bool),
            )
        return VColumn(values=np.array([ufunc.reduce(values)], dtype=dtype))
    groups = inverse[live]
    low, high = (
        (np.iinfo(dtype).min, np.iinfo(dtype).max)
        if integral
        else (-math.inf, math.inf)
    )
    out = np.full(group_count, high if name == "MIN" else low, dtype=dtype)
    ufunc.at(out, groups, values)
    empty = np.bincount(groups, minlength=group_count) == 0
    out[empty] = 0 if integral else np.nan
    return VColumn(values=out, mask=empty if empty.any() else None)


def _object_aggregate(
    name: str,
    arg: VColumn,
    inverse: np.ndarray,
    group_count: int,
    live: np.ndarray,
) -> VColumn:
    """Aggregates over non-packed columns (strings, dates, decimals).

    MIN/MAX/SUM operate in the value domain; AVG/STDDEV/VARIANCE convert
    to float (matching the DB2 engine's accumulator semantics).
    """
    if name in ("MIN", "MAX"):
        # Builtin min/max over each group's live values in row order: the
        # first of equal extremes wins, as in a row-at-a-time fold.
        pick = min if name == "MIN" else max
        rows = np.flatnonzero(live)
        order = rows[np.argsort(inverse[rows], kind="stable")]
        ordered = arg.values[order].tolist()
        ends = np.cumsum(np.bincount(inverse[rows], minlength=group_count))
        state: list[object] = [None] * group_count
        start = 0
        for group, end in enumerate(ends.tolist()):
            if end - start == 1:
                state[group] = ordered[start]
            elif end > start:
                state[group] = pick(ordered[start:end])
            start = end
        return VColumn.from_objects(state)
    values = arg.to_objects()
    if name in ("AVG", "STDDEV", "VARIANCE"):
        counts = [0] * group_count
        totals = [0.0] * group_count
        squares = [0.0] * group_count
        for i in np.where(live)[0]:
            group = int(inverse[i])
            value = float(values[i])
            counts[group] += 1
            totals[group] += value
            squares[group] += value * value
        out: list[object] = []
        for group in range(group_count):
            if not counts[group]:
                out.append(None)
                continue
            mean = totals[group] / counts[group]
            if name == "AVG":
                out.append(mean)
                continue
            variance = max(0.0, squares[group] / counts[group] - mean * mean)
            out.append(math.sqrt(variance) if name == "STDDEV" else variance)
        return VColumn.from_objects(out)
    if name != "SUM":
        raise ParseError(f"aggregate {name} not supported for this type")
    sums: list[object] = [None] * group_count
    for i in np.where(live)[0]:
        group = int(inverse[i])
        current = sums[group]
        sums[group] = values[i] if current is None else current + values[i]
    return VColumn.from_objects(sums)


def _cross_product(
    left: VTable, right: VTable, scope: Scope
) -> tuple[VTable, np.ndarray]:
    """Every (left, right) row pair, left-major; also each pair's left row."""
    left_idx = np.repeat(np.arange(left.length), right.length)
    right_idx = np.tile(np.arange(right.length), left.length)
    columns = left.gather(left_idx) + right.gather(right_idx)
    return VTable(scope, columns, len(left_idx)), left_idx


def _null_extend(
    table: VTable, left: VTable, right: VTable, matched: np.ndarray
) -> VTable:
    """LEFT JOIN padding: ``table`` (row ``i`` pairs left row
    ``matched[i]``, left-major) plus, NULL on the right, every row of
    ``left`` not among ``matched`` — each in its left row's place, as
    the row engine streams them."""
    unmatched = np.ones(left.length, dtype=bool)
    unmatched[matched] = False
    missing = np.flatnonzero(unmatched)
    if not len(missing):
        return table
    pad_cols = left.gather(missing) + _all_null_columns(right, len(missing))
    merged = [_concat_columns(a, b) for a, b in zip(table.columns, pad_cols)]
    in_left_order = np.argsort(np.concatenate([matched, missing]), kind="stable")
    return VTable(table.scope, merged, len(in_left_order)).take(in_left_order)


def _all_null_columns(table: VTable, count: int) -> list[VColumn]:
    """Columns of ``count`` all-NULL rows matching ``table``'s layout."""
    return [
        VColumn(
            values=np.zeros(count, dtype=col.values.dtype)
            if col.values.dtype.kind in "ifb"
            else np.empty(count, dtype=object),
            mask=np.ones(count, dtype=bool),
        )
        for col in table.columns
    ]


def _concat_columns(*parts: VColumn) -> VColumn:
    """``parts`` end to end (boxed when their dtypes differ)."""
    values = [part.values for part in parts]
    if len({v.dtype for v in values}) > 1:
        values = [v.astype(object) for v in values]
    merged = np.concatenate([part.null_mask() for part in parts])
    return VColumn(
        values=np.concatenate(values), mask=merged if merged.any() else None
    )
