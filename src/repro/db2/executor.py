"""Row-at-a-time (Volcano-style) query execution.

This is the DB2 side's interpreted executor: it walks the shared logical
plan (:mod:`repro.sql.logical`) with operators as generators over Python
tuples, evaluated one row at a time with compiled scalar expressions.
The design is intentionally classic — sequential scans, hash/nested-loop
joins, hash aggregation — because the performance gap between this model
and the accelerator's vectorised executor is the asymmetry the paper's
offload story rests on.

The executor is engine-agnostic: anything that can provide schemas and row
iterators (a :class:`TableProvider`) can execute queries, which the tests
exploit directly.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Iterator, Optional, Protocol, Sequence, Union

from repro.catalog.schema import TableSchema
from repro.errors import ParseError
from repro.obs.profile import counted_rows, counted_source
from repro.sql import ast, logical
from repro.sql.expressions import (
    Scope,
    compile_scalar,
    expression_label,
)
from repro.sql.correlation import SubqueryExecutor
from repro.sql.planning import (
    canonicalize,
    map_children,
    references_only,
    resolve_order_position,
    sort_rows_with_keys as _sort_with_precomputed,
    split_conjuncts,
)
from repro.wlm.budget import current_budget

__all__ = ["TableProvider", "RowQueryEngine", "canonicalize"]

#: Rows between cooperative budget checks in the row-at-a-time scan.
#: Small enough that a timed-out statement stops within microseconds,
#: large enough that the per-row cost is one integer test.
_BUDGET_CHECK_ROWS = 1024


class TableProvider(Protocol):
    """What the executor needs from its host engine."""

    def table_schema(self, name: str) -> TableSchema:
        """Schema of a base table (raises UnknownObjectError if missing)."""

    def scan_rows(self, name: str) -> Iterator[tuple]:
        """Iterate the current rows of a base table."""


# ---------------------------------------------------------------------------
# Aggregate accumulators
# ---------------------------------------------------------------------------


class _Accumulator:
    def add(self, value) -> None:
        raise NotImplementedError

    def result(self):
        raise NotImplementedError


class _CountStar(_Accumulator):
    def __init__(self) -> None:
        self.count = 0

    def add(self, value) -> None:
        self.count += 1

    def result(self):
        return self.count


class _Count(_Accumulator):
    def __init__(self) -> None:
        self.count = 0

    def add(self, value) -> None:
        if value is not None:
            self.count += 1

    def result(self):
        return self.count


class _CountDistinct(_Accumulator):
    def __init__(self) -> None:
        self.values: set = set()

    def add(self, value) -> None:
        if value is not None:
            self.values.add(value)

    def result(self):
        return len(self.values)


class _Sum(_Accumulator):
    def __init__(self) -> None:
        self.total = None

    def add(self, value) -> None:
        if value is None:
            return
        self.total = value if self.total is None else self.total + value

    def result(self):
        return self.total


class _Avg(_Accumulator):
    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0

    def add(self, value) -> None:
        if value is None:
            return
        self.total += float(value)
        self.count += 1

    def result(self):
        return self.total / self.count if self.count else None


class _Min(_Accumulator):
    def __init__(self) -> None:
        self.value = None

    def add(self, value) -> None:
        if value is None:
            return
        if self.value is None or value < self.value:
            self.value = value

    def result(self):
        return self.value


class _Max(_Accumulator):
    def __init__(self) -> None:
        self.value = None

    def add(self, value) -> None:
        if value is None:
            return
        if self.value is None or value > self.value:
            self.value = value

    def result(self):
        return self.value


class _Moments(_Accumulator):
    """Population variance / stddev via running sums."""

    def __init__(self, stddev: bool) -> None:
        self.stddev = stddev
        self.count = 0
        self.total = 0.0
        self.squares = 0.0

    def add(self, value) -> None:
        if value is None:
            return
        v = float(value)
        self.count += 1
        self.total += v
        self.squares += v * v

    def result(self):
        if not self.count:
            return None
        mean = self.total / self.count
        variance = max(0.0, self.squares / self.count - mean * mean)
        return math.sqrt(variance) if self.stddev else variance


def make_accumulator(call: ast.FunctionCall) -> _Accumulator:
    name = call.name
    if name == "COUNT":
        if call.args and isinstance(call.args[0], ast.Star):
            return _CountStar()
        return _CountDistinct() if call.distinct else _Count()
    if name == "SUM":
        return _Sum()
    if name == "AVG":
        return _Avg()
    if name == "MIN":
        return _Min()
    if name == "MAX":
        return _Max()
    if name == "STDDEV":
        return _Moments(stddev=True)
    if name == "VARIANCE":
        return _Moments(stddev=False)
    raise ParseError(f"unknown aggregate {name}")


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class RowQueryEngine:
    """Interprets logical plans against a :class:`TableProvider`."""

    def __init__(
        self,
        provider: TableProvider,
        params: Sequence[object] = (),
        profile=None,
    ) -> None:
        self._provider = provider
        self._params = params
        #: Optional StatementProfile (repro.obs.profile); when set, each
        #: plan operator reports rows/wall-time into it. Streaming
        #: operators are wrapped in counting generators, so the disabled
        #: cost is one ``is None`` check per operator, not per row.
        self._profile = profile
        #: The statement's work budget (None when nothing bounds it),
        #: checked every _BUDGET_CHECK_ROWS rows inside scans.
        self._budget = current_budget()
        self.rows_examined = 0  # exposed for cost/efficiency assertions

    # -- public API ----------------------------------------------------------

    def execute(
        self,
        stmt: Union[ast.SelectStatement, ast.SetOperation, logical.PlanNode],
    ) -> tuple[list[str], list[tuple]]:
        """Run a statement or pre-bound logical plan; returns (columns, rows)."""
        if isinstance(stmt, logical.PlanNode):
            plan = stmt
        else:
            plan = logical.plan_statement(stmt)
        return self._execute_plan(plan)

    def _stats(self, node: logical.PlanNode):
        """This node's OperatorStats, or None when profiling is off."""
        profile = self._profile
        if profile is None:
            return None
        return profile.stats_for(node)

    # -- plan walker ---------------------------------------------------------

    def _execute_plan(self, node: logical.PlanNode) -> tuple[list[str], list[tuple]]:
        if isinstance(node, logical.Limit):
            stats = self._stats(node)
            started = time.perf_counter() if stats is not None else 0.0
            columns, rows = self._execute_plan(node.child)
            out = logical.slice_rows(rows, node.offset, node.limit)
            if stats is not None:
                stats.observe(len(out), time.perf_counter() - started)
            return columns, out
        if isinstance(node, logical.Sort):
            stats = self._stats(node)
            if stats is None:
                return self._execute_sorted(node.child, node.order_by)
            started = time.perf_counter()
            columns, rows = self._execute_sorted(node.child, node.order_by)
            stats.observe(len(rows), time.perf_counter() - started)
            return columns, rows
        if isinstance(node, logical.SetOp):
            return self._execute_set_op(node)
        if isinstance(node, logical.Aggregate):
            return self._execute_aggregate(node, ())
        if isinstance(node, logical.Project):
            return self._execute_project(node, ())
        raise ParseError(f"cannot execute plan node {type(node).__name__}")

    def _execute_sorted(
        self, child: logical.PlanNode, order_by: Sequence[ast.OrderItem]
    ) -> tuple[list[str], list[tuple]]:
        # Projection and aggregation fuse their ORDER BY (keys may
        # reference the pre-projection input scope); everything else
        # (set operations) sorts over output columns.
        if isinstance(child, logical.Aggregate):
            return self._execute_aggregate(child, order_by)
        if isinstance(child, logical.Project) and child.child is not None:
            return self._execute_project(child, order_by)
        columns, rows = self._execute_plan(child)
        return columns, logical.order_rows_by_output(
            columns, rows, order_by, self._params
        )

    def _execute_set_op(self, node: logical.SetOp) -> tuple[list[str], list[tuple]]:
        stats = self._stats(node)
        started = time.perf_counter() if stats is not None else 0.0
        left_cols, left_rows = self._execute_plan(node.left)
        right_cols, right_rows = self._execute_plan(node.right)
        rows = logical.combine_set_rows(
            node.op, left_cols, left_rows, right_cols, right_rows
        )
        if stats is not None:
            stats.observe(len(rows), time.perf_counter() - started)
        return left_cols, rows

    def _execute_project(
        self, node: logical.Project, order_by: Sequence[ast.OrderItem]
    ) -> tuple[list[str], list[tuple]]:
        stats = self._stats(node)
        if node.child is None:
            columns, out_rows = self._constant_select(node.select_items)
            if stats is not None:
                stats.observe(len(out_rows), 0.0)
            return columns, out_rows
        started = time.perf_counter() if stats is not None else 0.0
        rows, scope = self._build_input(node.child)
        columns, out_rows = self._project(
            node.select_items, order_by, rows, scope
        )
        if node.distinct:
            out_rows = logical.dedup_rows(out_rows)
        if stats is not None:
            stats.observe(len(out_rows), time.perf_counter() - started)
        return columns, out_rows

    def _execute_aggregate(
        self, node: logical.Aggregate, order_by: Sequence[ast.OrderItem]
    ) -> tuple[list[str], list[tuple]]:
        stats = self._stats(node)
        started = time.perf_counter() if stats is not None else 0.0
        rows, scope = self._build_input(node.child)
        columns, out_rows = self._aggregate(node, order_by, rows, scope)
        if node.distinct:
            out_rows = logical.dedup_rows(out_rows)
        if stats is not None:
            stats.observe(len(out_rows), time.perf_counter() - started)
        return columns, out_rows

    # -- select pipeline -------------------------------------------------------

    def _resolver(self, scope: Scope) -> SubqueryExecutor:
        """Scope-aware subquery executor (correlated subqueries bind
        their outer references against ``scope``)."""
        return SubqueryExecutor(
            scope,
            lambda table: self._provider.table_schema(table).column_names,
            lambda query: self.execute(query)[1],
        )

    def _constant_select(
        self, select_items: Sequence[ast.SelectItem]
    ) -> tuple[list[str], list[tuple]]:
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
        return columns, [tuple(values)]

    # -- FROM side of the plan ---------------------------------------------------

    def _build_input(
        self, node: logical.PlanNode
    ) -> tuple[Iterator[tuple], Scope]:
        if isinstance(node, logical.Scan):
            return self._build_scan(node)
        if isinstance(node, logical.Filter):
            rows, scope = self._build_input(node.child)
            predicate = compile_scalar(
                node.predicate, scope, self._params, self._resolver(scope)
            )
            filtered: Iterator[tuple] = (
                row for row in rows if predicate(row) is True
            )
            stats = self._stats(node)
            if stats is not None:
                filtered = counted_rows(stats, filtered)
            return filtered, scope
        if isinstance(node, logical.SubqueryBind):
            stats = self._stats(node)
            started = time.perf_counter() if stats is not None else 0.0
            columns, rows = self._execute_plan(node.plan)
            if stats is not None:
                stats.observe(len(rows), time.perf_counter() - started)
            scope = Scope([(node.alias, name) for name in columns])
            return iter(rows), scope
        if isinstance(node, logical.Join):
            rows, scope = self._build_join(node)
            stats = self._stats(node)
            if stats is not None:
                rows = counted_rows(stats, rows)
            return rows, scope
        raise ParseError(f"cannot execute plan node {type(node).__name__}")

    def _build_scan(self, node: logical.Scan) -> tuple[Iterator[tuple], Scope]:
        # The row store always materialises full tuples; Scan.columns is
        # advisory for columnar backends and ignored here.
        schema = self._provider.table_schema(node.table)
        scope = Scope([(node.binding, c.name) for c in schema.columns])
        budget = self._budget

        def _scan() -> Iterator[tuple]:
            pending = _BUDGET_CHECK_ROWS
            for row in self._provider.scan_rows(node.table):
                if budget is not None:
                    pending -= 1
                    if pending <= 0:
                        budget.check()
                        pending = _BUDGET_CHECK_ROWS
                self.rows_examined += 1
                yield row

        rows: Iterator[tuple] = _scan()
        stats = self._stats(node)
        if stats is not None:
            # Two-layer wrap: rows_in counts what the scan read,
            # actual_rows what survived the pushed predicate.
            rows = counted_source(stats, rows)
        if node.predicate is not None:
            predicate = compile_scalar(
                node.predicate, scope, self._params, self._resolver(scope)
            )
            rows = (row for row in rows if predicate(row) is True)
        if stats is not None:
            rows = counted_rows(stats, rows)
        return rows, scope

    def _build_join(self, join: logical.Join) -> tuple[Iterator[tuple], Scope]:
        join_type = join.join_type
        left_node, right_node = join.left, join.right
        swap = join_type == "RIGHT"
        if swap:
            # RIGHT OUTER = LEFT OUTER with swapped inputs + column remap.
            left_node, right_node = right_node, left_node
            join_type = "LEFT"
        left_rows, left_scope = self._build_input(left_node)
        right_rows, right_scope = self._build_input(right_node)
        combined = Scope(left_scope.entries + right_scope.entries)

        if join_type == "CROSS":
            right_list = list(right_rows)

            def _cross() -> Iterator[tuple]:
                for left in left_rows:
                    for right in right_list:
                        yield left + right

            return _cross(), combined

        condition = join.condition
        if condition is None:
            raise ParseError(f"{join_type} JOIN requires ON")
        if join_type not in ("INNER", "LEFT"):
            raise ParseError(f"unsupported join type {join_type}")
        left_keys, right_keys, residual = self._split_equi(
            condition, left_scope, right_scope, combined
        )
        # One physical join per join kind: an equi-join hashes its
        # right input; anything else is a nested loop.
        if left_keys:
            rows = self._hash_join(
                left_rows,
                right_rows,
                left_keys,
                right_keys,
                residual,
                right_scope,
                outer=join_type == "LEFT",
            )
        else:
            rows = self._nested_loop_join(
                left_rows,
                right_rows,
                condition,
                combined,
                right_scope,
                outer=join_type == "LEFT",
            )
        if not swap:
            return rows, combined
        cut = len(left_scope)  # width of the original right side

        def _remap() -> Iterator[tuple]:
            for row in rows:
                yield row[cut:] + row[:cut]

        entries = combined.entries[cut:] + combined.entries[:cut]
        return _remap(), Scope(entries)

    def _split_equi(
        self,
        condition: ast.Expression,
        left_scope: Scope,
        right_scope: Scope,
        combined: Scope,
    ) -> tuple[list, list, Optional[Callable]]:
        """Extract hashable equi-key pairs; compile the residual predicate."""
        left_keys: list[Callable] = []
        right_keys: list[Callable] = []
        residual_parts: list[ast.Expression] = []
        for conjunct in split_conjuncts(condition):
            if (
                isinstance(conjunct, ast.BinaryOp)
                and conjunct.op == "="
            ):
                sides = (conjunct.left, conjunct.right)
                if references_only(sides[0], left_scope) and references_only(
                    sides[1], right_scope
                ):
                    left_keys.append(compile_scalar(sides[0], left_scope, self._params))
                    right_keys.append(
                        compile_scalar(sides[1], right_scope, self._params)
                    )
                    continue
                if references_only(sides[1], left_scope) and references_only(
                    sides[0], right_scope
                ):
                    left_keys.append(compile_scalar(sides[1], left_scope, self._params))
                    right_keys.append(
                        compile_scalar(sides[0], right_scope, self._params)
                    )
                    continue
            residual_parts.append(conjunct)
        residual: Optional[Callable] = None
        if residual_parts:
            predicate = residual_parts[0]
            for part in residual_parts[1:]:
                predicate = ast.BinaryOp(op="AND", left=predicate, right=part)
            residual = compile_scalar(
                predicate, combined, self._params, self._resolver(combined)
            )
        return left_keys, right_keys, residual

    def _hash_join(
        self,
        left_rows: Iterator[tuple],
        right_rows: Iterator[tuple],
        left_keys: list[Callable],
        right_keys: list[Callable],
        residual: Optional[Callable],
        right_scope: Scope,
        outer: bool,
    ) -> Iterator[tuple]:
        table: dict[tuple, list[tuple]] = {}
        for right in right_rows:
            key = tuple(fn(right) for fn in right_keys)
            if any(part is None for part in key):
                continue  # NULL keys never match
            table.setdefault(key, []).append(right)
        null_extension = (None,) * len(right_scope)
        for left in left_rows:
            key = tuple(fn(left) for fn in left_keys)
            matched = False
            if not any(part is None for part in key):
                for right in table.get(key, ()):
                    candidate = left + right
                    if residual is None or residual(candidate) is True:
                        matched = True
                        yield candidate
            if outer and not matched:
                yield left + null_extension

    def _nested_loop_join(
        self,
        left_rows: Iterator[tuple],
        right_rows: Iterator[tuple],
        condition: ast.Expression,
        combined: Scope,
        right_scope: Scope,
        outer: bool,
    ) -> Iterator[tuple]:
        predicate = compile_scalar(
            condition, combined, self._params, self._resolver(combined)
        )
        right_list = list(right_rows)
        null_extension = (None,) * len(right_scope)
        for left in left_rows:
            matched = False
            for right in right_list:
                candidate = left + right
                if predicate(candidate) is True:
                    matched = True
                    yield candidate
            if outer and not matched:
                yield left + null_extension

    # -- aggregation ----------------------------------------------------------------

    def _aggregate(
        self,
        node: logical.Aggregate,
        order_by: Sequence[ast.OrderItem],
        rows: Iterator[tuple],
        scope: Scope,
    ) -> tuple[list[str], list[tuple]]:
        group_canon = [canonicalize(g, scope) for g in node.group_by]
        aggregates: list[ast.FunctionCall] = []

        def rewrite(expr: ast.Expression) -> ast.Expression:
            canon = canonicalize(expr, scope) if _resolvable(expr, scope) else None
            if canon is not None:
                for index, group_expr in enumerate(group_canon):
                    if canon == group_expr:
                        return ast.ColumnRef(name=f"__G{index}")
            if isinstance(expr, ast.FunctionCall) and expr.is_aggregate:
                expr_canon = _canonicalize_aggregate(expr, scope)
                for index, existing in enumerate(aggregates):
                    if _canonicalize_aggregate(existing, scope) == expr_canon:
                        return ast.ColumnRef(name=f"__A{index}")
                aggregates.append(expr)
                return ast.ColumnRef(name=f"__A{len(aggregates) - 1}")
            return map_children(expr, rewrite)

        select_rewritten: list[tuple[ast.Expression, Optional[str]]] = []
        for item in node.select_items:
            if isinstance(item.expression, ast.Star):
                raise ParseError("'*' cannot be combined with GROUP BY")
            select_rewritten.append((rewrite(item.expression), item.alias))
        having_rewritten = rewrite(node.having) if node.having is not None else None
        alias_map = {
            alias: expr for expr, alias in select_rewritten if alias is not None
        }
        order_rewritten = []
        for order in order_by:
            expr = order.expression
            if (
                isinstance(expr, ast.ColumnRef)
                and expr.table is None
                and expr.name in alias_map
            ):
                rewritten = alias_map[expr.name]
            elif isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                rewritten = select_rewritten[
                    resolve_order_position(expr.value, len(select_rewritten))
                ][0]
            else:
                rewritten = rewrite(expr)
            order_rewritten.append(
                ast.OrderItem(expression=rewritten, ascending=order.ascending)
            )

        input_resolver = self._resolver(scope)
        group_fns = [
            compile_scalar(g, scope, self._params, input_resolver)
            for g in node.group_by
        ]
        agg_arg_fns: list[Optional[Callable]] = []
        for call in aggregates:
            if call.args and not isinstance(call.args[0], ast.Star):
                agg_arg_fns.append(
                    compile_scalar(
                        call.args[0], scope, self._params, input_resolver
                    )
                )
            else:
                agg_arg_fns.append(None)

        groups: dict[tuple, list[_Accumulator]] = {}
        for row in rows:
            key = tuple(fn(row) for fn in group_fns)
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = [make_accumulator(c) for c in aggregates]
                groups[key] = accumulators
            for accumulator, arg_fn in zip(accumulators, agg_arg_fns):
                accumulator.add(arg_fn(row) if arg_fn is not None else 1)

        if not groups and not node.group_by:
            # Aggregate over an empty input still yields one row.
            groups[()] = [make_accumulator(c) for c in aggregates]

        post_entries = [(None, f"__G{i}") for i in range(len(node.group_by))]
        post_entries += [(None, f"__A{j}") for j in range(len(aggregates))]
        post_scope = Scope(post_entries)

        post_resolver = self._resolver(post_scope)
        select_fns = [
            compile_scalar(expr, post_scope, self._params, post_resolver)
            for expr, _ in select_rewritten
        ]
        having_fn = (
            compile_scalar(
                having_rewritten, post_scope, self._params, post_resolver
            )
            if having_rewritten is not None
            else None
        )

        columns = [
            alias or expression_label(node.select_items[i].expression, i)
            for i, (_, alias) in enumerate(select_rewritten)
        ]
        out_rows: list[tuple] = []
        order_values: list[tuple] = []
        order_fns = [
            compile_scalar(o.expression, post_scope, self._params)
            for o in order_rewritten
        ]
        for key, accumulators in groups.items():
            post_row = key + tuple(a.result() for a in accumulators)
            if having_fn is not None and having_fn(post_row) is not True:
                continue
            out_rows.append(tuple(fn(post_row) for fn in select_fns))
            if order_fns:
                order_values.append(tuple(fn(post_row) for fn in order_fns))

        if order_fns:
            out_rows = _sort_with_precomputed(
                out_rows, order_values, [o.ascending for o in order_by]
            )
        return columns, out_rows

    # -- projection / ordering ----------------------------------------------------

    def _project(
        self,
        select_items: Sequence[ast.SelectItem],
        order_by: Sequence[ast.OrderItem],
        rows: Iterator[tuple],
        scope: Scope,
    ) -> tuple[list[str], list[tuple]]:
        columns: list[str] = []
        fns: list[Callable] = []
        position = 0
        for item in select_items:
            if isinstance(item.expression, ast.Star):
                for index in scope.star_indexes(item.expression.table):
                    columns.append(scope.entries[index][1])
                    fns.append(_make_picker(index))
                    position += 1
                continue
            fns.append(
                compile_scalar(
                    item.expression, scope, self._params, self._resolver(scope)
                )
            )
            columns.append(
                item.alias or expression_label(item.expression, position)
            )
            position += 1

        if not order_by:
            return columns, [tuple(fn(row) for fn in fns) for row in rows]

        # ORDER BY may reference input columns not in the select list
        # (pre-projection keys), select aliases, or 1-based output
        # positions (post-projection keys).
        alias_map = {
            item.alias: item.expression
            for item in select_items
            if item.alias is not None
        }
        key_plans: list[tuple[str, object]] = []  # ('out', idx)|('in', fn)
        for order in order_by:
            expr = order.expression
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                key_plans.append(
                    ("out", resolve_order_position(expr.value, len(columns)))
                )
                continue
            try:
                fn = compile_scalar(
                    expr, scope, self._params, self._resolver(scope)
                )
            except ParseError:
                if not (
                    isinstance(expr, ast.ColumnRef)
                    and expr.table is None
                    and expr.name in alias_map
                ):
                    raise
                fn = compile_scalar(
                    alias_map[expr.name],
                    scope,
                    self._params,
                    self._resolver(scope),
                )
            key_plans.append(("in", fn))

        materialised = list(rows)
        out = [tuple(fn(row) for fn in fns) for row in materialised]
        order_values = [
            tuple(
                out[i][plan[1]] if plan[0] == "out" else plan[1](row)
                for plan in key_plans
            )
            for i, row in enumerate(materialised)
        ]
        out = _sort_with_precomputed(
            out, order_values, [o.ascending for o in order_by]
        )
        return columns, out


def _resolvable(expr: ast.Expression, scope: Scope) -> bool:
    try:
        canonicalize(expr, scope)
        return True
    except ParseError:
        return False


def _canonicalize_aggregate(call: ast.FunctionCall, scope: Scope):
    parts: list[object] = [call.name, call.distinct]
    for arg in call.args:
        if isinstance(arg, ast.Star):
            parts.append("*")
        else:
            parts.append(canonicalize(arg, scope))
    return tuple(parts)


def _make_picker(index: int) -> Callable[[tuple], object]:
    return lambda row: row[index]
