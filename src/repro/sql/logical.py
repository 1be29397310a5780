"""Shared logical-plan layer: one planner feeding both executors.

A parsed statement is *bound* once into a small algebra (:class:`Scan`,
:class:`Filter`, :class:`Project`, :class:`Join`, :class:`Aggregate`,
:class:`Sort`, :class:`Limit`, :class:`SetOp`, :class:`SubqueryBind`) and
optionally rewritten by a rule pipeline — constant folding, predicate
pushdown through Project/Join into Scan, and projection pruning so scans
only materialise referenced columns. Both physical backends walk the same
tree: the DB2 engine interprets it row-at-a-time, the accelerator lowers
it to vectorised column kernels.

The rewriter is deliberately conservative: every rule preserves result
*bytes* (values and row order) for both backends, which the differential
fuzz suite checks by planning with rewrites on and off. Rules therefore
only fold expressions with the engines' exact runtime semantics
(``_SCALAR_BINARY_OPS``), only push subquery-free conjuncts, only push
into the null-preserved side of outer joins, and only resolve an
unqualified column name when exactly one binding of the join tree owns
it (``table_columns``; otherwise the conjunct stays where the executors
resolve — or reject — it).

This module also hosts the row-shaping helpers that were previously
duplicated (or triplicated) across the two executors: set-operation
combination, row dedup, LIMIT/OFFSET slicing, and output-scope ORDER BY.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from repro.errors import ParseError, SqlError
from repro.sql import ast
from repro.sql.expressions import (
    _SCALAR_BINARY_OPS,
    Scope,
    compile_scalar,
    expression_label,
)
from repro.sql.planning import (
    map_children,
    resolve_order_position,
    sort_rows_with_keys,
    split_conjuncts,
)

__all__ = [
    "PlanNode",
    "Scan",
    "SubqueryBind",
    "Join",
    "Filter",
    "Project",
    "Aggregate",
    "Sort",
    "Limit",
    "SetOp",
    "bind",
    "rewrite_plan",
    "plan_statement",
    "plan_shape",
    "dedup_rows",
    "slice_rows",
    "combine_set_rows",
    "order_rows_by_output",
]

# ---------------------------------------------------------------------------
# Plan nodes
# ---------------------------------------------------------------------------


class PlanNode:
    """Base class for logical operators (enables isinstance dispatch)."""

    __slots__ = ()


@dataclass(frozen=True)
class Scan(PlanNode):
    """Base-table scan.

    ``columns`` (when not None) is the set of column names the plan
    actually references — a backend may materialise only those (plus at
    least one, so row counts survive COUNT(*)-only plans). ``predicate``
    holds pushed-down subquery-free conjuncts; backends evaluate it
    against the scan scope and may additionally derive zone-map ranges
    from it.
    """

    table: str
    binding: str
    columns: Optional[tuple[str, ...]] = None
    predicate: Optional[ast.Expression] = None


@dataclass(frozen=True)
class SubqueryBind(PlanNode):
    """A derived table: the inner plan's output bound under ``alias``."""

    plan: PlanNode
    alias: str


@dataclass(frozen=True)
class Join(PlanNode):
    left: PlanNode
    right: PlanNode
    join_type: str  # INNER, LEFT, RIGHT, CROSS
    condition: Optional[ast.Expression]


@dataclass(frozen=True)
class Filter(PlanNode):
    child: PlanNode
    predicate: ast.Expression


@dataclass(frozen=True)
class Project(PlanNode):
    """Select-list evaluation. ``child is None`` is a constant SELECT."""

    child: Optional[PlanNode]
    select_items: tuple[ast.SelectItem, ...]
    distinct: bool = False


@dataclass(frozen=True)
class Aggregate(PlanNode):
    child: PlanNode
    select_items: tuple[ast.SelectItem, ...]
    group_by: tuple[ast.Expression, ...]
    having: Optional[ast.Expression]
    distinct: bool = False


@dataclass(frozen=True)
class Sort(PlanNode):
    child: PlanNode
    order_by: tuple[ast.OrderItem, ...]


@dataclass(frozen=True)
class Limit(PlanNode):
    child: PlanNode
    offset: Optional[int]
    limit: Optional[int]


@dataclass(frozen=True)
class SetOp(PlanNode):
    op: str  # UNION, UNION ALL, EXCEPT, INTERSECT
    left: PlanNode
    right: PlanNode


Statement = Union[ast.SelectStatement, ast.SetOperation]


# ---------------------------------------------------------------------------
# Binder: AST -> logical plan
# ---------------------------------------------------------------------------


def bind(stmt: Statement) -> PlanNode:
    """Build the logical plan for a parsed SELECT or set operation."""
    if isinstance(stmt, ast.SetOperation):
        node: PlanNode = SetOp(op=stmt.op, left=bind(stmt.left), right=bind(stmt.right))
        return _wrap_order_limit(node, stmt.order_by, stmt.offset, stmt.limit)
    if not isinstance(stmt, ast.SelectStatement):
        raise ParseError(f"cannot plan statement {type(stmt).__name__}")
    if stmt.from_item is None:
        # Constant SELECT: evaluated as a single row; ORDER BY / LIMIT /
        # DISTINCT are no-ops on it (matching the executors' behaviour).
        return Project(child=None, select_items=tuple(stmt.select_items))
    node = _bind_from(stmt.from_item)
    if stmt.where is not None:
        node = Filter(child=node, predicate=stmt.where)
    if stmt.group_by or stmt.is_aggregate_query:
        node = Aggregate(
            child=node,
            select_items=tuple(stmt.select_items),
            group_by=tuple(stmt.group_by),
            having=stmt.having,
            distinct=stmt.distinct,
        )
    else:
        if stmt.having is not None:
            raise ParseError("HAVING requires GROUP BY or aggregates")
        node = Project(
            child=node,
            select_items=tuple(stmt.select_items),
            distinct=stmt.distinct,
        )
    return _wrap_order_limit(node, stmt.order_by, stmt.offset, stmt.limit)


def _wrap_order_limit(node, order_by, offset, limit) -> PlanNode:
    if order_by:
        node = Sort(child=node, order_by=tuple(order_by))
    if limit is not None or offset is not None:
        node = Limit(child=node, offset=offset, limit=limit)
    return node


def _bind_from(item: ast.FromItem) -> PlanNode:
    if isinstance(item, ast.TableRef):
        return Scan(table=item.name, binding=item.binding)
    if isinstance(item, ast.SubquerySource):
        return SubqueryBind(plan=bind(item.query), alias=item.alias)
    if isinstance(item, ast.Join):
        return Join(
            left=_bind_from(item.left),
            right=_bind_from(item.right),
            join_type=item.join_type,
            condition=item.condition,
        )
    raise ParseError(f"unsupported FROM item {type(item).__name__}")


#: Table name -> its column names, or None when the table is unknown.
TableColumns = Optional[Callable[[str], Optional[Sequence[str]]]]


def plan_statement(
    stmt: Statement,
    rewrite: bool = True,
    table_rows: Optional[Callable[[str], Optional[int]]] = None,
    table_columns: TableColumns = None,
) -> PlanNode:
    """Bind ``stmt`` and (by default) run the rewrite pipeline.

    ``table_rows`` (table name -> estimated row count, None = unknown)
    enables the cost-based join re-association stage; the system passes
    a statistics-backed estimator here. ``table_columns`` (table name ->
    column names, None = unknown) lets pushdown and pruning resolve
    unqualified column references; the system passes the catalog.
    """
    plan = bind(stmt)
    if not rewrite:
        return plan
    return rewrite_plan(plan, table_rows=table_rows, table_columns=table_columns)


def rewrite_plan(
    plan: PlanNode,
    table_rows: Optional[Callable[[str], Optional[int]]] = None,
    table_columns: TableColumns = None,
) -> PlanNode:
    """Rule pipeline: constant folding -> predicate pushdown ->
    cost-based join re-association (when cardinalities are available)
    -> column pruning."""
    plan = _fold_node(plan)
    plan = _pushdown_node(plan, table_columns)
    if table_rows is not None:
        plan = _reorder_plan(plan, table_rows)
    plan = _prune_plan(plan, table_columns)
    return plan


def plan_shape(plan: PlanNode) -> str:
    """Compact plan rendering, e.g. ``Limit(Sort(Project(Scan[T])))``."""
    if isinstance(plan, Scan):
        cols = "" if plan.columns is None else f"({','.join(plan.columns)})"
        pred = "*" if plan.predicate is not None else ""
        return f"Scan[{plan.table}{cols}{pred}]"
    if isinstance(plan, SubqueryBind):
        return f"SubqueryBind[{plan.alias}]({plan_shape(plan.plan)})"
    if isinstance(plan, Join):
        return (
            f"Join[{plan.join_type}]"
            f"({plan_shape(plan.left)},{plan_shape(plan.right)})"
        )
    if isinstance(plan, Filter):
        return f"Filter({plan_shape(plan.child)})"
    if isinstance(plan, Project):
        child = plan_shape(plan.child) if plan.child is not None else ""
        return f"Project({child})"
    if isinstance(plan, Aggregate):
        return f"Aggregate({plan_shape(plan.child)})"
    if isinstance(plan, Sort):
        return f"Sort({plan_shape(plan.child)})"
    if isinstance(plan, Limit):
        return f"Limit({plan_shape(plan.child)})"
    if isinstance(plan, SetOp):
        return f"SetOp[{plan.op}]({plan_shape(plan.left)},{plan_shape(plan.right)})"
    return type(plan).__name__


# ---------------------------------------------------------------------------
# Rule 1: constant folding
# ---------------------------------------------------------------------------
#
# Only folds with the engines' exact runtime semantics: both-literal
# arithmetic/comparisons go through _SCALAR_BINARY_OPS (null-safe,
# DB2-truncating division), AND/OR folds only when runtime evaluation
# order could not observe a difference (left-side domination, or both
# sides literal). Division by a zero literal is left alone so the
# runtime error is preserved.


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_FOLDABLE_ARITH = ("+", "-", "*", "/")
_FOLDABLE_COMPARE = ("=", "<>", "<", "<=", ">", ">=")


def fold_constants(expr: ast.Expression) -> ast.Expression:
    """Bottom-up literal folding with runtime-identical semantics."""
    expr = map_children(expr, fold_constants)
    if isinstance(expr, ast.UnaryOp) and isinstance(expr.operand, ast.Literal):
        value = expr.operand.value
        if expr.op == "-" and _is_number(value):
            return ast.Literal(value=-value)
        if expr.op == "NOT" and (value is None or isinstance(value, bool)):
            return ast.Literal(value=None if value is None else not value)
    if not isinstance(expr, ast.BinaryOp):
        return expr
    left, right = expr.left, expr.right
    left_lit = isinstance(left, ast.Literal)
    right_lit = isinstance(right, ast.Literal)
    if expr.op == "AND":
        if left_lit and left.value is False:
            return ast.Literal(value=False)  # runtime short-circuits too
        if left_lit and right_lit:
            if left.value is False or right.value is False:
                return ast.Literal(value=False)
            if left.value is None or right.value is None:
                return ast.Literal(value=None)
            return ast.Literal(value=True)
        return expr
    if expr.op == "OR":
        if left_lit and left.value is True:
            return ast.Literal(value=True)  # runtime short-circuits too
        if left_lit and right_lit:
            if left.value is True or right.value is True:
                return ast.Literal(value=True)
            if left.value is None or right.value is None:
                return ast.Literal(value=None)
            return ast.Literal(value=False)
        return expr
    if not (left_lit and right_lit):
        return expr
    a, b = left.value, right.value
    if expr.op in _FOLDABLE_ARITH:
        if a is None or b is None:
            return ast.Literal(value=None)
        if not (_is_number(a) and _is_number(b)):
            return expr
        if expr.op == "/" and b == 0:
            return expr  # preserve the runtime division-by-zero error
        return ast.Literal(value=_SCALAR_BINARY_OPS[expr.op](a, b))
    if expr.op in _FOLDABLE_COMPARE:
        if a is None or b is None:
            return ast.Literal(value=None)
        if (_is_number(a) and _is_number(b)) or (
            isinstance(a, str) and isinstance(b, str)
        ):
            return ast.Literal(value=_SCALAR_BINARY_OPS[expr.op](a, b))
    return expr


def _fold_select_item(item: ast.SelectItem) -> ast.SelectItem:
    folded = fold_constants(item.expression)
    if folded is item.expression:
        return item
    return ast.SelectItem(expression=folded, alias=item.alias)


def _fold_order_item(item: ast.OrderItem) -> ast.OrderItem:
    folded = fold_constants(item.expression)
    if folded is item.expression:
        return item
    # An integer literal in ORDER BY is positional; folding must not turn
    # a computed expression (ORDER BY 1+1) into a position out of thin air.
    if (
        isinstance(folded, ast.Literal)
        and isinstance(folded.value, int)
        and not isinstance(item.expression, ast.Literal)
    ):
        return item
    return ast.OrderItem(expression=folded, ascending=item.ascending)


def _fold_node(node: PlanNode) -> PlanNode:
    if isinstance(node, Scan):
        if node.predicate is None:
            return node
        return dataclasses.replace(node, predicate=fold_constants(node.predicate))
    if isinstance(node, Filter):
        return dataclasses.replace(
            node,
            child=_fold_node(node.child),
            predicate=fold_constants(node.predicate),
        )
    if isinstance(node, Join):
        return dataclasses.replace(
            node,
            left=_fold_node(node.left),
            right=_fold_node(node.right),
            condition=fold_constants(node.condition)
            if node.condition is not None
            else None,
        )
    if isinstance(node, SubqueryBind):
        return dataclasses.replace(node, plan=_fold_node(node.plan))
    if isinstance(node, Project):
        return dataclasses.replace(
            node,
            child=_fold_node(node.child) if node.child is not None else None,
            select_items=tuple(_fold_select_item(i) for i in node.select_items),
        )
    if isinstance(node, Aggregate):
        return dataclasses.replace(
            node,
            child=_fold_node(node.child),
            select_items=tuple(_fold_select_item(i) for i in node.select_items),
            group_by=tuple(fold_constants(g) for g in node.group_by),
            having=fold_constants(node.having) if node.having is not None else None,
        )
    if isinstance(node, Sort):
        return dataclasses.replace(
            node,
            child=_fold_node(node.child),
            order_by=tuple(_fold_order_item(o) for o in node.order_by),
        )
    if isinstance(node, Limit):
        return dataclasses.replace(node, child=_fold_node(node.child))
    if isinstance(node, SetOp):
        return dataclasses.replace(
            node, left=_fold_node(node.left), right=_fold_node(node.right)
        )
    return node


# ---------------------------------------------------------------------------
# Rule 2: predicate pushdown
# ---------------------------------------------------------------------------


def _contains_subquery(expr: ast.Expression) -> bool:
    return any(isinstance(n, ast.SubqueryExpression) for n in expr.walk())


def _and_all(conjuncts: Sequence[ast.Expression]) -> ast.Expression:
    combined = conjuncts[0]
    for part in conjuncts[1:]:
        combined = ast.BinaryOp(op="AND", left=combined, right=part)
    return combined


def _bindings_of(node: PlanNode) -> Optional[set]:
    """Binding names a plan subtree exposes (None = not a from-subtree)."""
    if isinstance(node, Scan):
        return {node.binding}
    if isinstance(node, SubqueryBind):
        return {node.alias}
    if isinstance(node, Join):
        left = _bindings_of(node.left)
        right = _bindings_of(node.right)
        if left is None or right is None:
            return None
        return left | right
    if isinstance(node, Filter):
        return _bindings_of(node.child)
    return None


def _qualified_bindings(expr: ast.Expression) -> Optional[set]:
    """Bindings referenced by ``expr``; None if any ref is unqualified."""
    bindings: set = set()
    for node in expr.walk():
        if isinstance(node, ast.ColumnRef):
            if node.table is None:
                return None
            bindings.add(node.table)
        elif isinstance(node, ast.Star):
            return None
    return bindings


def _leaf_columns(node: PlanNode, table_columns) -> Optional[list[tuple]]:
    """``(binding, column names)`` per leaf of a from-subtree, in scope
    order; None when any leaf's columns are unknown."""
    if isinstance(node, Scan):
        names = table_columns(node.table)
        return None if names is None else [(node.binding, names)]
    if isinstance(node, SubqueryBind):
        names = _output_labels(node.plan, table_columns)
        return None if names is None else [(node.alias, names)]
    if isinstance(node, Filter):
        return _leaf_columns(node.child, table_columns)
    if isinstance(node, Join):
        left = _leaf_columns(node.left, table_columns)
        right = _leaf_columns(node.right, table_columns)
        return None if left is None or right is None else left + right
    return None


def _output_labels(plan: PlanNode, table_columns) -> Optional[list[str]]:
    """Output column labels of a derived table's plan; None when unknown."""
    while isinstance(plan, (Sort, Limit)):
        plan = plan.child
    if isinstance(plan, SetOp):
        return _output_labels(plan.left, table_columns)
    if not isinstance(plan, (Project, Aggregate)):
        return None
    labels: list[str] = []
    for item in plan.select_items:
        if isinstance(item.expression, ast.Star):
            leaves = (
                _leaf_columns(plan.child, table_columns)
                if plan.child is not None
                else None
            )
            if leaves is None:
                return None
            wanted = item.expression.table
            for binding, names in leaves:
                if wanted is None or binding == wanted:
                    labels.extend(names)
        else:
            labels.append(
                item.alias or expression_label(item.expression, len(labels))
            )
    return labels


def _column_owners(node: PlanNode, table_columns) -> Optional[dict[str, list]]:
    """Column name -> the bindings of ``node``'s join tree exposing it
    (one entry per exposure), or None when an unqualified name cannot be
    resolved against the tree: no schema source, a leaf with unknown
    columns, or two leaves sharing a binding name."""
    if table_columns is None:
        return None
    leaves = _leaf_columns(node, table_columns)
    if leaves is None or len({binding for binding, _ in leaves}) < len(leaves):
        return None
    owners: dict[str, list] = {}
    for binding, names in leaves:
        for name in names:
            owners.setdefault(name, []).append(binding)
    return owners


def _qualify(
    conjunct: ast.Expression, owners: dict[str, list]
) -> Optional[ast.Expression]:
    """``conjunct`` with every unqualified column reference qualified by
    the one binding that owns the name; None when some name has no owner
    (a correlated outer reference, or a typo) or several (ambiguous) —
    the conjunct then stays where the executors resolve, or reject, it."""
    failed = False

    def qualify(expr: ast.Expression) -> ast.Expression:
        nonlocal failed
        if isinstance(expr, ast.ColumnRef):
            if expr.table is not None:
                return expr
            bindings = owners.get(expr.name, ())
            if len(bindings) != 1:
                failed = True
                return expr
            return dataclasses.replace(expr, table=bindings[0])
        if isinstance(expr, ast.Star):
            failed = True
            return expr
        return map_children(expr, qualify)

    qualified = qualify(conjunct)
    return None if failed else qualified


def _pushdown_node(node: PlanNode, table_columns: TableColumns) -> PlanNode:
    def recurse(child: PlanNode) -> PlanNode:
        return _pushdown_node(child, table_columns)

    if isinstance(node, Filter):
        conjuncts = [
            c
            for c in split_conjuncts(node.predicate)
            if not (isinstance(c, ast.Literal) and c.value is True)
        ]
        child, leftover = _distribute(node.child, conjuncts, table_columns)
        child = recurse(child)
        if leftover:
            return Filter(child=child, predicate=_and_all(leftover))
        return child
    if isinstance(node, (Sort, Limit)):
        return dataclasses.replace(node, child=recurse(node.child))
    if isinstance(node, Project):
        if node.child is None:
            return node
        return dataclasses.replace(node, child=recurse(node.child))
    if isinstance(node, Aggregate):
        return dataclasses.replace(node, child=recurse(node.child))
    if isinstance(node, Join):
        return dataclasses.replace(
            node, left=recurse(node.left), right=recurse(node.right)
        )
    if isinstance(node, SubqueryBind):
        return dataclasses.replace(node, plan=recurse(node.plan))
    if isinstance(node, SetOp):
        return dataclasses.replace(
            node, left=recurse(node.left), right=recurse(node.right)
        )
    return node


def _distribute(
    node: PlanNode, conjuncts: list[ast.Expression], table_columns: TableColumns
) -> tuple[PlanNode, list[ast.Expression]]:
    """Sink ``conjuncts`` into ``node``; returns (child, kept-above)."""
    if not conjuncts:
        return node, []
    if isinstance(node, Filter):
        # Merge stacked filters and distribute the union.
        merged = split_conjuncts(node.predicate) + conjuncts
        return _distribute(node.child, merged, table_columns)
    if isinstance(node, Scan):
        absorbed = [c for c in conjuncts if not _contains_subquery(c)]
        leftover = [c for c in conjuncts if _contains_subquery(c)]
        if not absorbed:
            return node, leftover
        existing = [node.predicate] if node.predicate is not None else []
        predicate = _and_all(existing + absorbed)
        return dataclasses.replace(node, predicate=predicate), leftover
    if isinstance(node, Join):
        return _distribute_join(node, conjuncts, table_columns)
    if isinstance(node, SubqueryBind):
        return _distribute_subquery(node, conjuncts)
    return node, conjuncts


def _distribute_join(
    join: Join, conjuncts: list[ast.Expression], table_columns: TableColumns
) -> tuple[PlanNode, list[ast.Expression]]:
    # A conjunct may sink into the side whose rows the join preserves:
    # filtering the null-padded side before the join would turn padded
    # rows back into matches (or vice versa) and change the result.
    push_left_ok = join.join_type in ("INNER", "LEFT", "CROSS")
    push_right_ok = join.join_type in ("INNER", "RIGHT", "CROSS")
    left_bindings = _bindings_of(join.left)
    right_bindings = _bindings_of(join.right)
    owners = _column_owners(join, table_columns)
    to_left: list[ast.Expression] = []
    to_right: list[ast.Expression] = []
    leftover: list[ast.Expression] = []
    for conjunct in conjuncts:
        if _contains_subquery(conjunct):
            leftover.append(conjunct)
            continue
        # Only the copy that sinks is qualified: a conjunct that stays
        # above the join keeps its text, and its errors.
        pushed = conjunct
        referenced = _qualified_bindings(pushed)
        if referenced is None and owners is not None:
            pushed = _qualify(conjunct, owners)
            referenced = None if pushed is None else _qualified_bindings(pushed)
        if referenced is None:
            leftover.append(conjunct)
        elif push_left_ok and left_bindings is not None and referenced <= left_bindings:
            to_left.append(pushed)
        elif (
            push_right_ok
            and right_bindings is not None
            and referenced <= right_bindings
        ):
            to_right.append(pushed)
        else:
            leftover.append(conjunct)
    left, right = join.left, join.right
    if to_left:
        left = Filter(child=left, predicate=_and_all(to_left))
    if to_right:
        right = Filter(child=right, predicate=_and_all(to_right))
    if to_left or to_right:
        join = dataclasses.replace(join, left=left, right=right)
    return join, leftover


def _subquery_output_map(node: SubqueryBind) -> Optional[tuple]:
    """(sort, project, label->expr map) for a pushable derived table.

    Pushdown through a derived table substitutes output labels with the
    inner select-list expressions and inserts the filter below the inner
    Project. Only plain projections qualify: Limit blocks (the filter
    would change which rows the limit keeps), Aggregate blocks (outputs
    are group-level), Star / subquery items and duplicate labels block
    (no unambiguous substitution).
    """
    inner = node.plan
    sort = None
    if isinstance(inner, Sort):
        sort = inner
        inner = inner.child
    if not isinstance(inner, Project) or inner.child is None:
        return None
    mapping: dict[str, ast.Expression] = {}
    for position, item in enumerate(inner.select_items):
        if isinstance(item.expression, ast.Star):
            return None
        if _contains_subquery(item.expression):
            return None
        label = item.alias or expression_label(item.expression, position)
        if label in mapping:
            return None  # duplicate output label: substitution ambiguous
        mapping[label] = item.expression
    return sort, inner, mapping


def _distribute_subquery(
    node: SubqueryBind, conjuncts: list[ast.Expression]
) -> tuple[PlanNode, list[ast.Expression]]:
    prepared = _subquery_output_map(node)
    if prepared is None:
        return node, conjuncts
    sort, project, mapping = prepared
    pushed: list[ast.Expression] = []
    leftover: list[ast.Expression] = []
    for conjunct in conjuncts:
        translated = _translate_into_subquery(conjunct, node.alias, mapping)
        if translated is None:
            leftover.append(conjunct)
        else:
            pushed.append(translated)
    if not pushed:
        return node, leftover
    child = Filter(child=project.child, predicate=_and_all(pushed))
    inner: PlanNode = dataclasses.replace(project, child=child)
    if sort is not None:
        inner = dataclasses.replace(sort, child=inner)
    return dataclasses.replace(node, plan=inner), leftover


def _translate_into_subquery(
    conjunct: ast.Expression, alias: str, mapping: dict[str, ast.Expression]
) -> Optional[ast.Expression]:
    """Rewrite output-column refs to inner expressions, or None to bail."""
    if _contains_subquery(conjunct):
        return None

    failed = False

    def substitute(expr: ast.Expression) -> ast.Expression:
        nonlocal failed
        if isinstance(expr, ast.ColumnRef):
            if expr.table is not None and expr.table != alias:
                failed = True
                return expr
            inner = mapping.get(expr.name)
            if inner is None:
                failed = True
                return expr
            return inner
        if isinstance(expr, ast.Star):
            failed = True
            return expr
        return map_children(expr, substitute)

    translated = substitute(conjunct)
    return None if failed else translated


# ---------------------------------------------------------------------------
# Cost-based join re-association
# ---------------------------------------------------------------------------
#
# Re-parenthesises maximal INNER/CROSS join regions using estimated leaf
# cardinalities. The leaf sequence keeps its written (left-to-right)
# order: both executors emit inner/cross join rows in lexicographic
# left-major order, so any re-association over a fixed leaf order is
# byte-identical — the differential fuzz suite pins this. ON-clause
# conjuncts re-attach at the lowest join whose span covers their
# bindings. The stage bails (keeps the written shape) on anything it
# cannot reason about: subquery or unqualified conjuncts, conjuncts
# confined to a single leaf, leaves without binding sets, and unknown
# leaf cardinalities.

_REORDERABLE = ("INNER", "CROSS")

#: Per-conjunct damping applied to leaf estimates for pushed-down scan
#: predicates; mirrors the profiler's fixed 1/3 selectivity default.
_LEAF_FILTER_DAMP = 3


def _reorder_plan(
    node: PlanNode, table_rows: Callable[[str], Optional[int]]
) -> PlanNode:
    if isinstance(node, Join):
        if node.join_type in _REORDERABLE:
            return _reorder_region(node, table_rows)
        return dataclasses.replace(
            node,
            left=_reorder_plan(node.left, table_rows),
            right=_reorder_plan(node.right, table_rows),
        )
    if isinstance(node, (Filter, Sort, Limit)):
        return dataclasses.replace(node, child=_reorder_plan(node.child, table_rows))
    if isinstance(node, Project):
        if node.child is None:
            return node
        return dataclasses.replace(node, child=_reorder_plan(node.child, table_rows))
    if isinstance(node, Aggregate):
        return dataclasses.replace(node, child=_reorder_plan(node.child, table_rows))
    if isinstance(node, SubqueryBind):
        return dataclasses.replace(node, plan=_reorder_plan(node.plan, table_rows))
    if isinstance(node, SetOp):
        return dataclasses.replace(
            node,
            left=_reorder_plan(node.left, table_rows),
            right=_reorder_plan(node.right, table_rows),
        )
    return node


def _gather_region(
    node: PlanNode, leaves: list, conjuncts: list
) -> None:
    """Flatten a maximal INNER/CROSS join region into leaves + conjuncts."""
    if isinstance(node, Join) and node.join_type in _REORDERABLE:
        _gather_region(node.left, leaves, conjuncts)
        _gather_region(node.right, leaves, conjuncts)
        if node.condition is not None:
            conjuncts.extend(split_conjuncts(node.condition))
    else:
        leaves.append(node)


def _leaf_estimate(
    leaf: PlanNode, table_rows: Callable[[str], Optional[int]]
) -> Optional[int]:
    """Row estimate for a region leaf; None when unknown (forces a bail)."""
    if isinstance(leaf, Filter):
        rows = _leaf_estimate(leaf.child, table_rows)
        if rows is None:
            return None
        for _ in split_conjuncts(leaf.predicate):
            rows = max(1, rows // _LEAF_FILTER_DAMP) if rows else 0
        return rows
    if isinstance(leaf, Scan):
        rows = table_rows(leaf.table)
        if rows is None or rows < 0:
            return None
        if leaf.predicate is not None:
            for _ in split_conjuncts(leaf.predicate):
                rows = max(1, rows // _LEAF_FILTER_DAMP) if rows else 0
        return rows
    return None


def _reorder_region(
    join: Join, table_rows: Callable[[str], Optional[int]]
) -> PlanNode:
    leaves: list[PlanNode] = []
    conjuncts: list[ast.Expression] = []
    _gather_region(join, leaves, conjuncts)
    new_leaves = [_reorder_plan(leaf, table_rows) for leaf in leaves]

    def keep_shape(node: PlanNode, it) -> PlanNode:
        if isinstance(node, Join) and node.join_type in _REORDERABLE:
            left = keep_shape(node.left, it)
            right = keep_shape(node.right, it)
            return dataclasses.replace(node, left=left, right=right)
        return next(it)

    def fallback() -> PlanNode:
        return keep_shape(join, iter(new_leaves))

    n = len(leaves)
    if n < 3:
        return fallback()
    sizes = [_leaf_estimate(leaf, table_rows) for leaf in leaves]
    if any(size is None for size in sizes):
        return fallback()
    leaf_bindings = [_bindings_of(leaf) for leaf in leaves]
    if any(b is None for b in leaf_bindings):
        return fallback()
    seen: set = set()
    for bindings in leaf_bindings:
        if bindings & seen:
            return fallback()  # duplicate binding names: spans are ambiguous
        seen |= bindings
    cond_bindings: list[set] = []
    for conjunct in conjuncts:
        if _contains_subquery(conjunct):
            return fallback()
        referenced = _qualified_bindings(conjunct)
        if referenced is None or not referenced:
            return fallback()
        if any(referenced <= bindings for bindings in leaf_bindings):
            # Confined to one leaf: has no lowest *join* to attach to.
            return fallback()
        cond_bindings.append(referenced)

    # span[i][j]: union of binding names exposed by leaves i..j.
    span = [[set() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        acc: set = set()
        for j in range(i, n):
            acc = acc | leaf_bindings[j]
            span[i][j] = acc

    def join_rows(l_rows: int, r_rows: int, left_span: set, right_span: set) -> int:
        both = left_span | right_span
        for referenced in cond_bindings:
            if referenced <= both and referenced & left_span and referenced & right_span:
                return max(l_rows, r_rows)
        return l_rows * r_rows

    # Optimal re-parenthesisation over contiguous intervals (O(n^3) DP).
    # Cost of a join = rows consumed from both sides plus rows produced.
    rows_tbl = [[0] * n for _ in range(n)]
    cost_tbl = [[0.0] * n for _ in range(n)]
    split_tbl = [[0] * n for _ in range(n)]
    for i in range(n):
        rows_tbl[i][i] = sizes[i]
    for length in range(2, n + 1):
        for i in range(0, n - length + 1):
            j = i + length - 1
            best_cost = float("inf")
            best_rows = 0
            best_k = i
            for k in range(i, j):
                l_rows, r_rows = rows_tbl[i][k], rows_tbl[k + 1][j]
                out = join_rows(l_rows, r_rows, span[i][k], span[k + 1][j])
                cost = cost_tbl[i][k] + cost_tbl[k + 1][j] + l_rows + r_rows + out
                if cost < best_cost:
                    best_cost, best_rows, best_k = cost, out, k
            cost_tbl[i][j] = best_cost
            rows_tbl[i][j] = best_rows
            split_tbl[i][j] = best_k

    # Cost the written shape with the same model; only rebuild on a win.
    counter = {"next": 0}

    def shape_cost(node: PlanNode):
        if isinstance(node, Join) and node.join_type in _REORDERABLE:
            li, lj, l_rows, l_cost = shape_cost(node.left)
            ri, rj, r_rows, r_cost = shape_cost(node.right)
            out = join_rows(l_rows, r_rows, span[li][lj], span[ri][rj])
            return li, rj, out, l_cost + r_cost + l_rows + r_rows + out
        index = counter["next"]
        counter["next"] += 1
        return index, index, sizes[index], 0.0

    _, _, _, original_cost = shape_cost(join)
    if cost_tbl[0][n - 1] >= original_cost:
        return fallback()

    remaining = list(range(len(conjuncts)))

    def build(i: int, j: int) -> PlanNode:
        if i == j:
            return new_leaves[i]
        k = split_tbl[i][j]
        here: list[int] = []
        for index in list(remaining):
            referenced = cond_bindings[index]
            if (
                referenced <= span[i][j]
                and not referenced <= span[i][k]
                and not referenced <= span[k + 1][j]
            ):
                here.append(index)
                remaining.remove(index)
        left = build(i, k)
        right = build(k + 1, j)
        if here:
            condition = _and_all([conjuncts[index] for index in here])
            return Join(left=left, right=right, join_type="INNER", condition=condition)
        return Join(left=left, right=right, join_type="CROSS", condition=None)

    rebuilt = build(0, n - 1)
    if remaining:  # pragma: no cover - every multi-leaf conjunct attaches
        return fallback()
    return rebuilt


# ---------------------------------------------------------------------------
# Rule 3: projection pruning
# ---------------------------------------------------------------------------
#
# One SELECT unit at a time (derived tables and set-operation branches
# are their own units), collect every column reference the unit's
# expressions make — including those inside scalar subqueries, which may
# be correlated against this unit's tables — and restrict each Scan to
# the referenced names. Unqualified references are added to every scan
# whose table has (or may have) a column of that name, so
# scope-ambiguity errors are preserved; any `*` wildcard that could
# expand a scan's columns disables pruning for the affected bindings.


class _Refs:
    __slots__ = ("by_binding", "unqualified", "wildcard_all", "wild_bindings")

    def __init__(self) -> None:
        self.by_binding: dict[str, set] = {}
        self.unqualified: set = set()
        self.wildcard_all = False
        self.wild_bindings: set = set()


def _prune_plan(node: PlanNode, table_columns: TableColumns) -> PlanNode:
    def recurse(child: PlanNode) -> PlanNode:
        return _prune_plan(child, table_columns)

    if isinstance(node, Limit) or (
        isinstance(node, Sort) and isinstance(node.child, SetOp)
    ):
        return dataclasses.replace(node, child=recurse(node.child))
    if isinstance(node, SetOp):
        return dataclasses.replace(
            node, left=recurse(node.left), right=recurse(node.right)
        )
    refs = _Refs()
    _collect_unit(node, refs)
    return _apply_prune(node, refs, table_columns)


def _collect_unit(node: PlanNode, refs: _Refs) -> None:
    if isinstance(node, Sort):
        for order in node.order_by:
            _collect_expr(order.expression, refs, None)
        _collect_unit(node.child, refs)
    elif isinstance(node, (Project, Aggregate)):
        for item in node.select_items:
            _collect_expr(item.expression, refs, None)
        if isinstance(node, Aggregate):
            for group in node.group_by:
                _collect_expr(group, refs, None)
            if node.having is not None:
                _collect_expr(node.having, refs, None)
        if getattr(node, "child", None) is not None:
            _collect_unit(node.child, refs)
    elif isinstance(node, Filter):
        _collect_expr(node.predicate, refs, None)
        _collect_unit(node.child, refs)
    elif isinstance(node, Join):
        if node.condition is not None:
            _collect_expr(node.condition, refs, None)
        _collect_unit(node.left, refs)
        _collect_unit(node.right, refs)
    elif isinstance(node, Scan):
        if node.predicate is not None:
            _collect_expr(node.predicate, refs, None)
    elif isinstance(node, SubqueryBind):
        pass  # separate unit; pruned in _apply_prune
    elif isinstance(node, (Limit, SetOp)):  # pragma: no cover - defensive
        refs.wildcard_all = True


def _collect_expr(expr: ast.Expression, refs: _Refs, star_scope) -> None:
    """Record column refs; ``star_scope`` names the bindings a bare `*`
    can expand (None while inside the unit itself)."""
    if isinstance(expr, ast.ColumnRef):
        if expr.table is not None:
            refs.by_binding.setdefault(expr.table, set()).add(expr.name)
        else:
            refs.unqualified.add(expr.name)
        return
    if isinstance(expr, ast.Star):
        if expr.table is not None:
            refs.wild_bindings.add(expr.table)
        elif star_scope is None:
            refs.wildcard_all = True
        else:
            refs.wild_bindings.update(star_scope)
        return
    if isinstance(expr, ast.FunctionCall):
        for arg in expr.args:
            if isinstance(arg, ast.Star):
                continue  # COUNT(*) reads no particular column
            _collect_expr(arg, refs, star_scope)
        return
    if isinstance(expr, ast.SubqueryExpression):
        _collect_statement(expr.query, refs)
        if expr.operand is not None:
            _collect_expr(expr.operand, refs, star_scope)
        return

    def visit(child: ast.Expression) -> ast.Expression:
        _collect_expr(child, refs, star_scope)
        return child

    map_children(expr, visit)


def _collect_statement(stmt: Statement, refs: _Refs) -> None:
    """Collect refs of a nested (sub)query AST, conservatively attributing
    them to the enclosing unit: correlated refs must keep their outer
    columns alive, and a name collision only widens a scan."""
    if isinstance(stmt, ast.SetOperation):
        _collect_statement(stmt.left, refs)
        _collect_statement(stmt.right, refs)
        for order in stmt.order_by:
            _collect_expr(order.expression, refs, set())
        return
    own = _binding_names(stmt.from_item)
    for expr in stmt.iter_expressions():
        _collect_expr(expr, refs, own)
    _collect_from_ast(stmt.from_item, refs)


def _binding_names(item: Optional[ast.FromItem]) -> set:
    if item is None:
        return set()
    if isinstance(item, (ast.TableRef, ast.SubquerySource)):
        return {item.binding}
    if isinstance(item, ast.Join):
        return _binding_names(item.left) | _binding_names(item.right)
    return set()


def _collect_from_ast(item: Optional[ast.FromItem], refs: _Refs) -> None:
    if isinstance(item, ast.SubquerySource):
        _collect_statement(item.query, refs)
    elif isinstance(item, ast.Join):
        _collect_from_ast(item.left, refs)
        _collect_from_ast(item.right, refs)


def _apply_prune(
    node: PlanNode, refs: _Refs, table_columns: TableColumns
) -> PlanNode:
    def recurse(child: PlanNode) -> PlanNode:
        return _apply_prune(child, refs, table_columns)

    if isinstance(node, Scan):
        if refs.wildcard_all or node.binding in refs.wild_bindings:
            return node
        wanted = refs.by_binding.get(node.binding, set()) | refs.unqualified
        # An unqualified name is credited to every scan; with the schema
        # known, each scan keeps only the names it can actually serve.
        owned = table_columns(node.table) if table_columns is not None else None
        if owned is not None:
            wanted = wanted.intersection(owned)
        return dataclasses.replace(node, columns=tuple(sorted(wanted)))
    if isinstance(node, SubqueryBind):
        return dataclasses.replace(
            node, plan=_prune_plan(node.plan, table_columns)
        )
    if isinstance(node, (Filter, Sort, Aggregate)):
        return dataclasses.replace(node, child=recurse(node.child))
    if isinstance(node, Join):
        return dataclasses.replace(
            node, left=recurse(node.left), right=recurse(node.right)
        )
    if isinstance(node, Project):
        if node.child is None:
            return node
        return dataclasses.replace(node, child=recurse(node.child))
    return node


# ---------------------------------------------------------------------------
# Shared row helpers (used by both physical backends)
# ---------------------------------------------------------------------------


def dedup_rows(rows: list[tuple]) -> list[tuple]:
    """First-occurrence-order row dedup (DISTINCT / set-op semantics)."""
    seen: set = set()
    out: list[tuple] = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            out.append(row)
    return out


def slice_rows(
    rows: list[tuple], offset: Optional[int], limit: Optional[int]
) -> list[tuple]:
    """Apply LIMIT/OFFSET to materialised rows."""
    start = offset or 0
    if limit is None:
        return rows[start:] if start else rows
    return rows[start : start + limit]


def combine_set_rows(
    op: str,
    left_cols: list[str],
    left_rows: list[tuple],
    right_cols: list[str],
    right_rows: list[tuple],
) -> list[tuple]:
    """UNION [ALL] / EXCEPT / INTERSECT row combination."""
    if len(left_cols) != len(right_cols):
        raise SqlError("set operation operands have different widths")
    if op == "UNION ALL":
        return left_rows + right_rows
    if op == "UNION":
        return dedup_rows(left_rows + right_rows)
    if op == "EXCEPT":
        right_set = set(right_rows)
        return dedup_rows([r for r in left_rows if r not in right_set])
    if op == "INTERSECT":
        right_set = set(right_rows)
        return dedup_rows([r for r in left_rows if r in right_set])
    raise ParseError(f"unknown set operation {op}")


def order_rows_by_output(
    columns: list[str],
    rows: list[tuple],
    order_by: Sequence[ast.OrderItem],
    params: Sequence[object] = (),
) -> list[tuple]:
    """ORDER BY over an output row set (set operations): keys may be
    output columns by name or 1-based position."""
    scope = Scope([(None, name) for name in columns])
    fns = []
    for order in order_by:
        expr = order.expression
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            index = resolve_order_position(expr.value, len(columns))
            expr = ast.ColumnRef(name=columns[index])
        fns.append(compile_scalar(expr, scope, params))
    keys = [tuple(fn(row) for fn in fns) for row in rows]
    return sort_rows_with_keys(rows, keys, [o.ascending for o in order_by])
