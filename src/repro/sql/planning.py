"""Planner utilities shared by the DB2 and accelerator executors.

Both engines compile the same AST; this module holds the engine-neutral
analyses: canonicalisation for GROUP BY matching, conjunct splitting,
scope-containment tests, ORDER BY alias/position resolution, and the SQL
NULLs-high sort helper.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence, Union

from repro.errors import ParseError
from repro.sql import ast
from repro.sql.expressions import Scope

__all__ = [
    "canonicalize",
    "map_children",
    "split_conjuncts",
    "references_only",
    "positional_order_expression",
    "resolve_order_position",
    "NullsHighKey",
    "sort_rows_with_keys",
    "extract_column_ranges",
    "literal_number",
]


def canonicalize(expr: ast.Expression, scope: Scope) -> ast.Expression:
    """Rewrite column refs to scope positions so exprs compare structurally.

    ``T.AMOUNT`` and ``AMOUNT`` (when unambiguous) canonicalise to the same
    node, which makes GROUP BY expression matching reliable.
    """

    def transform(node: ast.Expression) -> ast.Expression:
        if isinstance(node, ast.ColumnRef):
            index = scope.resolve(node.name, node.table)
            return ast.ColumnRef(name=f"#{index}")
        return map_children(node, transform)

    return transform(expr)


def map_children(
    expr: ast.Expression, fn: Callable[[ast.Expression], ast.Expression]
) -> ast.Expression:
    """Rebuild ``expr`` with ``fn`` applied to each child expression."""
    if isinstance(expr, ast.BinaryOp):
        return dataclasses.replace(expr, left=fn(expr.left), right=fn(expr.right))
    if isinstance(expr, ast.UnaryOp):
        return dataclasses.replace(expr, operand=fn(expr.operand))
    if isinstance(expr, ast.FunctionCall):
        return dataclasses.replace(expr, args=[fn(a) for a in expr.args])
    if isinstance(expr, ast.CaseExpression):
        return dataclasses.replace(
            expr,
            branches=[
                ast.CaseBranch(condition=fn(b.condition), result=fn(b.result))
                for b in expr.branches
            ],
            default=fn(expr.default) if expr.default is not None else None,
        )
    if isinstance(expr, ast.InList):
        return dataclasses.replace(
            expr, operand=fn(expr.operand), items=[fn(i) for i in expr.items]
        )
    if isinstance(expr, ast.Between):
        return dataclasses.replace(
            expr,
            operand=fn(expr.operand),
            lower=fn(expr.lower),
            upper=fn(expr.upper),
        )
    if isinstance(expr, ast.IsNull):
        return dataclasses.replace(expr, operand=fn(expr.operand))
    if isinstance(expr, ast.Like):
        return dataclasses.replace(
            expr, operand=fn(expr.operand), pattern=fn(expr.pattern)
        )
    if isinstance(expr, ast.Cast):
        return dataclasses.replace(expr, operand=fn(expr.operand))
    if isinstance(expr, ast.Predict):
        return dataclasses.replace(expr, args=[fn(a) for a in expr.args])
    if isinstance(expr, ast.SubqueryExpression) and expr.operand is not None:
        return dataclasses.replace(expr, operand=fn(expr.operand))
    return expr


def split_conjuncts(expr: Optional[ast.Expression]) -> list[ast.Expression]:
    """Flatten a predicate into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def references_only(expr: ast.Expression, scope: Scope) -> bool:
    """True when every column ref in ``expr`` resolves inside ``scope``."""
    for node in expr.walk():
        if isinstance(node, ast.ColumnRef):
            try:
                scope.resolve(node.name, node.table)
            except ParseError:
                return False
        elif isinstance(node, ast.Star):
            return False
    return True


def resolve_order_position(position: int, width: int) -> int:
    """Validate ORDER BY <n> against ``width`` outputs; returns 0-based.

    The single source of the range error so both engines report it
    identically.
    """
    if not 1 <= position <= width:
        raise ParseError(f"ORDER BY position {position} is out of range")
    return position - 1


def positional_order_expression(
    select_items: list[ast.SelectItem], position: int
) -> ast.Expression:
    """ORDER BY <n>: the n-th (1-based) select-list expression."""
    return select_items[resolve_order_position(position, len(select_items))].expression


class NullsHighKey:
    """Sort key wrapper: SQL NULLs sort high (DB2 default)."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __lt__(self, other: "NullsHighKey") -> bool:
        if self.value is None:
            return False
        if other.value is None:
            return True
        return self.value < other.value

    def __eq__(self, other) -> bool:  # pragma: no cover - sorts use __lt__
        return self.value == other.value


def sort_rows_with_keys(
    rows: list[tuple],
    keys: list[tuple],
    ascending: list[bool],
) -> list[tuple]:
    """Stable multi-key sort of ``rows`` by precomputed ``keys``."""
    indexes = list(range(len(rows)))
    for position in reversed(range(len(ascending))):
        indexes.sort(
            key=lambda i: NullsHighKey(keys[i][position]),
            reverse=not ascending[position],
        )
    return [rows[i] for i in indexes]


def extract_column_ranges(
    where: Optional[ast.Expression],
    scope: Scope,
    binding_columns: dict[int, str],
    params: Sequence[object] = (),
) -> dict[str, tuple[Optional[Union[int, float]], Optional[Union[int, float]]]]:
    """Derive per-column [low, high] bounds from simple WHERE conjuncts.

    Used for zone-map pruning: only conjuncts of the shape
    ``col <op> numeric-literal`` (or BETWEEN literals) contribute; a
    ``?`` marker counts as the literal ``params`` binds it to.
    ``binding_columns`` maps scope positions to the scanned table's column
    names, so only the scanned table's predicates are extracted. Integer
    literals are kept as Python ints — rounding them to float64 would
    shift bounds at |v| >= 2**53 and let the zone maps prune chunks that
    actually contain matching rows.
    """
    ranges: dict[str, tuple[Optional[Union[int, float]], Optional[Union[int, float]]]] = {}
    if where is None:
        return ranges

    def note(column: str, low, high) -> None:
        old_low, old_high = ranges.get(column, (None, None))
        if low is not None and (old_low is None or low > old_low):
            old_low = low
        if high is not None and (old_high is None or high < old_high):
            old_high = high
        ranges[column] = (old_low, old_high)

    for conjunct in split_conjuncts(where):
        if isinstance(conjunct, ast.Between) and not conjunct.negated:
            column = _bound_column(conjunct.operand, scope, binding_columns)
            low = literal_number(conjunct.lower, params)
            high = literal_number(conjunct.upper, params)
            if column is not None and (low is not None or high is not None):
                note(column, low, high)
            continue
        if not isinstance(conjunct, ast.BinaryOp):
            continue
        op = conjunct.op
        if op not in ("=", "<", "<=", ">", ">="):
            continue
        for column_side, literal_side, flipped in (
            (conjunct.left, conjunct.right, False),
            (conjunct.right, conjunct.left, True),
        ):
            column = _bound_column(column_side, scope, binding_columns)
            value = literal_number(literal_side, params)
            if column is None or value is None:
                continue
            effective = op
            if flipped and op in ("<", "<=", ">", ">="):
                effective = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
            if effective == "=":
                note(column, value, value)
            elif effective in (">", ">="):
                note(column, value, None)
            else:
                note(column, None, value)
            break
    return ranges


def _bound_column(
    expr: ast.Expression,
    scope: Scope,
    binding_columns: dict[int, str],
) -> Optional[str]:
    if not isinstance(expr, ast.ColumnRef):
        return None
    try:
        index = scope.resolve(expr.name, expr.table)
    except ParseError:
        return None
    return binding_columns.get(index)


def literal_number(
    expr: ast.Expression, params: Sequence[object] = ()
) -> Optional[Union[int, float]]:
    """Numeric value of a (possibly negated) literal or bound ``?``
    marker, else None.

    Shared by zone-map range extraction and the statistics module's
    predicate-selectivity analysis, so a statement estimates and prunes
    alike whether its constants are literals or parameters.
    """
    negate = isinstance(expr, ast.UnaryOp) and expr.op == "-"
    if negate:
        expr = expr.operand
    if isinstance(expr, ast.Literal):
        value = expr.value
    elif isinstance(expr, ast.Parameter) and expr.index < len(params):
        value = params[expr.index]
    else:
        return None
    if not isinstance(value, (int, float)):
        return None
    # Integer literals stay Python ints: float64 cannot represent every
    # int64, and a rounded bound over-prunes at the 2**53 boundary.
    if not isinstance(value, int):
        value = float(value)
    return -value if negate else value
