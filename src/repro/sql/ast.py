"""Abstract syntax tree for the SQL dialect.

Nodes are plain frozen-ish dataclasses; the parser builds them and both
engines consume them. Expression nodes implement ``walk()`` so analyses
(column resolution, offload eligibility, referenced-table discovery) stay
generic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from repro.sql.types import SqlType

__all__ = [
    "Expression",
    "Literal",
    "ColumnRef",
    "Star",
    "Parameter",
    "BinaryOp",
    "UnaryOp",
    "FunctionCall",
    "CaseExpression",
    "CaseBranch",
    "InList",
    "Between",
    "IsNull",
    "Like",
    "Cast",
    "Predict",
    "SubqueryExpression",
    "Statement",
    "SelectItem",
    "TableRef",
    "SubquerySource",
    "Join",
    "FromItem",
    "OrderItem",
    "SelectStatement",
    "SetOperation",
    "query_blocks",
    "ColumnDef",
    "CreateTableStatement",
    "DropTableStatement",
    "CreateViewStatement",
    "DropViewStatement",
    "InsertStatement",
    "UpdateStatement",
    "DeleteStatement",
    "GrantStatement",
    "RevokeStatement",
    "CallStatement",
    "SetStatement",
    "ExplainStatement",
    "CommitStatement",
    "RollbackStatement",
    "BeginStatement",
    "AGGREGATE_FUNCTIONS",
]

#: Function names treated as aggregates by the planners.
AGGREGATE_FUNCTIONS = frozenset(
    {"COUNT", "SUM", "AVG", "MIN", "MAX", "STDDEV", "VARIANCE"}
)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expression:
    """Base class for expression nodes."""

    def walk(self) -> Iterator["Expression"]:
        """Yield this node and all nested expression nodes, depth-first."""
        yield self

    def contains_aggregate(self) -> bool:
        return any(
            isinstance(node, FunctionCall) and node.is_aggregate
            for node in self.walk()
        )


@dataclass
class Literal(Expression):
    value: object  # int, float, Decimal, str, bool, or None


@dataclass
class ColumnRef(Expression):
    """A (possibly qualified) column reference, e.g. ``T.AMOUNT``."""

    name: str
    table: Optional[str] = None

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass
class Star(Expression):
    """``*`` or ``T.*`` in a select list or COUNT(*)."""

    table: Optional[str] = None


@dataclass
class Parameter(Expression):
    """Positional ``?`` parameter; ``index`` is assigned left-to-right."""

    index: int


@dataclass
class BinaryOp(Expression):
    op: str  # one of + - * / % = <> < <= > >= AND OR ||
    left: Expression
    right: Expression

    def walk(self) -> Iterator[Expression]:
        yield self
        yield from self.left.walk()
        yield from self.right.walk()


@dataclass
class UnaryOp(Expression):
    op: str  # '-' or 'NOT'
    operand: Expression

    def walk(self) -> Iterator[Expression]:
        yield self
        yield from self.operand.walk()


@dataclass
class FunctionCall(Expression):
    name: str
    args: list[Expression]
    distinct: bool = False

    @property
    def is_aggregate(self) -> bool:
        return self.name in AGGREGATE_FUNCTIONS

    def walk(self) -> Iterator[Expression]:
        yield self
        for arg in self.args:
            yield from arg.walk()


@dataclass
class CaseBranch:
    condition: Expression
    result: Expression


@dataclass
class CaseExpression(Expression):
    """Searched CASE: ``CASE WHEN cond THEN expr ... ELSE expr END``."""

    branches: list[CaseBranch]
    default: Optional[Expression] = None

    def walk(self) -> Iterator[Expression]:
        yield self
        for branch in self.branches:
            yield from branch.condition.walk()
            yield from branch.result.walk()
        if self.default is not None:
            yield from self.default.walk()


@dataclass
class InList(Expression):
    operand: Expression
    items: list[Expression]
    negated: bool = False

    def walk(self) -> Iterator[Expression]:
        yield self
        yield from self.operand.walk()
        for item in self.items:
            yield from item.walk()


@dataclass
class Between(Expression):
    operand: Expression
    lower: Expression
    upper: Expression
    negated: bool = False

    def walk(self) -> Iterator[Expression]:
        yield self
        yield from self.operand.walk()
        yield from self.lower.walk()
        yield from self.upper.walk()


@dataclass
class IsNull(Expression):
    operand: Expression
    negated: bool = False

    def walk(self) -> Iterator[Expression]:
        yield self
        yield from self.operand.walk()


@dataclass
class Like(Expression):
    operand: Expression
    pattern: Expression
    negated: bool = False

    def walk(self) -> Iterator[Expression]:
        yield self
        yield from self.operand.walk()
        yield from self.pattern.walk()


@dataclass
class Cast(Expression):
    operand: Expression
    target_type: SqlType

    def walk(self) -> Iterator[Expression]:
        yield self
        yield from self.operand.walk()


@dataclass
class Predict(Expression):
    """``PREDICT(model, feature, ...)`` — in-kernel scoring of a stored model.

    The feature expressions are positional against the model's trained
    feature list. ``store`` is bound by the session layer before
    planning (the system's :class:`~repro.analytics.model_store.ModelStore`);
    it is excluded from comparison/repr so plans still compare
    structurally and the plan cache stays text-keyed.
    """

    model: str
    args: list[Expression]
    store: Optional[object] = field(default=None, compare=False, repr=False)

    def walk(self) -> Iterator[Expression]:
        yield self
        for arg in self.args:
            yield from arg.walk()


@dataclass
class SubqueryExpression(Expression):
    """Scalar or IN-subquery appearing inside an expression."""

    query: "SelectStatement"
    # 'scalar' (single value), 'in' (operand IN (subquery)), 'exists'
    kind: str = "scalar"
    operand: Optional[Expression] = None
    negated: bool = False

    def walk(self) -> Iterator[Expression]:
        yield self
        if self.operand is not None:
            yield from self.operand.walk()


# ---------------------------------------------------------------------------
# FROM clause items
# ---------------------------------------------------------------------------


@dataclass
class TableRef:
    """A base-table reference with optional alias."""

    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        """Name under which this table's columns are visible."""
        return self.alias or self.name


@dataclass
class SubquerySource:
    """A derived table: ``(SELECT ...) AS alias``."""

    query: "SelectStatement"
    alias: str

    @property
    def binding(self) -> str:
        return self.alias


@dataclass
class Join:
    left: "FromItem"
    right: "FromItem"
    join_type: str  # INNER, LEFT, RIGHT, CROSS
    condition: Optional[Expression] = None


FromItem = Union[TableRef, SubquerySource, Join]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Statement:
    """Base class for statements."""


@dataclass
class SelectItem:
    expression: Expression
    alias: Optional[str] = None


@dataclass
class OrderItem:
    expression: Expression
    ascending: bool = True


@dataclass
class SelectStatement(Statement):
    select_items: list[SelectItem]
    from_item: Optional[FromItem] = None
    where: Optional[Expression] = None
    group_by: list[Expression] = field(default_factory=list)
    having: Optional[Expression] = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False

    def referenced_tables(self) -> list[str]:
        """Names of all base tables referenced anywhere in the query."""
        names: list[str] = []
        _collect_tables(self.from_item, names)
        for expr in self.iter_expressions():
            for node in expr.walk():
                if isinstance(node, SubqueryExpression):
                    names.extend(node.query.referenced_tables())
        return names

    def iter_expressions(self) -> Iterator[Expression]:
        for item in self.select_items:
            yield item.expression
        if self.where is not None:
            yield self.where
        yield from self.group_by
        if self.having is not None:
            yield self.having
        for order in self.order_by:
            yield order.expression
        yield from _join_conditions(self.from_item)

    @property
    def is_aggregate_query(self) -> bool:
        if self.group_by:
            return True
        return any(
            item.expression.contains_aggregate() for item in self.select_items
        )


def _collect_tables(item: Optional[FromItem], out: list[str]) -> None:
    if item is None:
        return
    if isinstance(item, TableRef):
        out.append(item.name)
    elif isinstance(item, SubquerySource):
        out.extend(item.query.referenced_tables())
    elif isinstance(item, Join):
        _collect_tables(item.left, out)
        _collect_tables(item.right, out)


def _join_conditions(item: Optional[FromItem]) -> Iterator[Expression]:
    if isinstance(item, Join):
        if item.condition is not None:
            yield item.condition
        yield from _join_conditions(item.left)
        yield from _join_conditions(item.right)


def _from_queries(item: Optional[FromItem]) -> Iterator["SelectStatement"]:
    if isinstance(item, SubquerySource):
        yield item.query
    elif isinstance(item, Join):
        yield from _from_queries(item.left)
        yield from _from_queries(item.right)


@dataclass
class SetOperation(Statement):
    """UNION / UNION ALL / EXCEPT / INTERSECT of two selects.

    A trailing ORDER BY / LIMIT applies to the combined result and may
    only reference output columns (by name or 1-based position).
    """

    op: str  # UNION, UNION ALL, EXCEPT, INTERSECT
    left: Union[SelectStatement, "SetOperation"]
    right: Union[SelectStatement, "SetOperation"]
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    offset: Optional[int] = None

    def referenced_tables(self) -> list[str]:
        return self.left.referenced_tables() + self.right.referenced_tables()


def query_blocks(stmt: Statement) -> Iterator[tuple[Statement, list[Expression]]]:
    """Every query block of a statement — each SELECT and set operation,
    nested ones too, and a DML statement itself — with the expressions
    that are its own (a nested block's come with that block).

    A block comes before the blocks nested in its expressions (in their
    order), and those before the ones in its FROM clause or, for INSERT,
    its sub-select."""
    if isinstance(stmt, SetOperation):
        yield stmt, []
        yield from query_blocks(stmt.left)
        yield from query_blocks(stmt.right)
        return
    if isinstance(stmt, SelectStatement):
        exprs = list(stmt.iter_expressions())
        nested = list(_from_queries(stmt.from_item))
    elif isinstance(stmt, InsertStatement):
        exprs = [expr for row in stmt.values or () for expr in row]
        nested = [stmt.select] if stmt.select is not None else []
    else:  # UPDATE / DELETE
        exprs = [expr for __, expr in getattr(stmt, "assignments", ())]
        if stmt.where is not None:
            exprs.append(stmt.where)
        nested = []
    yield stmt, exprs
    for expr in exprs:
        for node in expr.walk():
            if isinstance(node, SubqueryExpression):
                yield from query_blocks(node.query)
    for query in nested:
        yield from query_blocks(query)


@dataclass
class ColumnDef:
    name: str
    sql_type: SqlType
    nullable: bool = True
    primary_key: bool = False
    default: Optional[Expression] = None


@dataclass
class CreateTableStatement(Statement):
    name: str
    columns: list[ColumnDef]
    in_accelerator: bool = False  # the paper's IN ACCELERATOR clause
    distribute_on: Optional[list[str]] = None  # DISTRIBUTE BY HASH(cols)
    if_not_exists: bool = False
    as_select: Optional[SelectStatement] = None  # CREATE TABLE ... AS (SELECT)


@dataclass
class DropTableStatement(Statement):
    name: str
    if_exists: bool = False


@dataclass
class AlterTableDistribute(Statement):
    """``ALTER TABLE t ACCELERATE DISTRIBUTE BY HASH(c,…)|RANGE(c)|RANDOM``.

    Declares (or changes) how the table's rows spread over the
    accelerator pool's shards. RANGE boundaries are not part of the
    statement — they are computed from data quantiles at execution time.
    """

    table: str
    method: str  # HASH / RANGE / RANDOM
    columns: list[str] = field(default_factory=list)


@dataclass
class CreateViewStatement(Statement):
    """``CREATE VIEW name AS (SELECT ...)`` — a DB2 catalog object."""

    name: str
    query: SelectStatement


@dataclass
class DropViewStatement(Statement):
    name: str
    if_exists: bool = False


@dataclass
class InsertStatement(Statement):
    table: str
    columns: Optional[list[str]]  # None means full-width positional
    values: Optional[list[list[Expression]]] = None  # VALUES rows
    select: Optional[Union[SelectStatement, SetOperation]] = None


@dataclass
class UpdateStatement(Statement):
    table: str
    assignments: list[tuple[str, Expression]]
    where: Optional[Expression] = None


@dataclass
class DeleteStatement(Statement):
    table: str
    where: Optional[Expression] = None


@dataclass
class GrantStatement(Statement):
    privileges: list[str]  # SELECT/INSERT/UPDATE/DELETE/EXECUTE/LOAD or ALL
    object_type: str  # 'TABLE' or 'PROCEDURE'
    object_name: str
    grantee: str


@dataclass
class RevokeStatement(Statement):
    privileges: list[str]
    object_type: str
    object_name: str
    grantee: str


@dataclass
class CallStatement(Statement):
    """``CALL schema.procedure('key=value, ...')`` — the INZA convention."""

    procedure: str
    arguments: list[Expression] = field(default_factory=list)


@dataclass
class ExplainStatement(Statement):
    """``EXPLAIN [ANALYZE] <statement>`` — routing + logical plan; with
    ANALYZE the statement executes and the annotated per-operator plan
    (actual vs. estimated rows, Q-error, wall time) is returned."""

    statement: Statement
    analyze: bool = False


@dataclass
class SetStatement(Statement):
    """``SET <register> = <value>`` (special registers only)."""

    register: str  # e.g. 'CURRENT QUERY ACCELERATION'
    value: str


@dataclass
class CommitStatement(Statement):
    pass


@dataclass
class RollbackStatement(Statement):
    pass


@dataclass
class BeginStatement(Statement):
    pass
