"""Expression compilation for both engines.

The same AST is compiled two ways:

* :func:`compile_scalar` produces a Python closure evaluated once per row —
  this is the DB2 engine's interpreted, row-at-a-time model;
* :func:`compile_vector` produces a closure evaluated once per column batch
  (numpy arrays + null masks) — this is the accelerator's vectorised model.

Column references are resolved against a :class:`Scope` at compile time, so
per-row evaluation does no name lookups. NULL handling follows SQL
three-valued logic (Kleene AND/OR, NULL-propagating arithmetic and
comparisons).
"""

from __future__ import annotations

import datetime
import math
import re
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import ParseError, SqlError
from repro.sql import ast
from repro.sql.types import DATE, TIMESTAMP

__all__ = [
    "Scope",
    "VColumn",
    "compile_scalar",
    "concat_columns",
    "compile_vector",
    "SCALAR_FUNCTIONS",
    "expression_label",
]


class Scope:
    """Compile-time name resolution table.

    A scope is an ordered list of ``(binding, column_name)`` pairs, where
    ``binding`` is the table alias (or table name) the column is visible
    under, or ``None`` for synthetic columns (aggregate outputs).
    """

    def __init__(self, entries: Sequence[tuple[Optional[str], str]]) -> None:
        self.entries = list(entries)
        self._by_qualified: dict[tuple[str, str], int] = {}
        self._by_name: dict[str, list[int]] = {}
        for index, (binding, name) in enumerate(self.entries):
            if binding is not None:
                self._by_qualified.setdefault((binding, name), index)
            self._by_name.setdefault(name, []).append(index)

    def __len__(self) -> int:
        return len(self.entries)

    def resolve(self, name: str, table: Optional[str] = None) -> int:
        """Return the value index for a column reference.

        Raises :class:`ParseError` for unknown or ambiguous references.
        """
        if table is not None:
            index = self._by_qualified.get((table, name))
            if index is None:
                raise ParseError(f"unknown column {table}.{name}")
            return index
        candidates = self._by_name.get(name)
        if not candidates:
            raise ParseError(f"unknown column {name}")
        if len(candidates) > 1:
            raise ParseError(f"ambiguous column reference {name}")
        return candidates[0]

    def star_indexes(self, table: Optional[str] = None) -> list[int]:
        """Indexes expanded by ``*`` or ``table.*``."""
        if table is None:
            return list(range(len(self.entries)))
        indexes = [
            i for i, (binding, _) in enumerate(self.entries) if binding == table
        ]
        if not indexes:
            raise ParseError(f"unknown table alias {table}")
        return indexes

    def column_names(self) -> list[str]:
        return [name for _, name in self.entries]


# ---------------------------------------------------------------------------
# Scalar function registry (row-at-a-time semantics; NULL-propagating unless
# noted). Vector evaluation reuses these through an element-wise fallback and
# overrides hot numeric functions with true numpy kernels.
# ---------------------------------------------------------------------------


def _substr(value: str, start: int, length: Optional[int] = None) -> str:
    begin = max(0, int(start) - 1)  # SQL SUBSTR is 1-based
    if length is None:
        return value[begin:]
    return value[begin : begin + int(length)]


def _round(value, digits=0):
    return round(float(value), int(digits))


SCALAR_FUNCTIONS: dict[str, Callable] = {
    "ABS": abs,
    "SIGN": lambda x: (x > 0) - (x < 0),
    "ROUND": _round,
    "FLOOR": lambda x: math.floor(float(x)),
    "CEIL": lambda x: math.ceil(float(x)),
    "CEILING": lambda x: math.ceil(float(x)),
    "SQRT": lambda x: math.sqrt(float(x)),
    "LN": lambda x: math.log(float(x)),
    "LOG10": lambda x: math.log10(float(x)),
    "EXP": lambda x: math.exp(float(x)),
    "POWER": lambda x, y: float(x) ** float(y),
    "MOD": lambda x, y: x % y,
    "UPPER": lambda s: s.upper(),
    "LOWER": lambda s: s.lower(),
    "LENGTH": lambda s: len(s),
    "SUBSTR": _substr,
    "SUBSTRING": _substr,
    "TRIM": lambda s: s.strip(),
    "LTRIM": lambda s: s.lstrip(),
    "RTRIM": lambda s: s.rstrip(),
    "REPLACE": lambda s, a, b: s.replace(a, b),
    "CONCAT": lambda a, b: str(a) + str(b),
    "YEAR": lambda d: d.year,
    "MONTH": lambda d: d.month,
    "DAY": lambda d: d.day,
}

#: Numpy kernels for hot numeric functions (vector path fast lane).
_VECTOR_KERNELS: dict[str, Callable] = {
    "ABS": np.abs,
    "SQRT": np.sqrt,
    "LN": np.log,
    "LOG10": np.log10,
    "EXP": np.exp,
    "FLOOR": np.floor,
    "CEIL": np.ceil,
    "CEILING": np.ceil,
}


def _like_to_regex(pattern: str) -> re.Pattern:
    parts: list[str] = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("^" + "".join(parts) + "$", re.DOTALL)


# ---------------------------------------------------------------------------
# Scalar compilation
# ---------------------------------------------------------------------------

#: Engine-provided subquery executor: ``resolver(query, outer_row)`` with
#: memoisation inside the engine (see repro.sql.correlation). Resolvers
#: may expose ``is_correlated(query)`` so the vector path can keep its
#: evaluate-once fast path for uncorrelated subqueries.
SubqueryResolver = Callable[[ast.SelectStatement, Sequence], list[tuple]]


def compile_scalar(
    expr: ast.Expression,
    scope: Scope,
    params: Sequence[object] = (),
    subquery_resolver: Optional[SubqueryResolver] = None,
) -> Callable[[Sequence[object]], object]:
    """Compile an expression into ``row -> value``.

    ``row`` is indexed by the positions :class:`Scope` assigned.
    Subqueries are executed through ``subquery_resolver`` (which receives
    the current row so correlated subqueries can bind their outer
    references; see :mod:`repro.sql.correlation`).
    """
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda row: value

    if isinstance(expr, ast.Parameter):
        if expr.index >= len(params):
            raise SqlError(f"missing value for parameter {expr.index + 1}")
        bound = params[expr.index]
        return lambda row: bound

    if isinstance(expr, ast.ColumnRef):
        index = scope.resolve(expr.name, expr.table)
        return lambda row: row[index]

    if isinstance(expr, ast.Star):
        raise ParseError("'*' is only valid in a select list or COUNT(*)")

    if isinstance(expr, ast.UnaryOp):
        operand = compile_scalar(expr.operand, scope, params, subquery_resolver)
        if expr.op == "-":
            return lambda row: None if (v := operand(row)) is None else -v
        if expr.op == "NOT":
            def _not(row):
                value = operand(row)
                return None if value is None else not value

            return _not
        raise ParseError(f"unknown unary operator {expr.op}")

    if isinstance(expr, ast.BinaryOp):
        return _compile_scalar_binary(expr, scope, params, subquery_resolver)

    if isinstance(expr, ast.FunctionCall):
        return _compile_scalar_function(expr, scope, params, subquery_resolver)

    if isinstance(expr, ast.CaseExpression):
        branches = [
            (
                compile_scalar(b.condition, scope, params, subquery_resolver),
                compile_scalar(b.result, scope, params, subquery_resolver),
            )
            for b in expr.branches
        ]
        default = (
            compile_scalar(expr.default, scope, params, subquery_resolver)
            if expr.default is not None
            else None
        )

        def _case(row):
            for condition, result in branches:
                if condition(row):
                    return result(row)
            return default(row) if default is not None else None

        return _case

    if isinstance(expr, ast.InList):
        operand = compile_scalar(expr.operand, scope, params, subquery_resolver)
        items = [
            compile_scalar(item, scope, params, subquery_resolver)
            for item in expr.items
        ]
        negated = expr.negated

        def _in(row):
            value = operand(row)
            if value is None:
                return None
            found = any(item(row) == value for item in items)
            return (not found) if negated else found

        return _in

    if isinstance(expr, ast.Between):
        operand = compile_scalar(expr.operand, scope, params, subquery_resolver)
        lower = compile_scalar(expr.lower, scope, params, subquery_resolver)
        upper = compile_scalar(expr.upper, scope, params, subquery_resolver)
        negated = expr.negated
        at_most = compare_scalar_values["<="]

        def _between(row):
            value = operand(row)
            if value is None:
                return None
            result = at_most(lower(row), value) and at_most(value, upper(row))
            return (not result) if negated else result

        return _between

    if isinstance(expr, ast.IsNull):
        operand = compile_scalar(expr.operand, scope, params, subquery_resolver)
        negated = expr.negated
        return lambda row: (operand(row) is not None) if negated else (
            operand(row) is None
        )

    if isinstance(expr, ast.Like):
        operand = compile_scalar(expr.operand, scope, params, subquery_resolver)
        pattern_fn = compile_scalar(expr.pattern, scope, params, subquery_resolver)
        negated = expr.negated
        cache: dict[str, re.Pattern] = {}

        def _like(row):
            value = operand(row)
            if value is None:
                return None
            pattern = pattern_fn(row)
            if pattern is None:
                return None
            regex = cache.get(pattern)
            if regex is None:
                regex = _like_to_regex(pattern)
                cache[pattern] = regex
            matched = regex.match(value) is not None
            return (not matched) if negated else matched

        return _like

    if isinstance(expr, ast.Cast):
        operand = compile_scalar(expr.operand, scope, params, subquery_resolver)
        target = expr.target_type
        return lambda row: target.coerce(operand(row))

    if isinstance(expr, ast.SubqueryExpression):
        return _compile_scalar_subquery(expr, scope, params, subquery_resolver)

    if isinstance(expr, ast.Predict):
        arg_fns = [
            compile_scalar(arg, scope, params, subquery_resolver)
            for arg in expr.args
        ]
        get_scorer = _predict_scorer(expr)

        def _predict_row(row):
            values = [fn(row) for fn in arg_fns]
            if any(v is None for v in values):
                return None
            try:
                matrix = np.array([[float(v) for v in values]], dtype=np.float64)
            except (TypeError, ValueError):
                raise SqlError(
                    f"PREDICT({expr.model}, ...) features must be numeric"
                ) from None
            value = get_scorer().score(matrix)[0]
            return value.item() if isinstance(value, np.generic) else value

        return _predict_row

    raise ParseError(f"unsupported expression: {type(expr).__name__}")


def _predict_scorer(expr: "ast.Predict"):
    """Per-kernel scorer cache for a bound PREDICT node.

    The scorer is rebuilt whenever the stored model's generation moves,
    so a kernel that outlives a retrain scores with the new model.
    The analytics import is deferred: ``repro.analytics`` imports the SQL
    package, so a top-level import here would be circular.
    """
    cache: dict[str, object] = {}

    def get_scorer():
        store = expr.store
        if store is None:
            raise SqlError(
                f"PREDICT({expr.model}, ...) is not bound to a model store"
            )
        model = store.get(expr.model)
        if cache.get("generation") != model.generation:
            from repro.analytics import scoring

            cache["scorer"] = scoring.build_scorer(model)
            cache["generation"] = model.generation
        return cache["scorer"]

    return get_scorer


def _null_safe(fn):
    def wrapper(a, b):
        if a is None or b is None:
            return None
        return fn(a, b)

    return wrapper


def _scalar_divide(a, b):
    if b == 0:
        raise SqlError("division by zero")
    if isinstance(a, int) and isinstance(b, int):
        # DB2 integer division truncates toward zero.
        quotient = abs(a) // abs(b)
        return quotient if (a >= 0) == (b >= 0) else -quotient
    return a / b


def _temporal_type(value):
    """The SQL type a string is coerced to when compared with ``value``."""
    if isinstance(value, datetime.datetime):
        return TIMESTAMP
    if isinstance(value, datetime.date):
        return DATE
    return None


def _coerce_comparable(a, b):
    """Make a value pair comparable; string literals against temporal
    values are parsed the way DB2 coerces them."""
    if isinstance(b, str):
        sql_type = _temporal_type(a)
        if sql_type is not None:
            return a, sql_type.coerce(b)
    elif isinstance(a, str):
        sql_type = _temporal_type(b)
        if sql_type is not None:
            return sql_type.coerce(a), b
    return a, b


def _comparison(fn):
    def compare(a, b):
        a, b = _coerce_comparable(a, b)
        return fn(a, b)

    return compare


compare_scalar_values = {
    "=": _comparison(lambda a, b: a == b),
    "<>": _comparison(lambda a, b: a != b),
    "<": _comparison(lambda a, b: a < b),
    "<=": _comparison(lambda a, b: a <= b),
    ">": _comparison(lambda a, b: a > b),
    ">=": _comparison(lambda a, b: a >= b),
}

_SCALAR_BINARY_OPS = {
    "+": _null_safe(lambda a, b: a + b),
    "-": _null_safe(lambda a, b: a - b),
    "*": _null_safe(lambda a, b: a * b),
    "/": _null_safe(_scalar_divide),
    "%": _null_safe(lambda a, b: a % b),
    "=": _null_safe(compare_scalar_values["="]),
    "<>": _null_safe(compare_scalar_values["<>"]),
    "<": _null_safe(compare_scalar_values["<"]),
    "<=": _null_safe(compare_scalar_values["<="]),
    ">": _null_safe(compare_scalar_values[">"]),
    ">=": _null_safe(compare_scalar_values[">="]),
    "||": _null_safe(lambda a, b: str(a) + str(b)),
}


def _compile_scalar_binary(expr, scope, params, subquery_resolver):
    left = compile_scalar(expr.left, scope, params, subquery_resolver)
    right = compile_scalar(expr.right, scope, params, subquery_resolver)
    if expr.op == "AND":
        def _and(row):
            a = left(row)
            if a is False:
                return False
            b = right(row)
            if b is False:
                return False
            if a is None or b is None:
                return None
            return True

        return _and
    if expr.op == "OR":
        def _or(row):
            a = left(row)
            if a is True:
                return True
            b = right(row)
            if b is True:
                return True
            if a is None or b is None:
                return None
            return False

        return _or
    op = _SCALAR_BINARY_OPS.get(expr.op)
    if op is None:
        raise ParseError(f"unknown operator {expr.op}")
    return lambda row: op(left(row), right(row))


def _compile_scalar_function(expr, scope, params, subquery_resolver):
    name = expr.name
    if name == "COALESCE":
        args = [
            compile_scalar(a, scope, params, subquery_resolver) for a in expr.args
        ]

        def _coalesce(row):
            for arg in args:
                value = arg(row)
                if value is not None:
                    return value
            return None

        return _coalesce
    if name == "NULLIF":
        if len(expr.args) != 2:
            raise ParseError("NULLIF takes exactly two arguments")
        first = compile_scalar(expr.args[0], scope, params, subquery_resolver)
        second = compile_scalar(expr.args[1], scope, params, subquery_resolver)

        def _nullif(row):
            a = first(row)
            return None if a == second(row) else a

        return _nullif
    if name in ast.AGGREGATE_FUNCTIONS:
        raise ParseError(
            f"aggregate {name} is not allowed in this context"
        )
    fn = SCALAR_FUNCTIONS.get(name)
    if fn is None:
        raise ParseError(f"unknown function {name}")
    args = [compile_scalar(a, scope, params, subquery_resolver) for a in expr.args]

    def _call(row):
        values = [arg(row) for arg in args]
        if any(v is None for v in values):
            return None
        return fn(*values)

    return _call


def _compile_scalar_subquery(expr, scope, params, subquery_resolver):
    if subquery_resolver is None:
        raise ParseError("subqueries are not supported in this context")
    # Memoisation lives in the resolver (per correlation key); here we
    # only cache derived membership sets per result-list identity.
    set_cache: dict[int, tuple[list, set]] = {}

    if expr.kind == "scalar":
        def _scalar(row):
            rows = subquery_resolver(expr.query, row)
            if not rows:
                return None
            if len(rows) > 1:
                raise SqlError("scalar subquery returned more than one row")
            return rows[0][0]

        return _scalar
    if expr.kind == "exists":
        negated = expr.negated

        def _exists(row):
            rows = subquery_resolver(expr.query, row)
            return (not rows) if negated else bool(rows)

        return _exists
    if expr.kind == "in":
        operand = compile_scalar(expr.operand, scope, params, subquery_resolver)
        negated = expr.negated

        def _in(row):
            value = operand(row)
            if value is None:
                return None
            rows = subquery_resolver(expr.query, row)
            cached = set_cache.get(id(rows))
            if cached is None or cached[0] is not rows:
                cached = (rows, {r[0] for r in rows})
                set_cache[id(rows)] = cached
            found = value in cached[1]
            return (not found) if negated else found

        return _in
    raise ParseError(f"unsupported subquery kind {expr.kind}")


# ---------------------------------------------------------------------------
# Vector compilation
# ---------------------------------------------------------------------------


@dataclass
class VColumn:
    """A vector of values plus an optional NULL mask (True = NULL).

    ``codes`` is an optional ``(codes, bound)`` pair riding along with the
    values: int64 codes below ``bound`` that are equal where the values
    are equal and order as the values do, NULL highest — what
    ``repro.accelerator.vtable.column_codes`` computes, kept when it was
    computed on a smaller column this one was gathered from.
    """

    values: np.ndarray
    mask: Optional[np.ndarray] = None
    codes: Optional[tuple[np.ndarray, int]] = None

    def __len__(self) -> int:
        return len(self.values)

    @property
    def is_numeric(self) -> bool:
        return self.values.dtype.kind in "ifb"

    def null_mask(self) -> np.ndarray:
        if self.mask is None:
            return np.zeros(len(self.values), dtype=bool)
        return self.mask

    def take(self, indexes: np.ndarray) -> "VColumn":
        """The entries at ``indexes`` (positions or a boolean mask)."""
        codes = self.codes
        return VColumn(
            values=self.values[indexes],
            mask=None if self.mask is None else self.mask[indexes],
            codes=None if codes is None else (codes[0][indexes], codes[1]),
        )

    def to_objects(self) -> list[object]:
        """Materialise as a Python list with ``None`` for NULLs."""
        values = self.values.tolist()
        if self.mask is None:
            return values
        return [None if m else v for v, m in zip(values, self.mask)]

    @staticmethod
    def from_objects(items: Sequence[object]) -> "VColumn":
        """Build a typed column from Python values (loader/test helper)."""
        mask = np.array([item is None for item in items], dtype=bool)
        has_nulls = bool(mask.any())
        non_null = [item for item in items if item is not None]
        if not non_null:
            # All-NULL: keep a numeric carrier so arithmetic kernels work.
            return VColumn(
                values=np.zeros(len(items), dtype=np.float64),
                mask=mask if has_nulls else None,
            )
        if non_null and all(isinstance(v, bool) for v in non_null):
            values = np.array(
                [bool(v) if v is not None else False for v in items], dtype=bool
            )
        elif non_null and all(
            isinstance(v, int) and not isinstance(v, bool) for v in non_null
        ):
            values = np.array(
                [int(v) if v is not None else 0 for v in items], dtype=np.int64
            )
        elif non_null and all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in non_null
        ):
            values = np.array(
                [float(v) if v is not None else np.nan for v in items],
                dtype=np.float64,
            )
        else:
            values = np.array(items, dtype=object)
        return VColumn(values=values, mask=mask if has_nulls else None)


def concat_columns(parts: Sequence[VColumn]) -> VColumn:
    """``parts`` end to end, boxed to objects when their dtypes differ;
    the mask is None when no entry is NULL. One part comes back as is."""
    if len(parts) == 1:
        return parts[0]
    values = [part.values for part in parts]
    if len({v.dtype for v in values}) > 1:
        values = [v.astype(object) for v in values]
    mask = None
    if any(part.mask is not None for part in parts):
        merged = np.concatenate([part.null_mask() for part in parts])
        mask = merged if merged.any() else None
    return VColumn(values=np.concatenate(values), mask=mask)


def _broadcast_literal(value, length: int) -> VColumn:
    if value is None:
        return VColumn(
            values=np.zeros(length, dtype=np.float64),
            mask=np.ones(length, dtype=bool),
        )
    if isinstance(value, bool):
        return VColumn(values=np.full(length, value, dtype=bool))
    if isinstance(value, int):
        return VColumn(values=np.full(length, value, dtype=np.int64))
    if isinstance(value, float):
        return VColumn(values=np.full(length, value, dtype=np.float64))
    out = np.empty(length, dtype=object)
    out[:] = value
    return VColumn(values=out)


def _combine_masks(a: Optional[np.ndarray], b: Optional[np.ndarray]):
    if a is None:
        return b
    if b is None:
        return a
    return a | b


def compile_vector(
    expr: ast.Expression,
    scope: Scope,
    params: Sequence[object] = (),
    subquery_resolver: Optional[SubqueryResolver] = None,
) -> Callable[[Sequence[VColumn], int], VColumn]:
    """Compile an expression into ``(columns, length) -> VColumn``.

    ``columns`` is indexed by the positions assigned by ``scope``; every
    returned column has exactly ``length`` entries.
    """
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda cols, n: _broadcast_literal(value, n)

    if isinstance(expr, ast.Parameter):
        if expr.index >= len(params):
            raise SqlError(f"missing value for parameter {expr.index + 1}")
        bound = params[expr.index]
        return lambda cols, n: _broadcast_literal(bound, n)

    if isinstance(expr, ast.ColumnRef):
        index = scope.resolve(expr.name, expr.table)
        return lambda cols, n: cols[index]

    if isinstance(expr, ast.UnaryOp):
        operand = compile_vector(expr.operand, scope, params, subquery_resolver)
        if expr.op == "-":
            def _neg(cols, n):
                col = operand(cols, n)
                return VColumn(values=-col.values, mask=col.mask)

            return _neg
        if expr.op == "NOT":
            def _not(cols, n):
                col = operand(cols, n)
                return VColumn(
                    values=~col.values.astype(bool), mask=col.mask
                )

            return _not
        raise ParseError(f"unknown unary operator {expr.op}")

    if isinstance(expr, ast.BinaryOp):
        return _compile_vector_binary(expr, scope, params, subquery_resolver)

    if isinstance(expr, ast.FunctionCall):
        return _compile_vector_function(expr, scope, params, subquery_resolver)

    if isinstance(expr, ast.CaseExpression):
        branches = [
            (
                compile_vector(b.condition, scope, params, subquery_resolver),
                compile_vector(b.result, scope, params, subquery_resolver),
            )
            for b in expr.branches
        ]
        default = (
            compile_vector(expr.default, scope, params, subquery_resolver)
            if expr.default is not None
            else None
        )

        def _case(cols, n):
            chosen = np.zeros(n, dtype=bool)
            result: Optional[VColumn] = None
            out_values: Optional[np.ndarray] = None
            out_mask = np.ones(n, dtype=bool)
            for condition, branch in branches:
                cond = condition(cols, n)
                take = cond.values.astype(bool) & ~cond.null_mask() & ~chosen
                if not take.any():
                    continue
                result = branch(cols, n)
                if out_values is None:
                    out_values = _empty_like(result, n)
                out_values = _assign(out_values, take, result)
                out_mask[take] = result.null_mask()[take]
                chosen |= take
            if default is not None:
                remaining = ~chosen
                if remaining.any():
                    result = default(cols, n)
                    if out_values is None:
                        out_values = _empty_like(result, n)
                    out_values = _assign(out_values, remaining, result)
                    out_mask[remaining] = result.null_mask()[remaining]
            if out_values is None:
                out_values = np.zeros(n, dtype=np.float64)
            return VColumn(
                values=out_values,
                mask=out_mask if out_mask.any() else None,
            )

        return _case

    if isinstance(expr, ast.InList):
        operand = compile_vector(expr.operand, scope, params, subquery_resolver)
        item_fns = [
            compile_scalar(item, Scope([]), params, subquery_resolver)
            for item in expr.items
        ]
        negated = expr.negated

        def _in(cols, n):
            col = operand(cols, n)
            values = {fn(()) for fn in item_fns}
            values.discard(None)
            result = np.isin(col.values, list(values))
            if negated:
                result = ~result
            return VColumn(values=result, mask=col.mask)

        return _in

    if isinstance(expr, ast.Between):
        rewritten = ast.BinaryOp(
            op="AND",
            left=ast.BinaryOp(op=">=", left=expr.operand, right=expr.lower),
            right=ast.BinaryOp(op="<=", left=expr.operand, right=expr.upper),
        )
        inner = compile_vector(rewritten, scope, params, subquery_resolver)
        if not expr.negated:
            return inner

        def _not_between(cols, n):
            col = inner(cols, n)
            return VColumn(values=~col.values.astype(bool), mask=col.mask)

        return _not_between

    if isinstance(expr, ast.IsNull):
        operand = compile_vector(expr.operand, scope, params, subquery_resolver)
        negated = expr.negated

        def _is_null(cols, n):
            col = operand(cols, n)
            mask = col.null_mask()
            return VColumn(values=(~mask if negated else mask).copy())

        return _is_null

    if isinstance(expr, ast.Like):
        operand = compile_vector(expr.operand, scope, params, subquery_resolver)
        pattern_fn = compile_scalar(
            expr.pattern, Scope([]), params, subquery_resolver
        )
        negated = expr.negated

        def _like(cols, n):
            col = operand(cols, n)
            pattern = pattern_fn(())
            regex = _like_to_regex(pattern)
            matched = np.array(
                [
                    bool(regex.match(v)) if isinstance(v, str) else False
                    for v in col.values
                ],
                dtype=bool,
            )
            if negated:
                matched = ~matched
            return VColumn(values=matched, mask=col.mask)

        return _like

    if isinstance(expr, ast.Cast):
        operand = compile_vector(expr.operand, scope, params, subquery_resolver)
        target = expr.target_type

        def _cast(cols, n):
            col = operand(cols, n)
            items = col.to_objects()
            return VColumn.from_objects([target.coerce(v) for v in items])

        return _cast

    if isinstance(expr, ast.SubqueryExpression):
        if subquery_resolver is None:
            raise ParseError("subqueries are not supported in this context")
        scalar = _compile_scalar_subquery(expr, scope, params, subquery_resolver)
        is_correlated = getattr(
            subquery_resolver, "is_correlated", lambda query: False
        )

        def _correlated(cols, n):
            # Per-row fallback: materialise the batch and evaluate the
            # scalar-compiled subquery expression row by row (memoised by
            # the resolver on the correlation key).
            object_columns = [col.to_objects() for col in cols]
            out = [
                scalar(tuple(values[i] for values in object_columns))
                for i in range(n)
            ]
            return VColumn.from_objects(out)

        if expr.kind == "in":
            operand = compile_vector(
                expr.operand, scope, params, subquery_resolver
            )
            negated = expr.negated

            def _in_subquery(cols, n):
                if is_correlated(expr.query):
                    return _correlated(cols, n)
                rows = subquery_resolver(expr.query, ())
                values = {r[0] for r in rows if r[0] is not None}
                col = operand(cols, n)
                result = np.isin(col.values, list(values))
                if negated:
                    result = ~result
                return VColumn(values=result, mask=col.mask)

            return _in_subquery

        def _scalar_subquery(cols, n):
            if is_correlated(expr.query):
                return _correlated(cols, n)
            return _broadcast_literal(scalar(()), n)

        return _scalar_subquery

    if isinstance(expr, ast.Predict):
        arg_fns = [
            compile_vector(arg, scope, params, subquery_resolver)
            for arg in expr.args
        ]
        get_scorer = _predict_scorer(expr)

        def _predict_batch(cols, n):
            matrix = np.empty((n, len(arg_fns)))
            mask: Optional[np.ndarray] = None
            for j, fn in enumerate(arg_fns):
                col = fn(cols, n)
                if not col.is_numeric:
                    raise SqlError(
                        f"PREDICT({expr.model}, ...) features must be numeric"
                    )
                matrix[:, j] = col.values.astype(np.float64)
                mask = _combine_masks(mask, col.mask)
            values = get_scorer().score(matrix)
            return VColumn(
                values=values, mask=mask.copy() if mask is not None else None
            )

        return _predict_batch

    raise ParseError(f"unsupported expression: {type(expr).__name__}")


def _empty_like(column: VColumn, length: int) -> np.ndarray:
    return np.zeros(length, dtype=column.values.dtype)


def _assign(target: np.ndarray, mask: np.ndarray, source: VColumn) -> np.ndarray:
    if target.dtype != source.values.dtype:
        # Promote (e.g. int branch + float branch) by re-materialising.
        promoted = np.result_type(target.dtype, source.values.dtype)
        target = target.astype(promoted if promoted.kind in "ifb" else object)
    target[mask] = source.values[mask]
    return target


_VECTOR_COMPARISONS = {
    "=": np.equal,
    "<>": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}

_VECTOR_ARITHMETIC = {"+": np.add, "-": np.subtract, "*": np.multiply}


def _compile_vector_binary(expr, scope, params, subquery_resolver):
    left = compile_vector(expr.left, scope, params, subquery_resolver)
    right = compile_vector(expr.right, scope, params, subquery_resolver)
    op = expr.op

    if op in ("AND", "OR"):
        def _logical(cols, n):
            a = left(cols, n)
            b = right(cols, n)
            av = a.values.astype(bool)
            bv = b.values.astype(bool)
            am = a.null_mask()
            bm = b.null_mask()
            if op == "AND":
                definite_false = (~am & ~av) | (~bm & ~bv)
                value = (~am & av) & (~bm & bv)
            else:
                definite_false = (~am & ~av) & (~bm & ~bv)
                value = (~am & av) | (~bm & bv)
            mask = ~(value | definite_false)
            return VColumn(values=value, mask=mask if mask.any() else None)

        return _logical

    if op in _VECTOR_COMPARISONS:
        kernel = _VECTOR_COMPARISONS[op]
        scalar_compare = compare_scalar_values[op]
        constant_left = _is_string_constant(expr.left, params)
        constant_right = _is_string_constant(expr.right, params)

        def _compare(cols, n):
            a = left(cols, n)
            b = right(cols, n)
            av, bv = _align_for_compare(a.values, b.values)
            mask = _combine_masks(a.mask, b.mask)
            ka, kb = av, bv
            if constant_right:
                ka, kb = _coerce_temporal_constant(av, bv, mask)
            elif constant_left:
                kb, ka = _coerce_temporal_constant(bv, av, mask)
            try:
                values = kernel(ka, kb)
            except TypeError:
                # Genuinely mixed object types in one column: element-wise
                # comparison with per-value coercion.
                live = ~mask if mask is not None else np.ones(n, dtype=bool)
                values = np.array(
                    [
                        live[i] and scalar_compare(av[i], bv[i])
                        for i in range(n)
                    ],
                    dtype=bool,
                )
            if mask is not None:
                values = values & ~mask
            return VColumn(values=values.astype(bool), mask=mask)

        return _compare

    if op in _VECTOR_ARITHMETIC:
        kernel = _VECTOR_ARITHMETIC[op]

        def _arith(cols, n):
            a = left(cols, n)
            b = right(cols, n)
            values = kernel(a.values, b.values)
            return VColumn(values=values, mask=_combine_masks(a.mask, b.mask))

        return _arith

    if op == "/":
        def _divide(cols, n):
            a = left(cols, n)
            b = right(cols, n)
            mask = _combine_masks(a.mask, b.mask)
            live = ~mask if mask is not None else np.ones(n, dtype=bool)
            divisor = b.values
            if divisor.dtype.kind in "if" and np.any((divisor == 0) & live):
                raise SqlError("division by zero")
            if a.values.dtype.kind == "i" and divisor.dtype.kind == "i":
                safe = np.where(divisor == 0, 1, divisor)
                quotient = np.abs(a.values) // np.abs(safe)
                sign = np.where((a.values >= 0) == (safe > 0), 1, -1)
                values = quotient * sign
            else:
                safe = np.where(divisor == 0, 1, divisor)
                values = a.values / safe
            return VColumn(values=values, mask=mask)

        return _divide

    if op == "%":
        def _mod(cols, n):
            a = left(cols, n)
            b = right(cols, n)
            mask = _combine_masks(a.mask, b.mask)
            safe = np.where(b.values == 0, 1, b.values)
            values = np.mod(a.values, safe)
            return VColumn(values=values, mask=mask)

        return _mod

    if op == "||":
        def _concat(cols, n):
            a = left(cols, n)
            b = right(cols, n)
            values = np.array(
                [str(x) + str(y) for x, y in zip(a.values, b.values)],
                dtype=object,
            )
            return VColumn(values=values, mask=_combine_masks(a.mask, b.mask))

        return _concat

    raise ParseError(f"unknown operator {op}")


def _is_string_constant(expr: ast.Expression, params: Sequence[object]) -> bool:
    if isinstance(expr, ast.Literal):
        return isinstance(expr.value, str)
    return isinstance(expr, ast.Parameter) and isinstance(params[expr.index], str)


def _coerce_temporal_constant(
    column: np.ndarray, constant: np.ndarray, mask: Optional[np.ndarray]
):
    """A DATE/TIMESTAMP ``column`` and a broadcast string, made comparable.

    The string is coerced once, as DB2 coerces it, to the type of the
    column's first live value (an empty or all-NULL column coerces
    nothing, so an invalid string raises exactly when the row engine
    would reach it), and masked slots take the coerced value so the
    object-array kernel never compares a NULL carrier. Any other pair
    comes back unchanged.
    """
    if column.dtype != object or not len(column):
        return column, constant
    first = 0 if mask is None else int(mask.argmin())  # first live slot
    if mask is not None and mask[first]:
        return column, constant
    sql_type = _temporal_type(column[first])
    if sql_type is None:
        return column, constant
    value = sql_type.coerce(constant[0])
    if mask is not None:
        column = column.copy()
        column[mask] = value
    return column, value


def _align_for_compare(a: np.ndarray, b: np.ndarray):
    """Make dtypes comparable (object vs str arrays, int vs float)."""
    if a.dtype.kind in "ifb" and b.dtype.kind in "ifb":
        if {a.dtype.kind, b.dtype.kind} == {"i", "f"}:
            ints = a if a.dtype.kind == "i" else b
            if len(ints) and (ints.max() > 2**53 or ints.min() < -(2**53)):
                # float64 cannot tell 2**53 from 2**53 + 1: compare as
                # Python numbers, exactly, like the row engine.
                return a.astype(object), b.astype(object)
        return a, b
    if a.dtype == object or b.dtype == object:
        return a.astype(object), b.astype(object)
    return a, b


def _compile_vector_function(expr, scope, params, subquery_resolver):
    name = expr.name
    if name == "COALESCE":
        args = [
            compile_vector(a, scope, params, subquery_resolver) for a in expr.args
        ]

        def _coalesce(cols, n):
            result = args[0](cols, n)
            values = result.values.copy()
            mask = result.null_mask().copy()
            for arg in args[1:]:
                if not mask.any():
                    break
                nxt = arg(cols, n)
                values = _assign(values, mask, nxt)
                mask = mask & nxt.null_mask()
            return VColumn(values=values, mask=mask if mask.any() else None)

        return _coalesce
    if name in ast.AGGREGATE_FUNCTIONS:
        raise ParseError(f"aggregate {name} is not allowed in this context")
    kernel = _VECTOR_KERNELS.get(name)
    if kernel is not None and len(expr.args) == 1:
        operand = compile_vector(expr.args[0], scope, params, subquery_resolver)

        def _fast(cols, n):
            col = operand(cols, n)
            with np.errstate(invalid="ignore", divide="ignore"):
                values = kernel(col.values.astype(np.float64))
            return VColumn(values=values, mask=col.mask)

        return _fast
    # Generic fallback: evaluate element-wise with the scalar registry.
    fn = SCALAR_FUNCTIONS.get(name)
    if fn is None and name != "NULLIF":
        raise ParseError(f"unknown function {name}")
    args = [compile_vector(a, scope, params, subquery_resolver) for a in expr.args]

    def _slow(cols, n):
        arg_lists = [arg(cols, n).to_objects() for arg in args]
        out: list[object] = []
        for row_values in zip(*arg_lists):
            if name == "NULLIF":
                out.append(
                    None if row_values[0] == row_values[1] else row_values[0]
                )
            elif any(v is None for v in row_values):
                out.append(None)
            else:
                out.append(fn(*row_values))
        return VColumn.from_objects(out)

    return _slow


def expression_label(expr: ast.Expression, position: int) -> str:
    """Default output-column name for an unaliased select item."""
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.FunctionCall):
        return expr.name
    if isinstance(expr, ast.Predict):
        return "PREDICT"
    return f"COL{position + 1}"
