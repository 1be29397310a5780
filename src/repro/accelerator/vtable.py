"""Vectorised intermediate results (column batches with a scope)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.catalog.schema import columns_from_rows, rows_from_columns
from repro.sql.expressions import Scope, VColumn
from repro.sql.planning import sort_rows_with_keys

__all__ = [
    "VTable",
    "column_codes",
    "columns_from_rows",
    "order_indexes",
    "rows_from_columns",
]


class VTable:
    """A batch of columns aligned with a name-resolution scope.

    This is what flows between the accelerator's operators, up to the
    statement's result: scans produce one, joins concatenate two, filters
    compress one, projections and aggregations map one to another, and
    the last one leaves the executor as the statement's result: boxed by
    :meth:`to_rows` when its rows are read, landed as it is by
    ``INSERT … SELECT``.
    """

    def __init__(self, scope: Scope, columns: list[VColumn], length: int) -> None:
        self.scope = scope
        self.columns = columns
        self.length = length

    @property
    def width(self) -> int:
        return len(self.columns)

    def filter(self, mask: np.ndarray) -> "VTable":
        """Keep only rows where ``mask`` is True."""
        if mask.all():
            return self
        columns = [col.take(mask) for col in self.columns]
        return VTable(self.scope, columns, int(mask.sum()))

    def gather(self, indexes: np.ndarray) -> list[VColumn]:
        """Columns re-ordered by ``indexes``.

        A gather that *expands* an object column (more indexes than
        values: the dimension side of a star join) ranks the values
        first, so the codes GROUP BY and ORDER BY need later come from
        the few values here, not from their many copies.
        """
        out: list[VColumn] = []
        for col in self.columns:
            if (
                col.codes is None
                and col.values.dtype == object
                and len(indexes) > len(col.values)
            ):
                col = VColumn(col.values, col.mask, column_codes(col))
            out.append(col.take(indexes))
        return out

    def take(self, indexes: np.ndarray) -> "VTable":
        """The rows at ``indexes``, in that order (ORDER BY, LIMIT)."""
        return VTable(self.scope, self.gather(indexes), len(indexes))

    def to_rows(self) -> list[tuple]:
        """Materialise as Python row tuples (NULL → None)."""
        if not self.columns:
            return [()] * self.length
        return rows_from_columns(self.columns)


def column_codes(col: VColumn) -> tuple[np.ndarray, int]:
    """Rank a column's values as int64 codes.

    Equal values share a code and codes order as the values do, with NULL
    as the highest code (SQL NULLs sort high, and group together). Works
    on the values themselves, so int64 keeps all 64 bits. Returns
    ``(codes, bound)``, every code below ``bound``: dense when ranked
    here, possibly with gaps when the column carries the codes of a
    column it was gathered from.
    """
    if col.codes is not None:
        return col.codes
    values = _live_values(col)
    if values.dtype == object:
        # Hash, then sort only the distinct values: numpy would order an
        # object array by one Python comparison per step of its sort.
        items = values.tolist()
        rank = {value: code for code, value in enumerate(sorted(set(items)))}
        count = len(rank)
        ranked = np.fromiter(map(rank.__getitem__, items), np.int64, len(items))
    else:
        uniques, ranked = np.unique(values, return_inverse=True)
        count = len(uniques)
    if col.mask is None:
        return ranked, count
    codes = np.full(len(col.values), count, dtype=np.int64)
    codes[~col.mask] = ranked
    return codes, count + 1


def _live_values(col: VColumn) -> np.ndarray:
    return col.values if col.mask is None else col.values[~col.mask]


def order_indexes(
    key_columns: Sequence[VColumn], ascending: Sequence[bool]
) -> np.ndarray:
    """Row order for ORDER BY over ``key_columns`` (major key first).

    One stable lexsort over the keys' codes: ties keep their input order,
    and a DESC key negates its codes, which is ``list.sort(reverse=True)``
    — descending, ties still in input order. The row engine sorts the same
    way, one stable pass per key.
    """
    if any(
        col.values.dtype.kind == "f" and np.isnan(_live_values(col)).any()
        for col in key_columns
    ):
        # NaN compares false both ways, so its place is whatever Python's
        # sort makes of the comparisons; only that sort reproduces the
        # row engine's order.
        keys = list(zip(*(col.to_objects() for col in key_columns)))
        order = sort_rows_with_keys(range(len(keys)), keys, list(ascending))
        return np.array(order, dtype=np.int64)
    codes = [column_codes(col)[0] for col in key_columns]
    return np.lexsort(
        [c if up else -c for c, up in zip(codes, ascending)][::-1]
    )
