"""Table schemas: ordered, typed, named columns."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import DuplicateObjectError, TypeError_, UnknownObjectError
from repro.sql.expressions import VColumn
from repro.sql.types import SqlType

__all__ = [
    "Column",
    "NULL_FILL",
    "TableSchema",
    "columns_from_rows",
    "pack_rows",
    "rows_from_columns",
]

#: What a typed array holds in a NULL slot, by dtype kind (object arrays
#: hold None).
NULL_FILL = {"i": 0, "b": False, "f": np.nan}


def _null_array(dtype: np.dtype, length: int) -> np.ndarray:
    """``length`` NULL slots of ``dtype``."""
    if dtype.kind == "O":
        return np.empty(length, dtype=object)
    return np.full(length, NULL_FILL[dtype.kind], dtype=dtype)


@dataclass(frozen=True)
class Column:
    """One column of a table schema."""

    name: str
    sql_type: SqlType
    nullable: bool = True
    primary_key: bool = False

    def coerce(self, value):
        """Type-check one value for this column (NULL constraint included)."""
        if value is None:
            if not self.nullable:
                raise TypeError_(f"column {self.name} does not accept NULL")
            return None
        return self.sql_type.coerce(value)

    def coerce_column(self, source: Optional[VColumn], length: int) -> VColumn:
        """:meth:`coerce` over a whole column, typed for the column store.

        ``source`` None stands for a column the statement did not name:
        ``length`` NULLs.
        """
        dtype = self.sql_type.numpy_dtype
        if source is None:
            source = VColumn(
                values=_null_array(dtype, length),
                mask=np.ones(length, dtype=bool),
            )
        mask = source.mask
        if mask is not None and not mask.any():
            mask = None
        if mask is not None and not self.nullable:
            raise TypeError_(f"column {self.name} does not accept NULL")
        live = source.values if mask is None else source.values[~mask]
        coerced = self.sql_type.coerce_array(live)
        if coerced is None:
            coerce = self.sql_type.coerce
            items = [coerce(value) for value in live.tolist()]
            if dtype.kind == "O":
                coerced = np.fromiter(items, dtype=object, count=len(items))
            else:
                coerced = np.array(items, dtype=dtype)
        if mask is None:
            return VColumn(values=coerced)
        values = _null_array(dtype, length)
        values[~mask] = coerced
        return VColumn(values=values, mask=mask)


class TableSchema:
    """An ordered list of :class:`Column` with fast name lookup."""

    def __init__(self, columns: Sequence[Column]) -> None:
        if not columns:
            raise TypeError_("a table needs at least one column")
        self.columns = list(columns)
        self._index: dict[str, int] = {}
        for position, column in enumerate(self.columns):
            if column.name in self._index:
                raise DuplicateObjectError(f"duplicate column {column.name}")
            self._index[column.name] = position

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    @property
    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    @property
    def primary_key_columns(self) -> list[str]:
        return [c.name for c in self.columns if c.primary_key]

    def position_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownObjectError(f"unknown column {name}") from None

    def column(self, name: str) -> Column:
        return self.columns[self.position_of(name)]

    def coerce_row(self, values: Sequence[object]) -> tuple:
        """Validate and convert a full-width row."""
        if len(values) != len(self.columns):
            raise TypeError_(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        return tuple(
            column.coerce(value) for column, value in zip(self.columns, values)
        )

    def coerce_partial(
        self, names: Sequence[str], values: Sequence[object]
    ) -> tuple:
        """Build a full-width row from a partial column list.

        Unnamed columns get NULL (and must therefore be nullable).
        """
        if len(names) != len(values):
            raise TypeError_("column list and value list lengths differ")
        row: list[object] = [None] * len(self.columns)
        for name, value in zip(names, values):
            row[self.position_of(name)] = value
        return self.coerce_row(row)

    def coerce_columns(
        self,
        columns: Sequence[VColumn],
        names: Optional[Sequence[str]] = None,
    ) -> list[VColumn]:
        """:meth:`coerce_row` — with ``names``, :meth:`coerce_partial` —
        applied a column at a time to a batch held as aligned columns.

        Returns one typed column per schema column, array for array what
        packing the coerced rows would give. A batch the row methods
        reject raises their exception: the one for the first bad row.
        """
        try:
            return self._coerce_columns(columns, names)
        except Exception:
            # Whatever went wrong, the row path says which row and column
            # it reports first; failing that, the error stands as it is.
            self._coerce_each(rows_from_columns(columns), names)
            raise

    def coerce_rows(
        self,
        rows: Sequence[Sequence[object]],
        names: Optional[Sequence[str]] = None,
    ) -> list[VColumn]:
        """:meth:`coerce_columns` for a batch that arrives as raw row
        tuples (VALUES, a DB2-side select, a loader batch): packed once."""
        try:
            return self._coerce_columns(pack_rows(rows), names)
        except Exception:
            self._coerce_each(rows, names)
            raise

    def _coerce_each(self, rows, names: Optional[Sequence[str]]) -> None:
        """The row path over ``rows``, for the exception it raises."""
        for row in rows:
            if names is None:
                self.coerce_row(row)
            else:
                self.coerce_partial(names, row)

    def _coerce_columns(
        self, columns: Sequence[VColumn], names: Optional[Sequence[str]]
    ) -> list[VColumn]:
        length = len(columns[0]) if columns else 0
        if not length:
            # No row, nothing to check: the row methods never run either.
            return [column.coerce_column(None, 0) for column in self.columns]
        sources: list[Optional[VColumn]]
        if names is None:
            if len(columns) != len(self.columns):
                raise TypeError_(
                    f"expected {len(self.columns)} values, got {len(columns)}"
                )
            sources = list(columns)
        else:
            if len(names) != len(columns):
                raise TypeError_("column list and value list lengths differ")
            sources = [None] * len(self.columns)
            for name, column in zip(names, columns):
                sources[self.position_of(name)] = column
        return [
            column.coerce_column(source, length)
            for column, source in zip(self.columns, sources)
        ]

    def row_byte_size(self, row: Sequence[object]) -> int:
        """Estimated serialized size of one row (feeds the network model)."""
        total = 0
        for column, value in zip(self.columns, row):
            total += 1  # null indicator
            if value is not None:
                total += column.sql_type.byte_size(value)
        return total

    def columns_byte_size(self, columns: Sequence[VColumn]) -> int:
        """:meth:`row_byte_size` summed over a batch of coerced rows held
        as schema-ordered columns."""
        total = 0
        for column, values in zip(self.columns, columns):
            total += len(values)  # null indicators
            total += column.sql_type.column_byte_size(values)
        return total

    def render(self) -> str:
        """DDL-ish rendering, used in error messages and repr."""
        parts = []
        for column in self.columns:
            spec = f"{column.name} {column.sql_type.render()}"
            if not column.nullable:
                spec += " NOT NULL"
            parts.append(spec)
        return "(" + ", ".join(parts) + ")"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TableSchema{self.render()}"


def columns_from_rows(
    schema: TableSchema, rows: Sequence[tuple]
) -> dict[str, VColumn]:
    """Pack coerced row tuples into the schema's typed columns."""
    out: dict[str, VColumn] = {}
    for position, column in enumerate(schema.columns):
        items = [row[position] for row in rows]
        mask = np.array([item is None for item in items], dtype=bool)
        dtype = column.sql_type.numpy_dtype
        if dtype.kind in "ifb":
            fill = NULL_FILL[dtype.kind]
            values = np.array(
                [fill if item is None else item for item in items], dtype=dtype
            )
        else:
            values = np.empty(len(items), dtype=object)
            values[:] = items
        out[column.name] = VColumn(
            values=values, mask=mask if mask.any() else None
        )
    return out


def rows_from_columns(columns: Sequence[VColumn]) -> list[tuple]:
    """Box aligned columns into row tuples (NULL → None)."""
    if not columns:
        return []
    return list(zip(*(column.to_objects() for column in columns)))


#: Python types whose values an array of that dtype holds exactly.
_EXACT_DTYPES = {int: np.int64, float: np.float64, bool: np.bool_}


def pack_rows(
    rows: Sequence[Sequence[object]], width: int = 0
) -> list[VColumn]:
    """Transpose raw (not yet coerced) row tuples into aligned columns;
    ``width`` is how many when there is no row to tell.

    A column becomes a typed array only when every non-NULL value has
    that one Python type, so unboxing gives back the values that went
    in; anything else stays an object array.
    """
    if not rows:
        return [_pack_values(()) for _ in range(width)]
    try:
        transposed = list(zip(*rows, strict=True))
    except ValueError:
        raise TypeError_("rows differ in width") from None
    return [_pack_values(items) for items in transposed]


def _pack_values(items: tuple) -> VColumn:
    kinds = set(map(type, items))
    mask = None
    if type(None) in kinds:
        kinds.discard(type(None))
        mask = np.array([item is None for item in items], dtype=bool)
    dtype = _EXACT_DTYPES.get(next(iter(kinds))) if len(kinds) == 1 else None
    if dtype is not None:
        if mask is not None:
            fill = NULL_FILL[np.dtype(dtype).kind]
            items = [fill if item is None else item for item in items]
        try:
            return VColumn(values=np.array(items, dtype=dtype), mask=mask)
        except OverflowError:
            pass  # a Python int beyond int64: kept as an object
    return VColumn(
        values=np.fromiter(items, dtype=object, count=len(items)), mask=mask
    )
