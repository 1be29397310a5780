"""The column store's former row-at-a-time append, kept as the oracle.

This is the body ``ColumnStoreTable.append_rows`` had before chunks were
built from columns: route each row tuple to a slice in a Python loop, then
rebuild every column of every chunk from a list comprehension over the
rows. ``append_columns`` must produce the same table, array for array.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import ReproError
from repro.storage.column_store import Chunk, ColumnStoreTable, _hash_key


def append_rows_reference(
    table: ColumnStoreTable,
    rows: Sequence[tuple],
    epoch: int,
    row_ids: Optional[np.ndarray] = None,
) -> np.ndarray:
    if not rows:
        return np.empty(0, dtype=np.int64)
    if row_ids is None:
        row_ids = np.arange(
            table._next_row_id, table._next_row_id + len(rows), dtype=np.int64
        )
        table._next_row_id += len(rows)
    else:
        row_ids = np.asarray(row_ids, dtype=np.int64)
        if len(row_ids) != len(rows):
            raise ReproError("row_ids and rows length mismatch")
        table._next_row_id = max(table._next_row_id, int(row_ids.max()) + 1)

    per_slice: list[list[int]] = [[] for _ in range(table.slice_count)]
    if table.distribute_on:
        positions = [
            table.schema.position_of(name) for name in table.distribute_on
        ]
        for index, row in enumerate(rows):
            key = tuple(row[p] for p in positions)
            per_slice[_hash_key(key) % table.slice_count].append(index)
    else:
        for block, indexes in enumerate(
            np.array_split(np.arange(len(rows)), table.slice_count)
        ):
            per_slice[block].extend(int(i) for i in indexes)

    for slice_id, indexes in enumerate(per_slice):
        for start in range(0, len(indexes), table.chunk_rows):
            batch = indexes[start : start + table.chunk_rows]
            if batch:
                _seal_chunk(table, slice_id, batch, rows, row_ids, epoch)
    table._live_rows += len(rows)
    return row_ids


def _seal_chunk(table, slice_id, indexes, rows, row_ids, epoch) -> None:
    columns: dict[str, np.ndarray] = {}
    masks: dict[str, Optional[np.ndarray]] = {}
    for position, column in enumerate(table.schema.columns):
        items = [rows[i][position] for i in indexes]
        dtype = column.sql_type.numpy_dtype
        mask = np.array([item is None for item in items], dtype=bool)
        if dtype.kind in "ifb":
            fill = 0 if dtype.kind in "ib" else np.nan
            values = np.array(
                [fill if item is None else item for item in items], dtype=dtype
            )
        else:
            values = np.empty(len(items), dtype=object)
            values[:] = items
        columns[column.name] = values
        masks[column.name] = mask if mask.any() else None
    chunk_ids = row_ids[np.array(indexes, dtype=np.int64)]
    chunk_index = len(table._slices[slice_id])
    table._slices[slice_id].append(Chunk(chunk_ids, columns, masks, epoch))
    for offset, row_id in enumerate(chunk_ids):
        table._locator[int(row_id)] = (slice_id, chunk_index, offset)
