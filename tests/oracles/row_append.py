"""Row-tuple appends for tests: the column store's former row-at-a-time
append, kept as the oracle, and the packing shortcut tests write with.

This is the body ``ColumnStoreTable.append_rows`` had before chunks were
built from columns: rebuild every column of every chunk from a list
comprehension over the row tuples. It follows the store's one chunking
rule the obvious way: the batch first fills the table's last chunk —
rebuilt whole, old rows plus new, with its zone maps recomputed over
every row — and only the overflow is sealed into new chunks.
``append_columns`` must produce the same table, array for array.

The store itself takes only columns; :func:`append_rows` packs coerced
row tuples once and appends them, for tests that build a table by rows.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.catalog.schema import columns_from_rows
from repro.errors import ReproError
from repro.storage.column_store import NEVER_DELETED, Chunk, ColumnStoreTable
from repro.storage.zone_maps import ZoneMap


def append_rows(
    table: ColumnStoreTable,
    rows: Sequence[tuple],
    epoch: int,
    row_ids: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``table.append_columns`` for coerced row tuples, packed once."""
    packed = columns_from_rows(table.schema, rows)
    return table.append_columns(list(packed.values()), epoch, row_ids)


def append_rows_reference(
    table: ColumnStoreTable,
    rows: Sequence[tuple],
    epoch: int,
    row_ids: Optional[np.ndarray] = None,
    versions: Optional[tuple[np.ndarray, np.ndarray]] = None,
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
    if versions is None:
        inserts = [epoch] * len(rows)
        deletes = [NEVER_DELETED] * len(rows)
    else:
        inserts, deletes = (list(map(int, v)) for v in versions)

    chunks = table._chunks
    indexes = list(range(len(rows)))
    if chunks and len(chunks[-1]) < table.chunk_rows:
        tail = chunks[-1]
        fill = indexes[: table.chunk_rows - len(tail)]
        indexes = indexes[len(fill) :]
        _seal_chunk(
            table,
            len(chunks) - 1,
            _tail_rows(table, tail) + [rows[i] for i in fill],
            tail.row_ids.tolist() + [int(row_ids[i]) for i in fill],
            tail.insert_epochs.tolist() + [inserts[i] for i in fill],
            tail.delete_epochs.tolist() + [deletes[i] for i in fill],
        )
    for start in range(0, len(indexes), table.chunk_rows):
        batch = indexes[start : start + table.chunk_rows]
        _seal_chunk(
            table,
            len(chunks),
            [rows[i] for i in batch],
            [int(row_ids[i]) for i in batch],
            [inserts[i] for i in batch],
            [deletes[i] for i in batch],
        )
    table._live_rows += sum(1 for d in deletes if d == NEVER_DELETED)
    return row_ids


def _tail_rows(table: ColumnStoreTable, tail: Chunk) -> list[tuple]:
    columns = []
    for column in table.schema.columns:
        values = tail.columns[column.name].tolist()
        mask = tail.masks[column.name]
        if mask is not None:
            values = [None if null else v for v, null in zip(values, mask)]
        columns.append(values)
    return list(zip(*columns))


def _seal_chunk(table, chunk_index, items, ids, inserts, deletes) -> None:
    columns: dict[str, np.ndarray] = {}
    masks: dict[str, Optional[np.ndarray]] = {}
    for position, column in enumerate(table.schema.columns):
        cells = [item[position] for item in items]
        dtype = column.sql_type.numpy_dtype
        mask = np.array([cell is None for cell in cells], dtype=bool)
        if dtype.kind in "ifb":
            fill = 0 if dtype.kind in "ib" else np.nan
            values = np.array(
                [fill if cell is None else cell for cell in cells], dtype=dtype
            )
        else:
            values = np.empty(len(cells), dtype=object)
            values[:] = cells
        columns[column.name] = values
        masks[column.name] = mask if mask.any() else None
    zone_maps = {}
    for name, values in columns.items():
        if values.dtype.kind in "if":
            zone_map = ZoneMap.build(values, masks[name])
            if zone_map is not None:
                zone_maps[name] = zone_map
    chunk = Chunk(
        np.array(ids, dtype=np.int64),
        columns,
        masks,
        np.array(inserts, dtype=np.int64),
        np.array(deletes, dtype=np.int64),
        zone_maps,
    )
    chunks = table._chunks
    if chunk_index == len(chunks):
        chunks.append(chunk)
    else:
        chunks[chunk_index] = chunk
