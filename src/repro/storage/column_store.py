"""Chunked columnar store used by the accelerator engine.

Data is organised Netezza-style:

* a table is **one sequence of chunks** (extents) in ascending row-id
  order, each of at most ``chunk_rows`` rows, one numpy array (plus
  optional null mask) per column; every append first fills the table's
  last chunk and only cuts new chunks for the overflow, so trickle writes
  extend a chunk instead of sealing a one-row one;
* every row carries ``insert_epoch`` / ``delete_epoch`` stamps — a scan at
  snapshot epoch *e* sees exactly the rows with
  ``insert_epoch <= e < delete_epoch``, which is how the engine provides
  snapshot isolation without locking readers;
* numeric columns keep per-chunk **zone maps** (min/max) so scans can skip
  chunks that cannot match a range predicate.

Fresh row ids only grow, and a rewrite (GROOM, redistribution) appends
rows in scan order, so a scan returns rows in row-id order: the order
they were inserted in, which for a replicated copy is DB2's order (an
UPDATE appends its new version last, where DB2 rewrites in place).
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from repro.catalog.schema import NULL_FILL, TableSchema
from repro.errors import ReproError
from repro.sql.expressions import VColumn
from repro.storage.zone_maps import ZoneMap

__all__ = [
    "Chunk",
    "ColumnStoreTable",
    "NEVER_DELETED",
    "batch_row_ids",
    "empty_read",
]

#: Sentinel delete epoch for live rows.
NEVER_DELETED = np.iinfo(np.int64).max

#: Target rows per chunk when large batches are split.
DEFAULT_CHUNK_ROWS = 65536


def batch_row_ids(
    table, count: int, row_ids: Optional[np.ndarray] = None
) -> np.ndarray:
    """The ids of a ``count``-row batch appended to ``table``: the given
    ones (a rewrite's), or fresh ones after every id it has handed out.
    Advances ``table._next_row_id`` past them."""
    if row_ids is None:
        row_ids = np.arange(
            table._next_row_id, table._next_row_id + count, dtype=np.int64
        )
    else:
        row_ids = np.asarray(row_ids, dtype=np.int64)
        if len(row_ids) != count:
            raise ReproError("row_ids and rows length mismatch")
    table._next_row_id = max(table._next_row_id, int(row_ids.max()) + 1)
    return row_ids


def empty_read(
    schema: TableSchema, names: Sequence[str]
) -> tuple[np.ndarray, dict[str, VColumn]]:
    """A read that matched no row: no ids, and an empty column of each
    named column's dtype."""
    return np.empty(0, dtype=np.int64), {
        name: VColumn(
            values=np.empty(0, dtype=schema.column(name).sql_type.numpy_dtype)
        )
        for name in names
    }


class Chunk:
    """One extent of a table's rows, read as a fixed-length view.

    Every array is aligned with ``row_ids``. Nothing in a published view
    changes afterwards except ``delete_epochs`` stamps: an append to the
    table's last chunk publishes a *new* view (see :class:`_TailBuffers`).
    """

    __slots__ = (
        "row_ids",
        "columns",
        "masks",
        "insert_epochs",
        "delete_epochs",
        "zone_maps",
        "buffers",
    )

    def __init__(
        self,
        row_ids: np.ndarray,
        columns: dict[str, np.ndarray],
        masks: dict[str, Optional[np.ndarray]],
        insert_epochs: np.ndarray,
        delete_epochs: np.ndarray,
        zone_maps: dict[str, ZoneMap],
        buffers: Optional["_TailBuffers"] = None,
    ) -> None:
        self.row_ids = row_ids
        self.columns = columns
        self.masks = masks
        self.insert_epochs = insert_epochs
        self.delete_epochs = delete_epochs
        self.zone_maps = zone_maps
        #: The arrays this view slices. A chunk built without them (a test
        #: oracle's) gets them, by one copy, on its first extension.
        self.buffers = buffers

    def __len__(self) -> int:
        return len(self.row_ids)

    def visible_mask(self, epoch: int) -> np.ndarray:
        return (self.insert_epochs <= epoch) & (epoch < self.delete_epochs)

    def may_match(self, column: str, low, high) -> bool:
        """Zone-map test: can any row of this chunk fall in [low, high]?"""
        zone_map = self.zone_maps.get(column)
        if zone_map is None:
            return True
        return zone_map.overlaps(low, high)


def _grown(array: np.ndarray, capacity: int) -> np.ndarray:
    out = np.empty(capacity, dtype=array.dtype)
    out[: len(array)] = array
    return out


class _TailBuffers:
    """The arrays behind a chunk, with room for the chunk to grow.

    A chunk is a view of the first ``len(chunk)`` slots; an append writes
    the slots after it and publishes a longer view, so a reader holding an
    earlier view keeps reading the same aligned arrays. ``delete_epochs``
    is the one array stamped in place, through whichever view is current:
    a stamp is always a later epoch than any snapshot already taken, so
    every view stays exact at its snapshot. When the capacity runs out the
    arrays are copied into new buffers; views of the old ones are never
    written again, which is equally safe because every later stamp is
    invisible to them anyway.
    """

    __slots__ = ("row_ids", "columns", "masks", "insert_epochs", "delete_epochs")

    def __init__(
        self, fields: Sequence[tuple], capacity: int, tail: Optional[Chunk]
    ) -> None:
        """Empty buffers for ``fields``' columns, holding a copy of
        ``tail``'s rows when there is one."""
        if tail is None:
            self.row_ids = np.empty(capacity, dtype=np.int64)
            self.columns = {
                name: np.empty(capacity, dtype=dtype) for name, dtype, _ in fields
            }
            self.masks: dict[str, np.ndarray] = {}
            self.insert_epochs = np.empty(capacity, dtype=np.int64)
            self.delete_epochs = np.empty(capacity, dtype=np.int64)
            return
        self.row_ids = _grown(tail.row_ids, capacity)
        self.columns = {
            name: _grown(values, capacity) for name, values in tail.columns.items()
        }
        # Only the masks that exist: a column with no NULL yet has none.
        self.masks = {
            name: _grown(mask, capacity)
            for name, mask in tail.masks.items()
            if mask is not None
        }
        self.insert_epochs = _grown(tail.insert_epochs, capacity)
        self.delete_epochs = _grown(tail.delete_epochs, capacity)

    @property
    def capacity(self) -> int:
        return len(self.row_ids)

    def extended(
        self,
        tail: Optional[Chunk],
        fields: Sequence[tuple],
        span: slice,
        row_ids: np.ndarray,
        insert_epochs: int | np.ndarray,
        delete_epochs: int | np.ndarray,
    ) -> Chunk:
        """Write the batch rows in ``span`` after ``tail``'s rows, every
        NULL slot holding the dtype's fill, and return the longer view.
        Its zone maps widen ``tail``'s by the written piece's."""
        start = len(tail) if tail is not None else 0
        end = start + len(row_ids)
        self.row_ids[start:end] = row_ids
        self.insert_epochs[start:end] = insert_epochs
        self.delete_epochs[start:end] = delete_epochs
        zone_maps = dict(tail.zone_maps) if tail is not None else {}
        for name, dtype, column in fields:
            values = self.columns[name][start:end]
            values[:] = column.values[span]
            mask = None if column.mask is None else column.mask[span]
            if mask is not None and mask.any():
                values[mask] = NULL_FILL.get(dtype.kind)
                if name not in self.masks:
                    self.masks[name] = np.zeros(self.capacity, dtype=bool)
                self.masks[name][start:end] = mask
            else:
                mask = None
                if name in self.masks:
                    self.masks[name][start:end] = False
            if dtype.kind in "if":
                piece = ZoneMap.build(values, mask)
                if piece is not None:
                    old = zone_maps.get(name)
                    zone_maps[name] = piece if old is None else old.widen(piece)
        return Chunk(
            self.row_ids[:end],
            {name: values[:end] for name, values in self.columns.items()},
            {
                name: self.masks[name][:end] if name in self.masks else None
                for name in self.columns
            },
            self.insert_epochs[:end],
            self.delete_epochs[:end],
            zone_maps,
            self,
        )


class ColumnStoreTable:
    """A chunked, multi-version columnar table in row-id order."""

    def __init__(
        self, schema: TableSchema, chunk_rows: int = DEFAULT_CHUNK_ROWS
    ) -> None:
        self.schema = schema
        self.chunk_rows = chunk_rows
        self._chunks: list[Chunk] = []
        self._next_row_id = 0
        self._live_rows = 0
        self.zone_maps_enabled = True

    # -- write path -----------------------------------------------------------

    @property
    def row_count(self) -> int:
        """Number of rows not yet marked deleted (latest epoch view)."""
        return self._live_rows

    @property
    def total_chunk_count(self) -> int:
        return len(self._chunks)

    def append_columns(
        self,
        columns: Sequence[VColumn],
        epoch: int,
        row_ids: Optional[np.ndarray] = None,
        versions: Optional[tuple[np.ndarray, np.ndarray]] = None,
    ) -> np.ndarray:
        """Append a batch held as coerced, aligned columns in schema
        order at ``epoch``; returns the rows' ids.

        ``row_ids`` preserves existing ids across a rewrite (GROOM), which
        passes them in scan order; by default fresh monotonic ids are
        assigned. ``versions`` — per-row ``(insert_epochs,
        delete_epochs)`` — replaces ``epoch`` when a rewrite carries row
        history over. This is the one place chunks are built, by one rule
        for every batch: the batch first fills the table's last chunk up
        to ``chunk_rows`` (:class:`_TailBuffers`) and only the overflow is
        cut into new chunks; every NULL slot holds the dtype's fill
        (0 / NaN / None).
        """
        count = len(columns[0])
        if not count:
            return np.empty(0, dtype=np.int64)
        if versions is not None:
            versions = tuple(np.asarray(v, dtype=np.int64) for v in versions)
        row_ids = batch_row_ids(self, count, row_ids)

        fields = [
            (c.name, c.sql_type.numpy_dtype, column)
            for c, column in zip(self.schema.columns, columns)
        ]
        chunks = self._chunks
        low = 0
        while low < count:
            tail = None
            if chunks and len(chunks[-1]) < self.chunk_rows:
                tail = chunks[-1]
            base = len(tail) if tail is not None else 0
            piece = slice(low, min(count, low + self.chunk_rows - base))
            size = piece.stop - low
            low = piece.stop
            buffers = tail.buffers if tail is not None else None
            if buffers is None or buffers.capacity < base + size:
                # Doubling keeps a run of trickle appends O(batch) each; a
                # new chunk is sized to its piece, and an exactly-sized
                # tail is copied once here.
                buffers = _TailBuffers(
                    fields, min(self.chunk_rows, max(base + size, 2 * base)), tail
                )
            if versions is None:
                inserts, deletes = epoch, NEVER_DELETED
            else:
                inserts, deletes = (v[piece] for v in versions)
            chunk = buffers.extended(
                tail, fields, piece, row_ids[piece], inserts, deletes
            )
            if tail is None:
                chunks.append(chunk)
            else:
                chunks[-1] = chunk
        self._live_rows += (
            count
            if versions is None
            else int(np.count_nonzero(versions[1] == NEVER_DELETED))
        )
        return row_ids

    @property
    def stored_rows(self) -> int:
        """Rows physically held, deleted versions included."""
        return sum(len(chunk) for chunk in self._chunks)

    def mark_deleted(self, row_ids: Sequence[int], epoch: int) -> int:
        """Stamp ``delete_epoch`` for the given live rows; returns how
        many were stamped. A duplicate id counts once; an absent or
        already-deleted id is skipped.

        Each chunk's ``row_ids`` is the only map from an id to its row, so
        every chunk is matched with one vector comparison until all ids
        are found.
        """
        ids = np.unique(np.asarray(row_ids, dtype=np.int64))
        unfound = len(ids)
        deleted = 0
        for chunk in self._chunks:
            if not unfound:
                break
            if len(ids) == 1:
                hit = chunk.row_ids == ids[0]
            else:
                hit = np.isin(chunk.row_ids, ids)
            found = int(np.count_nonzero(hit))
            if not found:
                continue
            unfound -= found
            hit &= chunk.delete_epochs == NEVER_DELETED
            chunk.delete_epochs[hit] = epoch
            deleted += int(np.count_nonzero(hit))
        self._live_rows -= deleted
        return deleted

    def truncate(self, epoch: int) -> int:
        """Mark every live row deleted at ``epoch``."""
        removed = 0
        for chunk in self._chunks:
            live = chunk.delete_epochs == NEVER_DELETED
            removed += int(live.sum())
            chunk.delete_epochs[live] = epoch
        self._live_rows -= removed
        return removed

    # -- read path --------------------------------------------------------------

    def iter_chunks(self) -> Iterator[Chunk]:
        """The chunks in scan order: ascending row ids."""
        return iter(self._chunks)

    def visible_chunks(
        self,
        ranges: Optional[dict[str, tuple[object, object]]] = None,
    ) -> list[Chunk]:
        """Chunks surviving zone-map pruning, in ``iter_chunks`` order.

        ``ranges`` maps column name → (low, high) bounds derived from the
        query predicate; chunks whose zone maps exclude the range are
        skipped entirely (the scan still re-applies the full predicate).
        Resets and updates the ``last_scan_chunks_*`` counters. The order
        is the sequential scan order that :meth:`gather_chunks` keeps.
        """
        self.last_scan_chunks_skipped = 0
        self.last_scan_chunks_total = 0
        survivors: list[Chunk] = []
        for chunk in self._chunks:
            self.last_scan_chunks_total += 1
            if self.zone_maps_enabled and ranges:
                skip = any(
                    not chunk.may_match(name, low, high)
                    for name, (low, high) in ranges.items()
                )
                if skip:
                    self.last_scan_chunks_skipped += 1
                    continue
            survivors.append(chunk)
        return survivors

    def gather_chunks(
        self,
        chunks: Sequence[Chunk],
        epoch: int,
        columns: Optional[Sequence[str]] = None,
    ) -> tuple[np.ndarray, dict[str, VColumn]]:
        """Materialise the rows of ``chunks`` visible at ``epoch``.

        Pure read: touches no table-level counters, so a caller may
        gather any chunk list it holds, at any snapshot. Returns
        (row_ids, {column: VColumn}).
        """
        return self._gather(
            chunks, [chunk.visible_mask(epoch) for chunk in chunks], columns
        )

    def read_versions(
        self, floor: int, columns: Optional[Sequence[str]] = None
    ) -> tuple[np.ndarray, dict[str, VColumn], tuple[np.ndarray, np.ndarray]]:
        """Every stored row version a snapshot at or after ``floor`` can
        still see — all but those deleted at or before it — in scan order,
        with their ``(insert_epochs, delete_epochs)``. GROOM keeps exactly
        these."""
        chunks = list(self._chunks)
        kept = [chunk.delete_epochs > floor for chunk in chunks]
        row_ids, out = self._gather(chunks, kept, columns)
        inserts = [c.insert_epochs[k] for c, k in zip(chunks, kept)]
        deletes = [c.delete_epochs[k] for c, k in zip(chunks, kept)]
        empty = np.empty(0, dtype=np.int64)
        return row_ids, out, (
            np.concatenate([empty, *inserts]),
            np.concatenate([empty, *deletes]),
        )

    def _gather(
        self,
        chunks: Sequence[Chunk],
        selections: Sequence[np.ndarray],
        columns: Optional[Sequence[str]],
    ) -> tuple[np.ndarray, dict[str, VColumn]]:
        """The rows each chunk's boolean selection picks, concatenated."""
        wanted = list(columns) if columns is not None else self.schema.column_names
        id_parts: list[np.ndarray] = []
        value_parts: dict[str, list[np.ndarray]] = {name: [] for name in wanted}
        mask_parts: dict[str, list[np.ndarray]] = {name: [] for name in wanted}
        for chunk, visible in zip(chunks, selections):
            if not visible.any():
                continue
            if visible.all():
                id_parts.append(chunk.row_ids)
                for name in wanted:
                    value_parts[name].append(chunk.columns[name])
                    mask = chunk.masks.get(name)
                    mask_parts[name].append(
                        mask if mask is not None else np.zeros(len(chunk), bool)
                    )
            else:
                id_parts.append(chunk.row_ids[visible])
                for name in wanted:
                    value_parts[name].append(chunk.columns[name][visible])
                    mask = chunk.masks.get(name)
                    mask_parts[name].append(
                        mask[visible]
                        if mask is not None
                        else np.zeros(int(visible.sum()), bool)
                    )
        if not id_parts:
            return empty_read(self.schema, wanted)
        row_ids = np.concatenate(id_parts)
        out: dict[str, VColumn] = {}
        for name in wanted:
            values = np.concatenate(value_parts[name])
            mask = np.concatenate(mask_parts[name])
            out[name] = VColumn(values=values, mask=mask if mask.any() else None)
        return row_ids, out

    def read_visible(
        self,
        epoch: int,
        columns: Optional[Sequence[str]] = None,
        ranges: Optional[dict[str, tuple[object, object]]] = None,
    ) -> tuple[np.ndarray, dict[str, VColumn]]:
        """Materialise all rows visible at ``epoch`` after zone-map pruning."""
        return self.gather_chunks(self.visible_chunks(ranges), epoch, columns)

    def byte_count(self, epoch: Optional[int] = None) -> int:
        """Estimated serialized size of rows visible at ``epoch`` (or all)."""
        total = 0
        for chunk in self._chunks:
            if epoch is None:
                mask = chunk.delete_epochs == NEVER_DELETED
            else:
                mask = chunk.visible_mask(epoch)
            count = int(mask.sum())
            if not count:
                continue
            for column in self.schema.columns:
                values = chunk.columns[column.name][mask]
                null_mask = chunk.masks.get(column.name)
                nulls = (
                    int(null_mask[mask].sum()) if null_mask is not None else 0
                )
                total += count  # null indicators
                live = count - nulls
                if live and column.sql_type.numpy_dtype.kind in "ifb":
                    total += live * column.sql_type.byte_size(0)
                elif live:
                    for value, is_null in zip(
                        values,
                        null_mask[mask] if null_mask is not None else [False] * count,
                    ):
                        if not is_null:
                            total += column.sql_type.byte_size(value)
        return total
