"""Chunked columnar store used by the accelerator engine.

Data is organised Netezza-style:

* rows are distributed over **slices** (the simulated processing units),
  either by hash on the distribution key or block-round-robin;
* within a slice, each ingest batch seals an immutable **chunk** (extent)
  holding one numpy array (plus optional null mask) per column;
* every row carries ``insert_epoch`` / ``delete_epoch`` stamps — a scan at
  snapshot epoch *e* sees exactly the rows with
  ``insert_epoch <= e < delete_epoch``, which is how the engine provides
  snapshot isolation without locking readers;
* numeric columns keep per-chunk **zone maps** (min/max) so scans can skip
  chunks that cannot match a range predicate.
"""

from __future__ import annotations

import zlib
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.catalog.schema import NULL_FILL, TableSchema, columns_from_rows
from repro.errors import ReproError
from repro.sql.expressions import VColumn
from repro.storage.zone_maps import ZoneMap

__all__ = ["Chunk", "ColumnStoreTable", "NEVER_DELETED", "distinct_keys"]

#: Sentinel delete epoch for live rows.
NEVER_DELETED = np.iinfo(np.int64).max

#: Target rows per chunk when large batches are split.
DEFAULT_CHUNK_ROWS = 65536


def _hash_key(values: tuple) -> int:
    """Deterministic distribution hash (Python's hash() is salted).

    Key values are normalised to plain Python scalars first: the hash is
    over ``repr``, and ``np.int64(5)`` / ``np.str_('a')`` repr differently
    from ``5`` / ``'a'`` even though they are the same logical key — which
    would route replication-applied and directly loaded copies of a row to
    different slices.
    """
    normalized = tuple(
        value.item() if isinstance(value, np.generic) else value
        for value in values
    )
    return zlib.crc32(repr(normalized).encode("utf-8"))


def distinct_keys(
    key_columns: Sequence[VColumn],
) -> tuple[list[tuple], np.ndarray]:
    """The distinct rows of aligned key columns, and each row's key.

    Returns ``(keys, inverse)``: ``keys`` are tuples of plain Python
    values (NULL is None) and row *i* carries ``keys[inverse[i]]`` — so a
    routing function over keys (:func:`_hash_key`, a shard placement)
    runs once per distinct key instead of once per row. Values are told
    apart exactly as ``repr`` tells them apart, because that is what the
    hash reads: floats by bit pattern (0.0 and -0.0 are two keys).
    """
    probes = []
    for column in key_columns:
        values = column.values
        if values.dtype.kind == "f":
            values = np.ascontiguousarray(values).view(np.int64)
        probes.append(VColumn(values=values, mask=column.mask).to_objects())
    rank: dict[tuple, int] = {}
    inverse = np.fromiter(
        (rank.setdefault(probe, len(rank)) for probe in zip(*probes)),
        dtype=np.int64,
        count=len(key_columns[0]),
    )
    # First row of each key: written back to front, the front row stays.
    first = np.empty(len(rank), dtype=np.int64)
    first[inverse[::-1]] = np.arange(len(inverse) - 1, -1, -1)
    picked = [column.take(first).to_objects() for column in key_columns]
    return list(zip(*picked)), inverse


class Chunk:
    """One immutable extent of rows for a slice."""

    __slots__ = (
        "row_ids",
        "columns",
        "masks",
        "insert_epochs",
        "delete_epochs",
        "zone_maps",
    )

    def __init__(
        self,
        row_ids: np.ndarray,
        columns: dict[str, np.ndarray],
        masks: dict[str, Optional[np.ndarray]],
        insert_epoch: int,
    ) -> None:
        self.row_ids = row_ids
        self.columns = columns
        self.masks = masks
        count = len(row_ids)
        self.insert_epochs = np.full(count, insert_epoch, dtype=np.int64)
        self.delete_epochs = np.full(count, NEVER_DELETED, dtype=np.int64)
        self.zone_maps: dict[str, ZoneMap] = {}
        for name, values in columns.items():
            if values.dtype.kind in "if" and len(values):
                mask = masks.get(name)
                zone_map = ZoneMap.build(values, mask)
                if zone_map is not None:
                    self.zone_maps[name] = zone_map

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


class ColumnStoreTable:
    """A sliced, chunked, multi-version columnar table."""

    def __init__(
        self,
        schema: TableSchema,
        slice_count: int = 4,
        distribute_on: Optional[Sequence[str]] = None,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ) -> None:
        if slice_count < 1:
            raise ReproError("slice_count must be >= 1")
        self.schema = schema
        self.slice_count = slice_count
        self.distribute_on = list(distribute_on or [])
        self.chunk_rows = chunk_rows
        self._slices: list[list[Chunk]] = [[] for _ in range(slice_count)]
        self._next_row_id = 0
        self._locator: dict[int, tuple[int, int, int]] = {}
        self._live_rows = 0
        self.zone_maps_enabled = True

    # -- write path -----------------------------------------------------------

    @property
    def row_count(self) -> int:
        """Number of rows not yet marked deleted (latest epoch view)."""
        return self._live_rows

    @property
    def total_chunk_count(self) -> int:
        return sum(len(chunks) for chunks in self._slices)

    def append_columns(
        self,
        columns: Sequence[VColumn],
        epoch: int,
        row_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Append a batch held as coerced, aligned columns in schema
        order at ``epoch``; returns the rows' ids.

        ``row_ids`` preserves existing ids across a rewrite (GROOM); by
        default fresh monotonic ids are assigned. This is the one place
        chunks are built: rows are routed to slices, each slice's share is
        cut into chunks of ``chunk_rows`` by array indexing, and every
        NULL slot holds the dtype's fill (0 / NaN / None).
        """
        count = len(columns[0])
        if not count:
            return np.empty(0, dtype=np.int64)
        if row_ids is None:
            row_ids = np.arange(
                self._next_row_id, self._next_row_id + count, dtype=np.int64
            )
            self._next_row_id += count
        else:
            row_ids = np.asarray(row_ids, dtype=np.int64)
            if len(row_ids) != count:
                raise ReproError("row_ids and rows length mismatch")
            self._next_row_id = max(
                self._next_row_id, int(row_ids.max()) + 1
            )

        dtypes = [c.sql_type.numpy_dtype for c in self.schema.columns]
        names = self.schema.column_names
        for slice_id, slice_rows in enumerate(
            self._rows_by_slice(columns, count)
        ):
            for start in range(0, len(slice_rows), self.chunk_rows):
                indexes = slice_rows[start : start + self.chunk_rows]
                values: dict[str, np.ndarray] = {}
                masks: dict[str, Optional[np.ndarray]] = {}
                for name, dtype, column in zip(names, dtypes, columns):
                    taken = np.asarray(column.values[indexes], dtype=dtype)
                    mask = None
                    if column.mask is not None:
                        mask = column.mask[indexes]
                        if mask.any():
                            taken[mask] = NULL_FILL.get(dtype.kind)
                        else:
                            mask = None
                    values[name] = taken
                    masks[name] = mask
                chunk_ids = row_ids[indexes]
                chunk_index = len(self._slices[slice_id])
                self._slices[slice_id].append(
                    Chunk(chunk_ids, values, masks, epoch)
                )
                self._locator.update(
                    {
                        row_id: (slice_id, chunk_index, offset)
                        for offset, row_id in enumerate(chunk_ids.tolist())
                    }
                )
        self._live_rows += count
        return row_ids

    def _rows_by_slice(
        self, columns: Sequence[VColumn], count: int
    ) -> list[np.ndarray]:
        """Per slice, the batch positions of its rows, in batch order."""
        if not self.distribute_on:
            # Block round-robin keeps slice contents contiguous and
            # balanced: the blocks of np.array_split.
            base, extra = divmod(count, self.slice_count)
            bounds = [0]
            for slice_id in range(self.slice_count):
                bounds.append(bounds[-1] + base + (slice_id < extra))
            return [
                np.arange(low, high) for low, high in zip(bounds, bounds[1:])
            ]
        keys, key_of_row = distinct_keys(
            [columns[self.schema.position_of(n)] for n in self.distribute_on]
        )
        slice_of_key = np.array(
            [_hash_key(key) % self.slice_count for key in keys], dtype=np.int64
        )
        slice_of_row = slice_of_key[key_of_row]
        by_slice = np.argsort(slice_of_row, kind="stable")
        sizes = np.bincount(slice_of_row, minlength=self.slice_count)
        bounds = [0, *np.cumsum(sizes).tolist()]
        return [by_slice[low:high] for low, high in zip(bounds, bounds[1:])]

    def append_rows(
        self,
        rows: Sequence[tuple],
        epoch: int,
        row_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """:meth:`append_columns` for coerced row tuples, packed once."""
        packed = columns_from_rows(self.schema, rows)
        return self.append_columns(list(packed.values()), epoch, row_ids)

    @property
    def stored_rows(self) -> int:
        """Rows physically held, deleted versions included."""
        return len(self._locator)

    def mark_deleted(self, row_ids: Sequence[int], epoch: int) -> int:
        """Stamp ``delete_epoch`` for the given rows; returns count."""
        deleted = 0
        for row_id in row_ids:
            location = self._locator.get(int(row_id))
            if location is None:
                continue
            slice_id, chunk_index, offset = location
            chunk = self._slices[slice_id][chunk_index]
            if chunk.delete_epochs[offset] == NEVER_DELETED:
                chunk.delete_epochs[offset] = epoch
                deleted += 1
        self._live_rows -= deleted
        return deleted

    def truncate(self, epoch: int) -> int:
        """Mark every live row deleted at ``epoch``."""
        removed = 0
        for chunks in self._slices:
            for chunk in chunks:
                live = chunk.delete_epochs == NEVER_DELETED
                removed += int(live.sum())
                chunk.delete_epochs[live] = epoch
        self._live_rows -= removed
        return removed

    # -- read path --------------------------------------------------------------

    def iter_chunks(self) -> Iterator[tuple[int, Chunk]]:
        for slice_id, chunks in enumerate(self._slices):
            for chunk in chunks:
                yield slice_id, chunk

    def visible_chunks(
        self,
        ranges: Optional[dict[str, tuple[object, object]]] = None,
    ) -> list[Chunk]:
        """Chunks surviving zone-map pruning, in ``iter_chunks`` order.

        ``ranges`` maps column name → (low, high) bounds derived from the
        query predicate; chunks whose zone maps exclude the range are
        skipped entirely (the scan still re-applies the full predicate).
        Resets and updates the ``last_scan_chunks_*`` counters. The order
        is the sequential scan order, so concatenating per-chunk results
        from any contiguous partitioning reproduces it exactly.
        """
        self.last_scan_chunks_skipped = 0
        self.last_scan_chunks_total = 0
        survivors: list[Chunk] = []
        for _, chunk in self.iter_chunks():
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

        Pure read: touches no table-level counters, so disjoint chunk
        spans can be gathered concurrently from worker threads. Returns
        (row_ids, {column: VColumn}).
        """
        wanted = list(columns) if columns is not None else self.schema.column_names
        id_parts: list[np.ndarray] = []
        value_parts: dict[str, list[np.ndarray]] = {name: [] for name in wanted}
        mask_parts: dict[str, list[np.ndarray]] = {name: [] for name in wanted}
        for chunk in chunks:
            visible = chunk.visible_mask(epoch)
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
            empty_ids = np.empty(0, dtype=np.int64)
            return empty_ids, {
                name: self._empty_column(name) for name in wanted
            }
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

    def _empty_column(self, name: str) -> VColumn:
        dtype = self.schema.column(name).sql_type.numpy_dtype
        return VColumn(values=np.empty(0, dtype=dtype))

    def fetch_rows(self, row_ids: Sequence[int]) -> list[tuple]:
        """Random access by row id (replication/delta bookkeeping)."""
        out: list[tuple] = []
        names = self.schema.column_names
        for row_id in row_ids:
            slice_id, chunk_index, offset = self._locator[int(row_id)]
            chunk = self._slices[slice_id][chunk_index]
            row = []
            for name in names:
                mask = chunk.masks.get(name)
                if mask is not None and mask[offset]:
                    row.append(None)
                else:
                    value = chunk.columns[name][offset]
                    row.append(value.item() if hasattr(value, "item") else value)
            out.append(tuple(row))
        return out

    def byte_count(self, epoch: Optional[int] = None) -> int:
        """Estimated serialized size of rows visible at ``epoch`` (or all)."""
        total = 0
        for _, chunk in self.iter_chunks():
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
