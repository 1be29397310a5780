"""The placement layer: which shard owns which rows of a table.

Every accelerated table (copy or AOT) in a pool deployment carries a
:class:`PartitionSpec` describing how its rows are spread over the
shards:

* ``HASH(c1, …)`` — rows are placed by a CRC32 hash of the key columns.
  Equality predicates on the full key prune the scan to one shard.
* ``RANGE(c)`` — rows are placed by comparing the single key column
  against an ascending boundary list (computed from data quantiles at
  ``ALTER TABLE … DISTRIBUTE BY`` time). Range predicates prune to the
  overlapping boundary intervals; NULL keys live on shard 0.
* ``RANDOM`` — round-robin by row id; no pruning.

The spec is stored in the shared catalog (it is DB2-side metadata, so it
survives an accelerator crash) and mirrored into the pool's per-table
shard map, whose ``generation`` bumps on every redistribution.

Pruning is advisory in exactly the zone-map sense: it may only drop
shards that cannot contain a matching row. The executor re-applies the
full predicate to whatever the scan returns, so an imprecise (``None``)
answer costs performance, never correctness.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import CatalogError
from repro.sql.expressions import VColumn

__all__ = [
    "PartitionSpec",
    "ShardMap",
    "default_spec",
    "distinct_keys",
    "range_boundaries",
]

_METHODS = ("HASH", "RANGE", "RANDOM")


def _hash_key(values: tuple) -> int:
    """Deterministic placement hash (Python's hash() is salted).

    Key values are normalised to plain Python scalars first: the hash is
    over ``repr``, and ``np.int64(5)`` / ``np.str_('a')`` repr differently
    from ``5`` / ``'a'`` even though they are the same logical key — which
    would route replication-applied and directly loaded copies of a row to
    different shards.
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
    routing function over keys (:meth:`PartitionSpec.shard_for_row`) runs
    once per distinct key instead of once per row. Values are told apart
    exactly as ``repr`` tells them apart, because that is what the hash
    reads: floats by bit pattern (0.0 and -0.0 are two keys).
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


@dataclass(frozen=True)
class PartitionSpec:
    """How one table's rows map to shard ids (immutable value object)."""

    method: str
    columns: tuple[str, ...] = ()
    #: RANGE only: strictly ascending split points. ``len(boundaries)+1``
    #: intervals map onto shards ``0 … len(boundaries)``.
    boundaries: tuple = ()

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise CatalogError(f"unknown distribution method {self.method}")
        if self.method == "HASH" and not self.columns:
            raise CatalogError("HASH distribution needs at least one column")
        if self.method == "RANGE" and len(self.columns) != 1:
            raise CatalogError("RANGE distribution takes exactly one column")
        if self.method == "RANDOM" and self.columns:
            raise CatalogError("RANDOM distribution takes no columns")
        if self.boundaries and self.method != "RANGE":
            raise CatalogError(
                f"{self.method} distribution takes no boundaries"
            )
        for a, b in zip(self.boundaries, self.boundaries[1:]):
            if not a < b:
                raise CatalogError("RANGE boundaries must be ascending")

    # -- row routing ---------------------------------------------------------

    def shard_for_row(
        self,
        row: Sequence[object],
        row_id: int,
        key_positions: Sequence[int],
        shards: int,
    ) -> int:
        """The shard that owns ``row`` (``key_positions`` index into it)."""
        if shards <= 1:
            return 0
        if self.method == "RANDOM":
            return int(row_id) % shards
        if self.method == "HASH":
            key = tuple(row[p] for p in key_positions)
            return _hash_key(key) % shards
        value = row[key_positions[0]]
        if value is None:
            # NULL range keys collect on shard 0 (DB2's NULLs-first).
            return 0
        return min(self._interval_of(value), shards - 1)

    def shards_for_columns(
        self, key_columns: Sequence, row_ids: np.ndarray, shards: int
    ) -> np.ndarray:
        """:meth:`shard_for_row` over a batch whose key values arrive as
        aligned columns (in ``self.columns`` order): the owner of each
        row, worked out once per distinct key."""
        if shards <= 1:
            return np.zeros(len(row_ids), dtype=np.int64)
        if self.method == "RANDOM":
            return row_ids % shards
        keys, inverse = distinct_keys(key_columns)
        positions = range(len(key_columns))
        shard_of_key = np.array(
            [self.shard_for_row(key, 0, positions, shards) for key in keys],
            dtype=np.int64,
        )
        return shard_of_key[inverse]

    def _interval_of(self, value: object) -> int:
        return bisect_right(self.boundaries, value)

    # -- shard pruning -------------------------------------------------------

    def prune(
        self,
        ranges: Optional[dict[str, tuple]],
        shards: int,
        schema,
    ) -> Optional[set[int]]:
        """Candidate shard ids for a scan, or ``None`` for "all shards".

        ``ranges`` is the executor's derived column-bounds dict (the same
        one zone maps consume): ``{column: (low, high)}`` with ``None``
        for an unbounded side. Conservative: any doubt returns ``None``.
        """
        if shards <= 1 or not ranges:
            return None
        if self.method == "HASH":
            key = []
            for name in self.columns:
                bounds = ranges.get(name)
                if bounds is None:
                    return None
                low, high = bounds
                if low is None or high is None:
                    return None
                try:
                    column = schema.column(name)
                    low = column.coerce(low)
                    high = column.coerce(high)
                    if not low == high:
                        return None
                except Exception:
                    return None
                key.append(low)
            return {_hash_key(tuple(key)) % shards}
        if self.method == "RANGE":
            bounds = ranges.get(self.columns[0])
            if bounds is None:
                return None
            low, high = bounds
            try:
                first = 0 if low is None else self._interval_of(low)
                last = (
                    shards - 1 if high is None else self._interval_of(high)
                )
            except TypeError:
                # Bound type incomparable with the boundaries: no pruning.
                return None
            first = min(first, shards - 1)
            last = min(last, shards - 1)
            # A NULL key can never satisfy a range predicate, so shard 0
            # is included only when the interval genuinely reaches it.
            return set(range(first, last + 1))
        return None


@dataclass
class ShardMap:
    """A table's live placement: spec + generation, one per facade.

    The generation bumps on every ``DISTRIBUTE BY`` redistribution so
    monitoring (and any cached placement decision) can tell a rebalanced
    map from the one it was computed against.
    """

    table: str
    spec: PartitionSpec
    generation: int = 1


def default_spec(descriptor) -> PartitionSpec:
    """Placement when no ``DISTRIBUTE BY`` was declared.

    Tables with a ``DISTRIBUTE ON`` clause hash on those columns (the
    natural reading: the declared distribution key governs shard
    placement); everything else round-robins by row id.
    """
    if descriptor.distribute_on:
        return PartitionSpec(
            "HASH", tuple(c.upper() for c in descriptor.distribute_on)
        )
    return PartitionSpec("RANDOM")


def range_boundaries(values: Sequence[object], shards: int) -> tuple:
    """Quantile split points for RANGE placement over ``values``.

    Positional quantiles (works for strings as well as numbers), with
    duplicates collapsed so the boundary list stays strictly ascending —
    heavily skewed keys simply produce fewer, wider intervals.
    """
    cleaned = sorted(v for v in values if v is not None)
    if not cleaned or shards <= 1:
        return ()
    count = len(cleaned)
    cuts: list = []
    for i in range(1, shards):
        value = cleaned[min(count - 1, (i * count) // shards)]
        value = value.item() if hasattr(value, "item") else value
        if not cuts or cuts[-1] < value:
            cuts.append(value)
    return tuple(cuts)
