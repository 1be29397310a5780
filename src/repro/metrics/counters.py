"""Counters for the experiments.

The paper's central quantitative claim is about *data movement*: the
legacy ELT flow materialises every pipeline stage in DB2 and re-replicates
it to the accelerator, while AOTs keep intermediate data on the
accelerator. :class:`MovementStats` is the measurement unit the benchmarks
report.
"""

from __future__ import annotations

import datetime
import decimal
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "MovementStats",
    "ReplicationStats",
    "Timer",
    "SizedRows",
    "estimate_columns_bytes",
    "estimate_rows_bytes",
    "estimate_value_bytes",
]


@dataclass(frozen=True)
class MovementStats:
    """Bytes and messages crossing the DB2 ↔ accelerator interconnect."""

    bytes_to_accelerator: int = 0
    bytes_from_accelerator: int = 0
    messages: int = 0
    simulated_seconds: float = 0.0

    @property
    def total_bytes(self) -> int:
        return self.bytes_to_accelerator + self.bytes_from_accelerator

    def clamped(self) -> "MovementStats":
        """This snapshot with negative fields floored at zero.

        A difference taken across an ``Interconnect.reset()`` would
        otherwise report negative movement.
        """
        return MovementStats(
            bytes_to_accelerator=max(0, self.bytes_to_accelerator),
            bytes_from_accelerator=max(0, self.bytes_from_accelerator),
            messages=max(0, self.messages),
            simulated_seconds=max(0.0, self.simulated_seconds),
        )

    def __sub__(self, other: "MovementStats") -> "MovementStats":
        return MovementStats(
            bytes_to_accelerator=self.bytes_to_accelerator
            - other.bytes_to_accelerator,
            bytes_from_accelerator=self.bytes_from_accelerator
            - other.bytes_from_accelerator,
            messages=self.messages - other.messages,
            simulated_seconds=self.simulated_seconds - other.simulated_seconds,
        )

    def __add__(self, other: "MovementStats") -> "MovementStats":
        return MovementStats(
            bytes_to_accelerator=self.bytes_to_accelerator
            + other.bytes_to_accelerator,
            bytes_from_accelerator=self.bytes_from_accelerator
            + other.bytes_from_accelerator,
            messages=self.messages + other.messages,
            simulated_seconds=self.simulated_seconds + other.simulated_seconds,
        )


@dataclass(frozen=True)
class ReplicationStats:
    """Replication backlog/staleness and resilience counters.

    ``backlog`` is the copy staleness in records (committed changes the
    accelerator has not seen yet); the retry counters describe how hard
    the drain loop has had to work to keep it down.
    """

    backlog: int = 0
    cursor_lsn: int = 1
    head_lsn: int = 1
    records_applied: int = 0
    batches_applied: int = 0
    records_skipped: int = 0
    retries: int = 0
    batches_abandoned: int = 0
    drains_skipped_offline: int = 0
    simulated_backoff_seconds: float = 0.0


def estimate_value_bytes(value) -> int:
    """Serialized-size estimate of one value (schema-free path)."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, decimal.Decimal):
        return 16
    if isinstance(value, str):
        return 4 + len(value)
    if isinstance(value, datetime.datetime):
        return 10
    if isinstance(value, datetime.date):
        return 4
    return 16


class SizedRows(Sequence):
    """A result's rows, still held as the columns that computed them.

    The accelerator hands its result over as this: its length and
    serialized size are read off the columns, and a consumer that lands
    the result in a column store takes ``table`` (the executor's
    ``VTable``) without the rows ever existing. Reading rows boxes the
    columns into tuples on first access, once.
    """

    __slots__ = ("table", "_rows")

    def __init__(self, table) -> None:
        self.table = table
        self._rows: Optional[list[tuple]] = None

    def _boxed(self) -> list[tuple]:
        if self._rows is None:
            self._rows = self.table.to_rows()
        return self._rows

    @property
    def wire_bytes(self) -> int:
        return estimate_columns_bytes(self.table.columns)

    def __len__(self) -> int:
        return self.table.length

    def __getitem__(self, index):
        return self._boxed()[index]

    def __iter__(self):
        return iter(self._boxed())

    def __eq__(self, other) -> bool:
        if isinstance(other, SizedRows):
            other = other._boxed()
        return self._boxed() == other

    def __repr__(self) -> str:
        return repr(self._boxed())


def estimate_rows_bytes(rows) -> int:
    """Serialized-size estimate of a result set."""
    if isinstance(rows, SizedRows):
        return rows.wire_bytes
    return sum(
        1 + estimate_value_bytes(value) for row in rows for value in row
    )


def estimate_columns_bytes(columns) -> int:
    """:func:`estimate_rows_bytes` of the rows that ``columns`` box into.

    ``columns`` are aligned value arrays with an optional NULL mask
    (``.values``, ``.mask``). Fixed-width dtypes are sized as width times
    rows; only object columns (strings, decimals, dates) look at values.
    """
    total = 0
    for col in columns:
        nulls = 0 if col.mask is None else int(col.mask.sum())
        live = len(col.values) - nulls
        total += len(col.values) + nulls
        kind = col.values.dtype.kind
        if kind == "b":
            total += live
        elif kind in "if":
            total += 8 * live
        else:
            values = col.values if col.mask is None else col.values[~col.mask]
            total += sum(map(estimate_value_bytes, values.tolist()))
    return total
