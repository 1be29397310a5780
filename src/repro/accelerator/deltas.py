"""Transaction-scoped delta buffers for accelerator-only tables.

Section 2 of the paper: *"With AOTs, IDAA has to be aware of the DB2
transaction context so that correct results are guaranteed, i.e.,
uncommitted data modifications of the own transaction are handled. At the
same time, concurrent execution of multiple queries in a single
transaction are also supported."*

The mechanism here:

* every AOT modification inside an open DB2 transaction lands in a
  :class:`DeltaBuffer` attached to that transaction, not in the base
  column store;
* queries of the same transaction merge base snapshot + own delta, so
  they see their own uncommitted changes (and can run concurrently —
  the buffer is only appended to between statements);
* other transactions read the base snapshot at their epoch and never see
  the buffer (snapshot isolation);
* COMMIT applies the buffer to the column store at a fresh epoch;
  ROLLBACK just drops it.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["DeltaBuffer"]


class DeltaBuffer:
    """Uncommitted inserts/deletes of one transaction against one AOT."""

    def __init__(self, table: str) -> None:
        self.table = table
        #: Rows inserted by this transaction (coerced tuples — the one
        #: place besides a client's result where an AOT batch is boxed:
        #: UPDATE and DELETE address single uncommitted rows). Entries
        #: deleted again before commit become ``None`` placeholders.
        self.inserted: list[tuple | None] = []
        #: Base-table row ids deleted by this transaction.
        self.deleted_base_ids: set[int] = set()

    # Positive indexes address ``inserted``; this keeps row identity for
    # UPDATE/DELETE statements that target the transaction's own inserts.

    def insert(self, rows: Sequence[tuple]) -> None:
        self.inserted.extend(tuple(row) for row in rows)

    def delete_base(self, row_ids: Sequence[int]) -> int:
        before = len(self.deleted_base_ids)
        self.deleted_base_ids.update(int(r) for r in row_ids)
        return len(self.deleted_base_ids) - before

    def delete_own(self, insert_indexes: Sequence[int]) -> int:
        deleted = 0
        for index in insert_indexes:
            if self.inserted[index] is not None:
                self.inserted[index] = None
                deleted += 1
        return deleted

    def update_own(self, insert_index: int, new_row: tuple) -> None:
        self.inserted[insert_index] = tuple(new_row)

    def live_inserts(self) -> list[tuple]:
        return [row for row in self.inserted if row is not None]

    def live_insert_indexes(self) -> list[int]:
        return [i for i, row in enumerate(self.inserted) if row is not None]

    @property
    def is_empty(self) -> bool:
        return not self.deleted_base_ids and not any(
            row is not None for row in self.inserted
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeltaBuffer({self.table}, +{len(self.live_inserts())}, "
            f"-{len(self.deleted_base_ids)})"
        )
