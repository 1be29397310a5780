"""DB2 change log — the capture side of incremental update.

Every committed modification of a *replicated* (accelerated) table is
appended here as a :class:`ChangeRecord`. The federation's replication
service drains the log and applies the records to the accelerator's
snapshot copies. The log also does byte accounting: a change shipped to
the accelerator costs interconnect bandwidth, which is exactly the price
the paper's legacy ELT flow pays per materialised stage.

Retention: the log is no longer unbounded. :meth:`ChangeLog.trim` drops
the oldest records up to a target LSN, but never past any registered
*retention guard* — the replication cursor and the oldest live recovery
checkpoint both register one, so a trim can never destroy records a
restarting accelerator would still need to replay. A reader whose cursor
nevertheless falls behind the trim point (e.g. a checkpoint restored
after an aggressive forced trim) gets :class:`ChangelogTruncatedError`
and must fall back to a full table reload.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.catalog.schema import TableSchema
from repro.errors import ChangelogTruncatedError

__all__ = ["ChangeRecord", "ChangeLog"]


@dataclass(frozen=True)
class ChangeRecord:
    """One committed row change.

    ``op`` is INSERT, DELETE, or UPDATE. For DELETE/UPDATE, ``before`` is
    the old row image (used to locate the row in the copy); for
    INSERT/UPDATE, ``after`` is the new image.
    """

    lsn: int
    txn_id: int
    table: str
    op: str
    before: Optional[tuple] = None
    after: Optional[tuple] = None

    def byte_size(self, schema: TableSchema) -> int:
        total = 24  # header: lsn, txn, op, table reference
        if self.before is not None:
            total += schema.row_byte_size(self.before)
        if self.after is not None:
            total += schema.row_byte_size(self.after)
        return total


class ChangeLog:
    """Append-only, thread-safe log with reader cursors and retention."""

    def __init__(self) -> None:
        self._records: list[ChangeRecord] = []
        self._next_lsn = 1
        #: Oldest LSN still retained (trim moves it forward).
        self._base_lsn = 1
        self._guard = threading.Lock()
        #: Callables returning the lowest LSN their owner still needs
        #: (None = no constraint right now). ``trim`` never passes the
        #: minimum over all guards.
        self._retention_guards: list[Callable[[], Optional[int]]] = []
        self.records_trimmed = 0
        self.trims = 0

    def __len__(self) -> int:
        return len(self._records)

    @property
    def head_lsn(self) -> int:
        """LSN the next record will get."""
        return self._next_lsn

    @property
    def oldest_lsn(self) -> int:
        """Oldest LSN still readable (head_lsn when the log is empty)."""
        return self._base_lsn

    def make_record(
        self,
        txn_id: int,
        table: str,
        op: str,
        before: Optional[tuple] = None,
        after: Optional[tuple] = None,
    ) -> ChangeRecord:
        """Build a record without assigning an LSN (buffered until commit)."""
        return ChangeRecord(
            lsn=0, txn_id=txn_id, table=table, op=op, before=before, after=after
        )

    def publish(self, records: Sequence[ChangeRecord]) -> int:
        """Append committed records, assigning LSNs; returns last LSN."""
        with self._guard:
            for record in records:
                stamped = ChangeRecord(
                    lsn=self._next_lsn,
                    txn_id=record.txn_id,
                    table=record.table,
                    op=record.op,
                    before=record.before,
                    after=record.after,
                )
                self._records.append(stamped)
                self._next_lsn += 1
            return self._next_lsn - 1

    def read_from(
        self, lsn: int, limit: Optional[int] = None
    ) -> list[ChangeRecord]:
        """Records with LSN >= ``lsn`` in order, at most ``limit`` of them.

        Raises :class:`ChangelogTruncatedError` when ``lsn`` predates the
        retained window — the caller's incremental catch-up is impossible
        and it must resynchronise with a full reload instead.
        """
        with self._guard:
            if lsn < self._base_lsn:
                raise ChangelogTruncatedError(
                    f"changelog truncated: LSN {lsn} requested but oldest "
                    f"retained LSN is {self._base_lsn}"
                )
            start = lsn - self._base_lsn
            if start < 0:
                start = 0
            if limit is None:
                return self._records[start:]
            return self._records[start : start + limit]

    def backlog(self, lsn: int) -> int:
        """How many records a reader at ``lsn`` has not consumed yet."""
        with self._guard:
            return max(0, (self._next_lsn - 1) - (lsn - 1))

    # -- retention -----------------------------------------------------------------

    def add_retention_guard(self, guard: Callable[[], Optional[int]]) -> None:
        """Register a callable returning the lowest LSN its owner needs.

        ``trim`` consults every guard and never drops a record at or above
        the minimum returned value.
        """
        with self._guard:
            self._retention_guards.append(guard)

    def _safe_trim_lsn_locked(self) -> int:
        allowed = self._next_lsn
        for guard in self._retention_guards:
            needed = guard()
            if needed is not None:
                allowed = min(allowed, needed)
        return allowed

    def trim(self, up_to_lsn: Optional[int] = None) -> int:
        """Drop records with LSN below ``up_to_lsn`` (bounded by guards).

        ``None`` trims as far as the guards allow. Returns the number of
        records dropped. The guard clamp (never past the replication
        cursor or the oldest live checkpoint watermark) is what makes
        trimming *durably* safe: an accelerator restarting from its
        checkpoint is guaranteed to find the suffix it needs to replay.
        """
        with self._guard:
            allowed = self._safe_trim_lsn_locked()
            target = allowed if up_to_lsn is None else min(up_to_lsn, allowed)
            if target <= self._base_lsn:
                return 0
            dropped = target - self._base_lsn
            del self._records[:dropped]
            self._base_lsn = target
            self.records_trimmed += dropped
            self.trims += 1
            return dropped
