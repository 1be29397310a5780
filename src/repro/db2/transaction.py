"""Transactions and locking for the DB2 engine.

The original IDAA only had to support the *cursor stability* isolation
level on the DB2 side (Sec. 2 of the paper); this module reproduces that
model:

* readers take table-level **S locks for the duration of one statement**
  (released at statement end, so no repeatable read);
* writers take table-level **X locks held until commit/rollback**;
* rollback replays a per-transaction undo log;
* committed changes to replicated tables are published to the change log
  at commit time, never before.

AOT changes do not pass through here — they are buffered in
accelerator-side delta buffers attached to the transaction (see
:mod:`repro.accelerator.deltas`), which is exactly the "IDAA has to be
aware of the DB2 transaction context" extension the paper describes.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, TYPE_CHECKING

from repro.errors import LockTimeoutError, TransactionStateError
from repro.wlm.budget import WorkBudget, current_budget

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.accelerator.deltas import DeltaBuffer
    from repro.db2.changelog import ChangeRecord

__all__ = [
    "LockMode",
    "LockManager",
    "TransactionState",
    "Transaction",
    "TransactionManager",
]


class LockMode(Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


class _TableLock:
    """One table's lock state: either N sharers or one exclusive owner.

    Re-entrant per transaction; an S holder may upgrade to X when it is
    the only sharer.
    """

    def __init__(self) -> None:
        self.condition = threading.Condition()
        self.sharers: dict[int, int] = {}  # txn id -> acquisition count
        self.exclusive_owner: Optional[int] = None
        self.exclusive_count = 0

    def acquire(
        self,
        txn_id: int,
        mode: LockMode,
        timeout: float,
        budget: Optional[WorkBudget] = None,
    ) -> None:
        deadline = time.monotonic() + timeout
        with self.condition:
            while not self._grantable(txn_id, mode):
                if budget is not None:
                    # A timed-out/cancelled statement must not keep
                    # waiting for a lock it will never use; nothing is
                    # held yet, so raising here releases nothing.
                    budget.check()
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise LockTimeoutError(
                        f"transaction {txn_id} timed out waiting for "
                        f"{mode.value} lock"
                    )
                # With a budget attached, wake periodically to notice
                # cancellation even when no lock holder signals us.
                wait_for = remaining if budget is None else min(remaining, 0.05)
                self.condition.wait(wait_for)
            if mode is LockMode.SHARED:
                if self.exclusive_owner == txn_id:
                    # X already held: S is implied, count it against X.
                    self.exclusive_count += 1
                else:
                    self.sharers[txn_id] = self.sharers.get(txn_id, 0) + 1
            else:
                if self.exclusive_owner is None:
                    # Possible upgrade: drop our own S entries first.
                    self.sharers.pop(txn_id, None)
                    self.exclusive_owner = txn_id
                self.exclusive_count += 1

    def _grantable(self, txn_id: int, mode: LockMode) -> bool:
        if mode is LockMode.SHARED:
            return self.exclusive_owner is None or self.exclusive_owner == txn_id
        other_sharers = [t for t in self.sharers if t != txn_id]
        if other_sharers:
            return False
        return self.exclusive_owner is None or self.exclusive_owner == txn_id

    def release(self, txn_id: int, mode: LockMode) -> None:
        with self.condition:
            if mode is LockMode.EXCLUSIVE or self.exclusive_owner == txn_id:
                if self.exclusive_owner != txn_id:
                    return
                self.exclusive_count -= 1
                if self.exclusive_count <= 0:
                    self.exclusive_owner = None
                    self.exclusive_count = 0
            else:
                count = self.sharers.get(txn_id, 0) - 1
                if count <= 0:
                    self.sharers.pop(txn_id, None)
                else:
                    self.sharers[txn_id] = count
            self.condition.notify_all()

    def release_all(self, txn_id: int) -> None:
        with self.condition:
            self.sharers.pop(txn_id, None)
            if self.exclusive_owner == txn_id:
                self.exclusive_owner = None
                self.exclusive_count = 0
            self.condition.notify_all()


class LockManager:
    """Table-granularity lock table with timeout-based deadlock breaking."""

    def __init__(self, timeout: float = 2.0) -> None:
        self.timeout = timeout
        self._locks: dict[str, _TableLock] = {}
        self._guard = threading.Lock()

    def _lock_for(self, table: str) -> _TableLock:
        with self._guard:
            lock = self._locks.get(table)
            if lock is None:
                lock = _TableLock()
                self._locks[table] = lock
            return lock

    def acquire(self, txn: "Transaction", table: str, mode: LockMode) -> None:
        lock = self._lock_for(table)
        lock.acquire(txn.txn_id, mode, self.timeout, budget=current_budget())
        txn.note_lock(table, mode)

    def release_statement_locks(self, txn: "Transaction") -> None:
        """Release S locks at statement end (cursor stability)."""
        for table in txn.take_statement_locks():
            self._lock_for(table).release(txn.txn_id, LockMode.SHARED)

    def release_all(self, txn: "Transaction") -> None:
        for table in txn.take_all_locked_tables():
            self._lock_for(table).release_all(txn.txn_id)


class TransactionState(Enum):
    ACTIVE = "ACTIVE"
    COMMITTED = "COMMITTED"
    ABORTED = "ABORTED"


@dataclass
class Transaction:
    """One unit of work spanning DB2 and (through deltas) the accelerator."""

    txn_id: int
    state: TransactionState = TransactionState.ACTIVE
    undo_log: list[Callable[[], None]] = field(default_factory=list)
    pending_changes: list["ChangeRecord"] = field(default_factory=list)
    #: AOT table name -> uncommitted delta buffer on the accelerator.
    aot_deltas: dict[str, "DeltaBuffer"] = field(default_factory=dict)
    #: Snapshot epoch pinned by the first accelerator read of this txn.
    snapshot_epoch: Optional[int] = None
    _statement_s_locks: set[str] = field(default_factory=set)
    _locked_tables: set[str] = field(default_factory=set)

    def require_active(self) -> None:
        if self.state is not TransactionState.ACTIVE:
            raise TransactionStateError(
                f"transaction {self.txn_id} is {self.state.value}"
            )

    def note_lock(self, table: str, mode: LockMode) -> None:
        self._locked_tables.add(table)
        if mode is LockMode.SHARED:
            self._statement_s_locks.add(table)

    def take_statement_locks(self) -> set[str]:
        taken = self._statement_s_locks
        self._statement_s_locks = set()
        return taken

    def take_all_locked_tables(self) -> set[str]:
        taken = self._locked_tables
        self._locked_tables = set()
        self._statement_s_locks = set()
        return taken

    def add_undo(self, action: Callable[[], None]) -> None:
        self.undo_log.append(action)

    def savepoint(self) -> tuple:
        """Where the transaction stands now, for :meth:`rollback_to`: the
        undo log's and change list's lengths and each AOT delta's."""
        deltas = {
            table: (len(delta.inserted), set(delta.deleted_base_ids))
            for table, delta in self.aot_deltas.items()
        }
        return len(self.undo_log), len(self.pending_changes), deltas

    def rollback_to(self, savepoint: tuple) -> None:
        """Undo what the transaction did after ``savepoint`` — a failed
        statement inside an explicit transaction — and keep the rest."""
        undo_length, changes_length, deltas = savepoint
        while len(self.undo_log) > undo_length:
            self.undo_log.pop()()
        del self.pending_changes[changes_length:]
        for table, delta in list(self.aot_deltas.items()):
            saved = deltas.get(table)
            if saved is None:
                del self.aot_deltas[table]
                continue
            inserted_length, deleted_ids = saved
            del delta.inserted[inserted_length:]
            delta.deleted_base_ids = deleted_ids


class TransactionManager:
    """Creates transactions and drives commit/rollback."""

    def __init__(self, lock_manager: Optional[LockManager] = None) -> None:
        self.lock_manager = lock_manager or LockManager()
        self._ids = itertools.count(1)
        self.commits = 0
        self.rollbacks = 0
        #: Open transactions by id: ``begin`` adds, commit/rollback remove.
        self._active: dict[int, Transaction] = {}
        self._active_lock = threading.Lock()

    def begin(self) -> Transaction:
        txn = Transaction(txn_id=next(self._ids))
        with self._active_lock:
            self._active[txn.txn_id] = txn
        return txn

    def oldest_snapshot_epoch(self) -> Optional[int]:
        """The oldest accelerator snapshot epoch an open transaction has
        pinned, or None when no open transaction has pinned one."""
        with self._active_lock:
            pinned = [
                txn.snapshot_epoch
                for txn in self._active.values()
                if txn.snapshot_epoch is not None
            ]
        return min(pinned, default=None)

    def _end(self, txn: Transaction) -> None:
        with self._active_lock:
            self._active.pop(txn.txn_id, None)

    def commit(self, txn: Transaction) -> list["ChangeRecord"]:
        """Commit: release locks, hand back the changes to publish."""
        txn.require_active()
        txn.state = TransactionState.COMMITTED
        txn.undo_log.clear()
        changes = list(txn.pending_changes)
        txn.pending_changes.clear()
        self.lock_manager.release_all(txn)
        self._end(txn)
        self.commits += 1
        return changes

    def rollback(self, txn: Transaction) -> None:
        txn.require_active()
        txn.rollback_to((0, 0, {}))  # the savepoint of a fresh transaction
        txn.state = TransactionState.ABORTED
        self.lock_manager.release_all(txn)
        self._end(txn)
        self.rollbacks += 1

    def end_statement(self, txn: Transaction) -> None:
        """Statement boundary: cursor stability drops read locks here."""
        self.lock_manager.release_statement_locks(txn)
