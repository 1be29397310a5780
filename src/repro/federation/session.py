"""A session: :class:`Connection` holds what outlives one statement —
the user, the special registers, the open transaction with its AOT
deltas and snapshot pin, and the in-flight statement's budget that
:meth:`Connection.cancel` reads. A statement's own state lives in its
pipeline run (:mod:`repro.federation.system`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.accelerator import DeltaBuffer
from repro.catalog import User
from repro.db2.transaction import Transaction
from repro.errors import (
    StatementCancelledError,
    StatementTimeoutError,
    TransactionStateError,
)
from repro.federation.network import STATEMENT_OVERHEAD_BYTES
from repro.federation.router import AccelerationMode
from repro.federation.system import _StatementRun
from repro.result import Result
from repro.sql import ast, parse_script
from repro.wlm import WorkBudget, active_budget

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.federation.database import AcceleratedDatabase

__all__ = ["Connection"]


class Connection:
    """One session: user identity, transaction state, special registers."""

    def __init__(self, system: AcceleratedDatabase, user: User) -> None:
        self._system = system
        self.user = user
        #: The open explicit transaction (BEGIN … COMMIT/ROLLBACK). An
        #: autocommit statement's transaction is the statement's own.
        self._txn: Optional[Transaction] = None
        self.acceleration = AccelerationMode.ENABLE
        #: The routing reason of the session's last query.
        self.last_decision: Optional[str] = None
        #: CURRENT SERVICE CLASS — which WLM tier this session's
        #: statements are admitted under.
        self.service_class = "SYSDEFAULT"
        #: CURRENT STATEMENT TIMEOUT in seconds (None = the service
        #: class default, which may itself be unbounded).
        self.statement_timeout: Optional[float] = None
        #: The in-flight statement's budget — on the session only because
        #: :meth:`cancel` reads it, possibly from another thread.
        self._budget: Optional[WorkBudget] = None

    @property
    def system(self) -> AcceleratedDatabase:
        """The federation this connection belongs to."""
        return self._system

    # -- special registers --------------------------------------------------------

    def set_acceleration(self, mode: str) -> None:
        """Set CURRENT QUERY ACCELERATION (NONE / ENABLE / ALL)."""
        self.acceleration = AccelerationMode.from_name(mode)

    def set_service_class(self, name: str) -> None:
        """Set CURRENT SERVICE CLASS (validated against the registry)."""
        self.service_class = self._system.wlm.classes.get(name).name

    def set_statement_timeout(self, value: Union[str, float, None]) -> None:
        """Set CURRENT STATEMENT TIMEOUT (seconds; NONE/0 clears it)."""
        if value is None or (
            isinstance(value, str) and value.upper() in ("NONE", "NULL")
        ):
            self.statement_timeout = None
            return
        seconds = float(value)
        self.statement_timeout = seconds if seconds > 0 else None

    def cancel(self, reason: str = "cancelled by application") -> bool:
        """Cooperatively cancel the in-flight statement (thread-safe).

        Returns whether a cancellable statement was in flight. The
        statement notices at its next budget checkpoint (queue wakeup,
        chunk/row-batch boundary, lock wait) and aborts with
        :class:`~repro.errors.StatementCancelledError`, rolling back as
        any other statement failure would.
        """
        budget = self._budget
        if budget is None:
            return False
        budget.cancel(reason)
        return True

    # -- transaction control ---------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._txn is not None

    def begin(self) -> None:
        if self._txn is not None:
            raise TransactionStateError("transaction already open")
        self._txn = self._system.db2.txn_manager.begin()

    def commit(self) -> None:
        """Commit the AOT deltas as one accelerator write, then the DB2
        side (which publishes captured change records for replication).
        A commit the accelerator refuses publishes nothing: the
        transaction is rolled back and the error raised."""
        txn = self._txn
        if txn is None:
            raise TransactionStateError("no open transaction")
        system = self._system
        try:
            if txn.aot_deltas:
                for delta in txn.aot_deltas.values():
                    if not delta.is_empty:
                        system.interconnect.send_to_accelerator(
                            STATEMENT_OVERHEAD_BYTES
                        )
                system.accelerator.apply_delta(txn.aot_deltas.values())
        except Exception:
            self.rollback()
            raise
        system.db2.commit(txn)
        self._txn = None
        # Crash point: DB2 committed (changelog published) but the client
        # was not acked and the commit-time drain has not run — DB2 is
        # ahead of the accelerator by exactly this transaction.
        system.faults.crash_point("commit.post_commit_pre_ack")
        replication = system.replication
        if system.auto_replicate and replication.backlog > 0:
            replication.drain()

    def rollback(self) -> None:
        if self._txn is None:
            raise TransactionStateError("no open transaction")
        self._system.db2.rollback(self._txn)  # deltas are simply dropped
        self._txn = None

    def close(self) -> None:
        if self.in_transaction:
            self.rollback()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- context used by the analytics framework -----------------------------------------

    def active_deltas(self) -> dict[str, DeltaBuffer]:
        return self._txn.aot_deltas if self._txn is not None else {}

    def delta_for(self, table: str) -> Optional[DeltaBuffer]:
        """Where a write to AOT ``table`` goes: the open transaction's
        delta buffer (created on first use), or None in autocommit,
        where it applies to the table directly."""
        if self._txn is None:
            return None
        return self._txn.aot_deltas.setdefault(
            table.upper(), DeltaBuffer(table.upper())
        )

    def snapshot_epoch_for_statement(self) -> int:
        """Pin (and return) the transaction's accelerator snapshot epoch."""
        txn = self._txn
        if txn is None:
            return self._system.accelerator.current_epoch
        if txn.snapshot_epoch is None:
            txn.snapshot_epoch = self._system.accelerator.current_epoch
        return txn.snapshot_epoch

    # -- statements ------------------------------------------------------------------------

    def execute(
        self,
        sql: Union[str, ast.Statement],
        params: Sequence[object] = (),
        service_class: Optional[str] = None,
        timeout_seconds: Optional[float] = None,
    ) -> Result:
        """Execute one statement.

        ``service_class`` / ``timeout_seconds`` are per-statement
        attribute overrides of the session's CURRENT SERVICE CLASS and
        CURRENT STATEMENT TIMEOUT registers.
        """
        wlm = self._system.wlm
        statement_class = (
            service_class.upper() if service_class else self.service_class
        )
        override = (
            timeout_seconds
            if timeout_seconds is not None
            else self.statement_timeout
        )
        # Disabled WLM with no timeout set: budget stays None and the
        # statement path pays nothing beyond these two checks.
        budget = (
            wlm.budget_for(statement_class, override)
            if (wlm.enabled or override is not None)
            else None
        )
        self._budget = budget
        try:
            with active_budget(budget):
                return _StatementRun(self, statement_class, budget).run(
                    sql, params
                )
        except (StatementTimeoutError, StatementCancelledError) as exc:
            wlm.record_outcome(exc)
            raise
        finally:
            self._budget = None

    def execute_script(self, sql: str) -> list[Result]:
        """Execute a semicolon-separated script; returns all results."""
        return [self.execute(stmt) for stmt in parse_script(sql)]

    def query(self, sql: str, params: Sequence[object] = ()) -> list[tuple]:
        """Convenience: execute and return rows."""
        return self.execute(sql, params).rows

    def explain(self, sql: Union[str, ast.Statement]) -> dict:
        """Where would this statement run, and why?

        Runs the statement's own bind → authorize → route stages and
        renders their outcome — ``engine``, ``reason``, ``tables`` (and
        their placements), the estimated input rows — without executing
        the statement: it raises exactly the authorization and routing
        errors the statement would.
        """
        return _StatementRun(self, self.service_class, None).explain(sql)
