"""Exception hierarchy for the accelerator reproduction.

Every error raised by the public API derives from :class:`ReproError` so
applications can catch one base class. The hierarchy mirrors the error
classes a DB2 + accelerator federation distinguishes: SQL compilation
problems, catalog/DDL problems, authorisation failures, transaction
conflicts, routing restrictions, and analytics-framework failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SqlError(ReproError):
    """Base class for SQL front-end errors."""


class LexerError(SqlError):
    """Raised when the input text cannot be tokenised."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ParseError(SqlError):
    """Raised when a token stream does not form a valid statement."""


class TypeError_(SqlError):
    """Raised when a value cannot be coerced to a column's SQL type.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class CatalogError(ReproError):
    """Base class for catalog and DDL errors."""


class DuplicateObjectError(CatalogError):
    """Raised when creating an object whose name is already in use."""


class UnknownObjectError(CatalogError):
    """Raised when a referenced table, column, user, or procedure is missing."""


class AuthorizationError(ReproError):
    """Raised when a user lacks a privilege required for an operation.

    Data governance is enforced by the DB2 side of the federation (the
    paper's Section 3 requirement); the accelerator never sees a request
    that failed authorisation.
    """


class TransactionError(ReproError):
    """Base class for transaction-related errors."""


class LockTimeoutError(TransactionError):
    """Raised when a lock cannot be acquired within the configured timeout."""


class TransactionStateError(TransactionError):
    """Raised on commit/rollback without a transaction, or use after abort."""


class RoutingError(ReproError):
    """Raised when a statement cannot be routed to a single engine.

    The canonical case from the paper: a query that references both an
    accelerator-only table and a non-accelerated DB2 table has no engine
    that can see all of its inputs.
    """


class ReplicationError(ReproError):
    """Raised by the change-capture / apply pipeline."""


class ChangelogTruncatedError(ReplicationError):
    """Raised when a reader asks for LSNs the change log no longer holds.

    Retention trimming (``ChangeLog.trim``) drops the oldest records; a
    reader whose cursor fell behind the trim point cannot catch up
    incrementally and must fall back to a full table reload.
    """


class RecoveryError(ReproError):
    """Base class for checkpoint/restart-recovery errors."""


class CorruptCheckpointError(RecoveryError):
    """A checkpoint file failed validation (torn write, bad checksum).

    Restore treats a corrupt checkpoint as absent and falls back to the
    previous one (or a full reload) rather than loading damaged state.
    """


class LinkError(ReproError):
    """Raised when the DB2 ↔ accelerator interconnect drops a transfer.

    Link errors are *transient* by nature: the replication service retries
    them with backoff, and the health monitor only opens the circuit after
    a run of consecutive failures.
    """


class AcceleratorCrashError(ReproError):
    """Raised when the accelerator itself fails mid-operation.

    Injected by the fault framework to simulate an appliance crash or
    restart; callers treat it like a link error but it usually persists
    until the simulated outage ends.
    """


class InjectedCrashError(AcceleratorCrashError):
    """An armed *crash point* fired (kill/restart testing).

    Subclasses :class:`AcceleratorCrashError` so every existing failure
    path (retry, circuit breaker, failback) treats it like a real crash;
    the crash-recovery harness additionally uses it as the signal to kill
    the accelerator and drive a restart + resync.
    """


class ShardUnavailableError(AcceleratorCrashError):
    """Raised when one accelerator shard cannot serve a request.

    Subclasses :class:`AcceleratorCrashError` so the statement-level
    failback machinery reroutes the query to DB2, but the federation
    treats it differently from a whole-appliance crash: the *shard's*
    circuit records the failure while the global health monitor stays
    closed, so statements that only touch surviving shards keep being
    offloaded.
    """

    def __init__(self, shard_id: int, message: str = "") -> None:
        self.shard_id = shard_id
        super().__init__(
            message or f"accelerator shard {shard_id} is unavailable"
        )


class AcceleratorUnavailableError(ReproError):
    """Raised when a statement needs the accelerator but it is OFFLINE.

    Queries over *accelerated copies* can transparently fail back to DB2
    under ``ENABLE WITH FAILBACK``; accelerator-only tables have no DB2
    copy, so statements touching them fail fast with this error instead.
    """


class WorkloadManagementError(ReproError):
    """Base class for workload-management (admission/budget) errors.

    ``retryable`` tells applications whether resubmitting the statement
    later is a sensible reaction: shed statements were rejected *because
    of load*, so they are; a timeout of the statement's own budget is
    not (resubmitting the same work gets the same budget).
    """

    retryable = False


class StatementTimeoutError(WorkloadManagementError):
    """Raised when a statement exceeds its deadline.

    The deadline comes from the session's service class (or an explicit
    statement attribute); executors observe it cooperatively at
    chunk/row-batch boundaries, so the statement unwinds through the
    normal error path — releasing locks, admission slots, and rolling
    back statement-level work.
    """


class StatementCancelledError(WorkloadManagementError):
    """Raised when a statement's budget was cancelled by the application.

    Like a timeout, cancellation is cooperative: the next budget
    checkpoint raises, and the statement's transactional work is undone
    atomically.
    """


class StatementShedError(WorkloadManagementError):
    """Raised when admission control rejects a statement under load.

    Shedding is a fast, local decision — queue above its high-water
    mark, or the accelerator circuit open for sheddable work — so the
    error is *retryable*: the same statement is expected to succeed
    once pressure clears.
    """

    retryable = True


class AdmissionQueueFullError(StatementShedError):
    """Raised when a service class's admission queue is at capacity."""


class LoaderError(ReproError):
    """Raised by the external-source loader."""


class AnalyticsError(ReproError):
    """Raised by the in-database analytics framework and its algorithms."""


class ProcedureError(AnalyticsError):
    """Raised when a stored procedure is invoked with invalid parameters."""
