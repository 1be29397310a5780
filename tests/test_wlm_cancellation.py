"""Cancellation and timeout edge cases: rollback, workers, lock waits.

The deadline tests inject a *stepping clock* into the workload manager:
every clock read advances one simulated second, so a statement budget
expires after a deterministic number of checkpoints — independent of
real wall-clock speed. That pins the timeout to fire mid-execution
(inside the scan / DML pipeline), which is exactly the path that must
roll back atomically and release every lock and admission slot.
"""

import threading
import time

import pytest

from repro import AcceleratedDatabase
from repro.errors import (
    StatementCancelledError,
    StatementTimeoutError,
)


class SteppingClock:
    """Advances a fixed step on every read (see module docstring).

    With step 1.0, a budget built from this clock with ``timeout=T``
    expires exactly at its ``ceil(T)``-th checkpoint. Reads are locked:
    training workers read the clock concurrently.
    """

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            self.now += self.step
            return self.now


def _spin_until(predicate, timeout=5.0, message="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError(f"timed out waiting for {message}")
        time.sleep(0.001)


def _capture_budgets(db):
    """Record every budget the manager hands out (for checkpoint counts)."""
    captured = []
    original = db.wlm.budget_for

    def capturing(*args, **kwargs):
        budget = original(*args, **kwargs)
        captured.append(budget)
        return budget

    db.wlm.budget_for = capturing
    return captured


@pytest.fixture
def db():
    return AcceleratedDatabase(
        slice_count=2, chunk_rows=128, wlm_enabled=True
    )


class TestTimeoutMidInsertSelect:
    def _prepare(self, db):
        conn = db.connect()
        conn.execute("CREATE TABLE SRC (ID INTEGER, V DOUBLE)")
        for base in range(0, 4000, 500):
            rows = ", ".join(
                f"({i}, {float(i)})" for i in range(base, base + 500)
            )
            conn.execute(f"INSERT INTO SRC VALUES {rows}")
        conn.execute("CREATE TABLE TARGET (ID INTEGER, V DOUBLE) IN ACCELERATOR")
        return conn

    def test_timeout_rolls_back_aot_insert_select_atomically(self, db):
        conn = self._prepare(db)
        db.wlm.clock = SteppingClock()
        budgets = _capture_budgets(db)
        with pytest.raises(StatementTimeoutError):
            # 2.5 simulated seconds of budget: survives the first two
            # checkpoints, expires at the third — inside the pipeline.
            conn.execute(
                "INSERT INTO TARGET SELECT ID, V FROM SRC",
                timeout_seconds=2.5,
            )
        assert budgets and budgets[-1].checks >= 2
        db.wlm.clock = time.monotonic

        # Atomic: the failed INSERT ... SELECT left nothing behind.
        assert conn.execute("SELECT COUNT(*) FROM TARGET").scalar() == 0
        assert db.wlm.statements_timed_out == 1
        # No admission slot leaked across the error path.
        for gate in db.wlm.gates.values():
            assert gate.slots_in_use == 0
        # The session is healthy: the same statement completes when
        # given a real budget, and replication still drains.
        conn.execute("INSERT INTO TARGET SELECT ID, V FROM SRC")
        assert conn.execute("SELECT COUNT(*) FROM TARGET").scalar() == 4000
        db.replication.drain()
        assert db.replication.backlog == 0

    def test_timeout_mid_dml_releases_locks(self, db):
        conn = self._prepare(db)
        db.wlm.clock = SteppingClock()
        with pytest.raises(StatementTimeoutError):
            # Expires at the DML target-selection scan's checkpoints
            # (every 1024 rows over the 4000-row table).
            conn.execute("UPDATE SRC SET V = V + 1", timeout_seconds=2.5)
        db.wlm.clock = time.monotonic
        # The statement's autocommit transaction rolled back and dropped
        # its locks: another session can write immediately.
        other = db.connect()
        other.execute("UPDATE SRC SET V = 0 WHERE ID = 1")
        assert (
            conn.execute("SELECT V FROM SRC WHERE ID = 1").scalar() == 0.0
        )


class TestLockWaitBudgets:
    def _prepare(self, db):
        conn = db.connect()
        conn.execute("CREATE TABLE ROWS_T (ID INTEGER, V DOUBLE)")
        conn.execute("INSERT INTO ROWS_T VALUES (1, 1.0), (2, 2.0)")
        return conn

    def test_statement_timeout_fires_during_lock_wait(self, db):
        writer = self._prepare(db)
        writer.execute("BEGIN")
        writer.execute("UPDATE ROWS_T SET V = 9 WHERE ID = 1")
        blocked = db.connect()
        started = time.monotonic()
        with pytest.raises(StatementTimeoutError):
            blocked.execute(
                "UPDATE ROWS_T SET V = 0 WHERE ID = 2",
                timeout_seconds=0.15,
            )
        assert time.monotonic() - started < 5.0
        writer.execute("ROLLBACK")
        # The timed-out session holds nothing: the writer can proceed.
        writer.execute("UPDATE ROWS_T SET V = 5 WHERE ID = 2")
        for gate in db.wlm.gates.values():
            assert gate.slots_in_use == 0

    def test_cancel_aborts_blocked_statement(self, db):
        writer = self._prepare(db)
        writer.execute("BEGIN")
        writer.execute("UPDATE ROWS_T SET V = 9 WHERE ID = 1")
        blocked = db.connect()
        errors = []

        def run_blocked():
            try:
                blocked.execute("UPDATE ROWS_T SET V = 0 WHERE ID = 1")
            except Exception as exc:
                errors.append(exc)

        worker = threading.Thread(target=run_blocked)
        worker.start()
        _spin_until(
            lambda: blocked._budget is not None,
            message="statement to start",
        )
        assert blocked.cancel("test cancel")
        worker.join(timeout=5.0)
        assert not worker.is_alive()
        assert len(errors) == 1
        assert isinstance(errors[0], StatementCancelledError)
        assert db.wlm.statements_cancelled == 1
        writer.execute("ROLLBACK")
        for gate in db.wlm.gates.values():
            assert gate.slots_in_use == 0

    def test_cancel_without_statement_is_a_noop(self, db):
        conn = self._prepare(db)
        assert conn.cancel() is False


class TestTimeoutDuringTraining:
    """A CALL's chunks are gathered once and reused by every epoch; the
    budget is still checked twice per epoch (before admission, and after
    it at the chunk boundary), so a timeout lands between epochs — never
    inside the SGD kernel — and no later epoch re-scans."""

    CALL = (
        "CALL INZA.LOGISTIC_REGRESSION('intable=PTS, target=Y, model=LR, "
        "id=ID, incolumn=X, epochs=10')"
    )

    def _prepare(self, db):
        conn = db.connect()
        conn.execute(
            "CREATE TABLE PTS (ID INTEGER NOT NULL, X DOUBLE, Y INTEGER) "
            "IN ACCELERATOR"
        )
        rows = ", ".join(
            f"({i}, {(i % 17) / 17.0 - 0.5}, {int(i % 17 > 8)})"
            for i in range(300)
        )
        conn.execute(f"INSERT INTO PTS VALUES {rows}")
        return conn

    # 8.5 simulated seconds expire at the ninth checkpoint — the check
    # that opens epoch five; 9.5 at the tenth — epoch five's chunk
    # boundary, with its admission slot held.
    @pytest.mark.parametrize("timeout", [8.5, 9.5])
    def test_timeout_lands_between_epochs_of_the_cached_chunk(
        self, db, timeout
    ):
        conn = self._prepare(db)
        scanned_before = db.accelerator.rows_scanned
        epochs_before = db.metrics.counter("analytics.epochs").value
        db.wlm.clock = SteppingClock()
        budgets = _capture_budgets(db)
        with pytest.raises(StatementTimeoutError):
            conn.execute(self.CALL, timeout_seconds=timeout)
        db.wlm.clock = time.monotonic

        assert budgets[-1].checks == int(timeout) + 1
        # Four whole epochs ran, over one scan of the 300 rows.
        assert (
            db.metrics.counter("analytics.epochs").value - epochs_before == 4
        )
        assert db.accelerator.rows_scanned - scanned_before == 300
        assert "LR" not in db.models
        assert db.wlm.statements_timed_out == 1
        for gate in db.wlm.gates.values():
            assert gate.slots_in_use == 0
        # The session is healthy: the same CALL completes afterwards.
        conn.execute(self.CALL)
        assert db.models.get("LR").epochs_trained == 11
