"""Workload manager: service classes, admission gates, shedding, WLM SQL.

The deterministic tests drive :class:`AdmissionGate` with injectable
clocks and carefully sequenced threads (every thread is joined, every
negative assertion is made on a quiesced gate), proving:

* grants follow strict (priority, arrival) order with bounded waiting;
* slot accounting never leaks across timeout / cancel / shed paths;
* shed statements fail fast with a *retryable* error distinct from
  ordinary SQL failures;
* MON_WLM and ACCEL_GET_WLM/SET_WLM reflect and mutate live state.
"""

import threading
import time

import pytest

from repro.errors import (
    AdmissionQueueFullError,
    StatementCancelledError,
    StatementShedError,
    StatementTimeoutError,
    UnknownObjectError,
    WorkloadManagementError,
)
from repro.wlm import (
    AdmissionGate,
    BUILTIN_CLASSES,
    ServiceClass,
    ServiceClassRegistry,
    WorkBudget,
    WorkloadManager,
    active_budget,
    current_budget,
)


class FakeClock:
    """Manually advanced monotonic clock."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class SteppingClock:
    """Clock that advances a fixed step on every read.

    Lets a statement budget expire after a deterministic *number of
    checkpoints* instead of a wall-clock duration.
    """

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def _spin_until(predicate, timeout=5.0, message="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError(f"timed out waiting for {message}")
        time.sleep(0.001)


INTERACTIVE = BUILTIN_CLASSES[0]
SYSDEFAULT = BUILTIN_CLASSES[1]
ANALYTICS = BUILTIN_CLASSES[2]
BATCH = BUILTIN_CLASSES[3]


class TestServiceClasses:
    def test_builtin_tiers_priority_order(self):
        registry = ServiceClassRegistry()
        assert [c.name for c in registry] == [
            "INTERACTIVE", "SYSDEFAULT", "ANALYTICS", "BATCH",
        ]
        assert registry.get("interactive").priority == 0
        assert registry.get("BATCH").sheddable

    def test_unknown_class_raises(self):
        registry = ServiceClassRegistry()
        with pytest.raises(UnknownObjectError):
            registry.get("NOPE")
        assert not registry.has("NOPE")

    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceClass("X", priority=-1, concurrency_slots=1, queue_depth=1)
        with pytest.raises(ValueError):
            ServiceClass("X", priority=0, concurrency_slots=0, queue_depth=1)
        with pytest.raises(ValueError):
            ServiceClass("X", priority=0, concurrency_slots=1, queue_depth=-1)
        with pytest.raises(ValueError):
            ServiceClass(
                "X", priority=0, concurrency_slots=1, queue_depth=1,
                default_timeout_seconds=0,
            )

    def test_define_and_update(self):
        registry = ServiceClassRegistry()
        registry.define(
            ServiceClass("reporting", priority=5, concurrency_slots=2,
                         queue_depth=8)
        )
        assert registry.get("REPORTING").name == "REPORTING"
        updated = registry.update("reporting", priority=4, sheddable=True)
        assert updated.priority == 4 and updated.sheddable
        with pytest.raises(UnknownObjectError):
            registry.update("missing", priority=1)


class TestWorkBudget:
    def test_unbounded_budget_never_times_out(self):
        clock = FakeClock()
        budget = WorkBudget(clock=clock)
        clock.advance(1e9)
        budget.check()
        assert budget.remaining() is None
        assert not budget.expired

    def test_timeout_raises_after_deadline(self):
        clock = FakeClock()
        budget = WorkBudget(2.0, clock=clock)
        budget.check()
        clock.advance(1.99)
        budget.check()
        assert budget.remaining() == pytest.approx(0.01)
        clock.advance(0.01)
        with pytest.raises(StatementTimeoutError):
            budget.check()
        assert budget.expired

    def test_cancel_raises_with_reason(self):
        budget = WorkBudget()
        budget.cancel("killed by test")
        with pytest.raises(StatementCancelledError, match="killed by test"):
            budget.check()
        assert budget.cancelled

    def test_invalid_timeout(self):
        with pytest.raises(ValueError):
            WorkBudget(0)

    def test_error_hierarchy_and_retryability(self):
        assert issubclass(StatementTimeoutError, WorkloadManagementError)
        assert issubclass(StatementShedError, WorkloadManagementError)
        assert issubclass(AdmissionQueueFullError, StatementShedError)
        assert StatementShedError("x").retryable
        assert AdmissionQueueFullError("x").retryable
        assert not StatementTimeoutError("x").retryable

    def test_active_budget_contextvar(self):
        assert current_budget() is None
        budget = WorkBudget()
        with active_budget(budget):
            assert current_budget() is budget
            with active_budget(None):
                # None is a no-op installer, not a clearer.
                assert current_budget() is budget
        assert current_budget() is None


class TestAdmissionGate:
    def test_immediate_admit_and_release(self):
        gate = AdmissionGate("DB2", slots=2)
        ticket = gate.admit(SYSDEFAULT)
        assert not ticket.bypassed
        assert gate.slots_in_use == 1
        gate.release(ticket)
        assert gate.slots_in_use == 0
        assert gate.admitted == 1 and gate.releases == 1

    def test_release_is_idempotent(self):
        gate = AdmissionGate("DB2", slots=2)
        ticket = gate.admit(SYSDEFAULT)
        gate.release(ticket)
        gate.release(ticket)
        gate.release(ticket)
        assert gate.slots_in_use == 0

    def test_bypass_consumes_no_slot(self):
        gate = AdmissionGate("DB2", slots=1)
        holder = gate.admit(SYSDEFAULT)
        assert gate.slots_in_use == 1
        ticket = gate.admit(INTERACTIVE, bypass=True)
        assert ticket.bypassed and ticket.weight == 0
        assert gate.slots_in_use == 1  # bypass never queued nor consumed
        gate.release(ticket)
        gate.release(holder)
        assert gate.slots_in_use == 0

    def test_weight_clamped_to_gate_size(self):
        gate = AdmissionGate("ACCELERATOR", slots=2)
        ticket = gate.admit(SYSDEFAULT, weight=10)
        assert ticket.weight == 2
        gate.release(ticket)
        assert gate.slots_in_use == 0

    def test_strict_priority_order_on_release(self):
        """A freed slot goes to the highest-priority earliest waiter,
        not to the first arrival."""
        gate = AdmissionGate("DB2", slots=1, max_wait_seconds=30.0)
        holder = gate.admit(SYSDEFAULT)
        order = []
        tickets = []

        def enqueue(service_class, tag):
            ticket = gate.admit(service_class)
            order.append(tag)
            tickets.append(ticket)

        batch = threading.Thread(target=enqueue, args=(BATCH, "batch"))
        batch.start()
        _spin_until(lambda: gate.queue_length == 1, message="batch queued")
        interactive = threading.Thread(
            target=enqueue, args=(INTERACTIVE, "interactive")
        )
        interactive.start()
        _spin_until(lambda: gate.queue_length == 2,
                    message="interactive queued")

        gate.release(holder)
        interactive.join(timeout=5.0)
        # INTERACTIVE (arrived later, higher priority) got the slot;
        # BATCH is still waiting on it.
        assert order == ["interactive"]
        gate.release(tickets[0])
        batch.join(timeout=5.0)
        assert order == ["interactive", "batch"]
        gate.release(tickets[1])
        assert gate.slots_in_use == 0
        assert gate.queue_length == 0

    def test_head_of_line_blocks_lower_priority_on_gate_slots(self):
        """Strict ordering on the shared resource: a later, lighter,
        lower-priority waiter must not jump a heavy head waiter that is
        blocked on gate slots."""
        gate = AdmissionGate("ACCELERATOR", slots=3, max_wait_seconds=30.0)
        holder = gate.admit(SYSDEFAULT, weight=2)  # 1 slot free
        granted = []
        tickets = {}

        def enqueue(service_class, weight, tag):
            tickets[tag] = gate.admit(service_class, weight=weight)
            granted.append(tag)

        heavy = threading.Thread(
            target=enqueue, args=(INTERACTIVE, 2, "heavy")
        )
        heavy.start()
        _spin_until(lambda: gate.queue_length == 1, message="heavy queued")
        light = threading.Thread(target=enqueue, args=(BATCH, 1, "light"))
        light.start()
        _spin_until(lambda: gate.queue_length == 2, message="light queued")
        # One slot is free and "light" would fit — but the head of the
        # queue needs two, so nothing is granted.
        time.sleep(0.1)
        assert granted == []
        gate.release(holder)
        # Three slots free: both fit now and are granted in one pass (the
        # threads wake in scheduler order, so only membership is asserted).
        heavy.join(timeout=5.0)
        light.join(timeout=5.0)
        assert sorted(granted) == ["heavy", "light"]
        gate.release(tickets["heavy"])
        gate.release(tickets["light"])
        assert gate.slots_in_use == 0

    def test_class_cap_blocked_waiter_is_skipped(self):
        """A waiter blocked only by its own class's concurrency cap must
        not block other classes (no cross-class starvation)."""
        narrow = ServiceClass(
            "NARROW", priority=0, concurrency_slots=1, queue_depth=8
        )
        gate = AdmissionGate("DB2", slots=4, max_wait_seconds=30.0)
        first = gate.admit(narrow)
        done = []
        tickets = {}

        def enqueue_second():
            tickets["second"] = gate.admit(narrow)
            done.append("second")

        second = threading.Thread(target=enqueue_second)
        second.start()
        _spin_until(lambda: gate.queue_length == 1, message="second queued")
        # Plenty of gate slots: the BATCH statement (lower priority,
        # behind the capped NARROW waiter) is admitted immediately.
        batch = gate.admit(BATCH)
        assert not batch.bypassed
        assert done == []
        gate.release(first)
        second.join(timeout=5.0)
        assert done == ["second"]
        gate.release(tickets["second"])
        gate.release(batch)
        assert gate.slots_in_use == 0

    def test_queue_depth_exceeded_sheds_fast(self):
        shallow = ServiceClass(
            "SHALLOW", priority=2, concurrency_slots=1, queue_depth=0
        )
        gate = AdmissionGate("DB2", slots=1)
        holder = gate.admit(shallow)
        with pytest.raises(AdmissionQueueFullError) as excinfo:
            gate.admit(shallow)
        assert excinfo.value.retryable
        assert gate.shed == 1
        assert gate.queue_length == 0  # the shed waiter left no residue
        gate.release(holder)
        assert gate.slots_in_use == 0

    def test_bounded_wait_times_out_with_retryable_shed(self):
        gate = AdmissionGate("DB2", slots=1, max_wait_seconds=0.12)
        holder = gate.admit(SYSDEFAULT)
        started = time.monotonic()
        with pytest.raises(StatementShedError) as excinfo:
            gate.admit(SYSDEFAULT)
        assert excinfo.value.retryable
        assert time.monotonic() - started < 5.0
        assert gate.queue_timeouts == 1
        assert gate.queue_length == 0
        gate.release(holder)
        assert gate.slots_in_use == 0

    def test_cancelled_budget_aborts_queued_wait(self):
        gate = AdmissionGate("DB2", slots=1, max_wait_seconds=30.0)
        holder = gate.admit(SYSDEFAULT)
        budget = WorkBudget()
        budget.cancel("user hit ctrl-c")
        with pytest.raises(StatementCancelledError):
            gate.admit(SYSDEFAULT, budget=budget)
        assert gate.queue_length == 0
        gate.release(holder)
        assert gate.slots_in_use == 0

    def test_budget_timeout_aborts_queued_wait(self):
        gate = AdmissionGate("DB2", slots=1, max_wait_seconds=30.0)
        holder = gate.admit(SYSDEFAULT)
        with pytest.raises(StatementTimeoutError):
            gate.admit(SYSDEFAULT, budget=WorkBudget(0.05))
        assert gate.queue_length == 0
        gate.release(holder)
        assert gate.slots_in_use == 0

    def test_resize_grants_waiters(self):
        gate = AdmissionGate("DB2", slots=1, max_wait_seconds=30.0)
        holder = gate.admit(SYSDEFAULT)
        tickets = []

        def enqueue():
            tickets.append(gate.admit(SYSDEFAULT))

        waiter = threading.Thread(target=enqueue)
        waiter.start()
        _spin_until(lambda: gate.queue_length == 1, message="waiter queued")
        gate.resize(2)
        waiter.join(timeout=5.0)
        assert len(tickets) == 1
        gate.release(holder)
        gate.release(tickets[0])
        assert gate.slots_in_use == 0
        with pytest.raises(ValueError):
            gate.resize(0)

    def test_no_slot_leak_after_mixed_outcomes(self):
        """Every admission path — granted, shed, queue-full, budget
        abort — returns the gate to zero slots in use."""
        shallow = ServiceClass(
            "SHALLOW", priority=2, concurrency_slots=1, queue_depth=0
        )
        gate = AdmissionGate("DB2", slots=2, max_wait_seconds=0.08)
        a = gate.admit(SYSDEFAULT)
        b = gate.admit(shallow)
        with pytest.raises(AdmissionQueueFullError):
            gate.admit(shallow)  # queue full
        with pytest.raises(StatementShedError):
            gate.admit(SYSDEFAULT)  # bounded wait expires
        cancelled = WorkBudget()
        cancelled.cancel()
        with pytest.raises(StatementCancelledError):
            gate.admit(SYSDEFAULT, budget=cancelled)
        gate.release(a)
        gate.release(b)
        gate.release(a)  # double release must not go negative
        snapshot = gate.snapshot()
        assert snapshot["slots_in_use"] == 0
        assert snapshot["queued"] == 0
        assert gate.admitted == gate.releases == 2


class _StubHealth:
    def __init__(self, available=True):
        self.available = available


class TestLoadShedding:
    def _manager(self, **kwargs):
        kwargs.setdefault("enabled", True)
        return WorkloadManager(**kwargs)

    def test_non_sheddable_class_never_shed(self):
        manager = self._manager(health=_StubHealth(available=False))
        ticket = manager.admit("ACCELERATOR", "INTERACTIVE")
        assert ticket is not None
        manager.release(ticket)
        assert manager.shedder.shed_circuit_open == 0

    def test_circuit_open_sheds_sheddable_classes_fast(self):
        manager = self._manager(health=_StubHealth(available=False))
        with pytest.raises(StatementShedError, match="circuit is open"):
            manager.admit("ACCELERATOR", "ANALYTICS")
        assert manager.shedder.shed_circuit_open == 1
        assert manager.statements_shed == 1
        # The DB2 gate is unaffected by the accelerator circuit.
        ticket = manager.admit("DB2", "ANALYTICS")
        assert ticket is not None
        manager.release(ticket)

    def test_queue_high_water_sheds(self):
        class _StubGate:
            engine = "DB2"
            slots_total = 2
            queue_length = 4

        manager = self._manager(queue_high_water=2.0)
        reason = manager.shedder.shed_reason(
            _StubGate(), manager.classes.get("BATCH")
        )
        assert reason is not None and "high-water" in reason
        assert manager.shedder.shed_queue_pressure == 1
        # Same pressure, non-sheddable class: allowed to queue.
        assert (
            manager.shedder.shed_reason(
                _StubGate(), manager.classes.get("SYSDEFAULT")
            )
            is None
        )

    def test_cheap_statements_bypass_even_under_shedding_pressure(self):
        manager = self._manager(health=_StubHealth(available=False))
        ticket = manager.admit("ACCELERATOR", "ANALYTICS", estimated_rows=10)
        assert ticket is not None and ticket.bypassed
        manager.release(ticket)


class TestWorkloadManager:
    def test_disabled_is_pass_through(self):
        manager = WorkloadManager(enabled=False)
        assert manager.admit("DB2", "SYSDEFAULT") is None
        assert manager.budget_for("SYSDEFAULT") is None
        manager.release(None)  # no-op

    def test_explicit_timeout_works_while_disabled(self):
        manager = WorkloadManager(enabled=False)
        budget = manager.budget_for("SYSDEFAULT", timeout_override=1.5)
        assert budget is not None and budget.timeout_seconds == 1.5

    def test_enabled_applies_class_default_timeout(self):
        manager = WorkloadManager(enabled=True)
        budget = manager.budget_for("INTERACTIVE")
        assert budget.timeout_seconds == 5.0
        unbounded = manager.budget_for("SYSDEFAULT")
        assert unbounded is not None  # cancellable even without deadline
        assert unbounded.timeout_seconds is None

    def test_cost_aware_weight_and_bypass(self):
        manager = WorkloadManager(enabled=True)
        assert manager.weight_for(None) == 1
        assert manager.weight_for(99_999) == 1
        assert manager.weight_for(100_000) == 2
        assert manager.is_cheap(511)
        assert not manager.is_cheap(512)
        assert not manager.is_cheap(None)
        heavy = manager.admit(
            "ACCELERATOR", "ANALYTICS", estimated_rows=200_000
        )
        assert heavy.weight == 2
        manager.release(heavy)

    def test_record_outcome_counters(self):
        manager = WorkloadManager(enabled=True)
        manager.record_outcome(StatementTimeoutError("t"))
        manager.record_outcome(StatementCancelledError("c"))
        manager.record_outcome(ValueError("other"))
        assert manager.statements_timed_out == 1
        assert manager.statements_cancelled == 1

    def test_resize_unknown_engine(self):
        manager = WorkloadManager(enabled=True)
        with pytest.raises(KeyError):
            manager.resize_gate("GPU", 4)
        manager.resize_gate("db2", 3)
        assert manager.gates["DB2"].slots_total == 3

    def test_snapshot_and_monitor_rows_shape(self):
        manager = WorkloadManager(enabled=True)
        ticket = manager.admit("DB2", "BATCH")
        snapshot = manager.snapshot()
        assert snapshot["enabled"] == 1
        assert snapshot["db2.slots_in_use"] == 1
        assert snapshot["accelerator.slots_in_use"] == 0
        assert "shed_queue_pressure" in snapshot
        rows = manager.monitor_rows()
        assert len(rows) == 2 * len(BUILTIN_CLASSES)
        assert all(len(row) == 15 for row in rows)
        batch_row = next(
            row for row in rows if row[0] == "DB2" and row[1] == "BATCH"
        )
        assert batch_row[6] == 1  # RUNNING
        manager.release(ticket)


class TestWlmSql:
    """End-to-end: service-class registers, procedures, MON_WLM."""

    def _system(self, **kwargs):
        from repro.federation.database import AcceleratedDatabase

        kwargs.setdefault("wlm_enabled", True)
        db = AcceleratedDatabase(**kwargs)
        conn = db.connect("SYSADM")
        conn.execute("CREATE TABLE T (A INTEGER, B VARCHAR(8))")
        conn.execute(
            "INSERT INTO T VALUES " +
            ", ".join(f"({i}, 'v{i % 7}')" for i in range(64))
        )
        return db, conn

    def test_set_current_service_class_register(self):
        db, conn = self._system()
        conn.execute("SET CURRENT SERVICE CLASS = ANALYTICS")
        assert conn.service_class == "ANALYTICS"
        from repro.errors import SqlError

        with pytest.raises((SqlError, UnknownObjectError)):
            conn.execute("SET CURRENT SERVICE CLASS = NOPE")

    def test_set_current_statement_timeout_register(self):
        db, conn = self._system()
        conn.execute("SET CURRENT STATEMENT TIMEOUT = '2.5'")
        assert conn.statement_timeout == 2.5
        conn.execute("SET CURRENT STATEMENT TIMEOUT = NONE")
        assert conn.statement_timeout is None

    def test_statements_are_admitted_and_counted(self):
        db, conn = self._system()
        db.wlm.cheap_rows = 0  # force real admission for the tiny table
        conn.execute("SELECT COUNT(*) FROM T")
        gate_counts = {
            engine: gate.admitted for engine, gate in db.wlm.gates.items()
        }
        assert sum(gate_counts.values()) >= 1
        for gate in db.wlm.gates.values():
            assert gate.slots_in_use == 0  # released after the statement

    def test_cheap_statement_bypasses_queue(self):
        db, conn = self._system()
        conn.execute("SELECT * FROM T WHERE A = 3")
        assert sum(g.bypassed for g in db.wlm.gates.values()) >= 1

    def test_mon_wlm_reflects_live_state(self):
        db, conn = self._system()
        db.wlm.cheap_rows = 0
        conn.execute("SELECT COUNT(*) FROM T")
        result = conn.execute(
            "SELECT ENGINE, SERVICE_CLASS, ADMITTED, RUNNING "
            "FROM SYSACCEL.MON_WLM WHERE ADMITTED > 0"
        )
        assert result.rows, "the admitted statement must appear in MON_WLM"
        for engine, service_class, admitted, running in result.rows:
            assert service_class == "SYSDEFAULT"
            assert admitted >= 1
            assert running == 0

    def test_mon_wlm_readable_with_wlm_disabled(self):
        db, conn = self._system(wlm_enabled=False)
        result = conn.execute("SELECT COUNT(*) FROM SYSACCEL.MON_WLM")
        assert result.rows[0][0] == 8  # 2 engines x 4 built-in classes

    def test_accel_set_wlm_round_trip(self):
        db, conn = self._system(wlm_enabled=False)
        conn.execute("CALL SYSPROC.ACCEL_SET_WLM('enabled=on')")
        assert db.wlm.enabled
        conn.execute(
            "CALL SYSPROC.ACCEL_SET_WLM('engine=ACCELERATOR, slots=9')"
        )
        assert db.wlm.gates["ACCELERATOR"].slots_total == 9
        conn.execute(
            "CALL SYSPROC.ACCEL_SET_WLM("
            "'class=REPORTING, priority=5, class_slots=3, queue_depth=4, "
            "timeout=30, sheddable=on')"
        )
        reporting = db.wlm.classes.get("REPORTING")
        assert reporting.priority == 5
        assert reporting.concurrency_slots == 3
        assert reporting.queue_depth == 4
        assert reporting.default_timeout_seconds == 30.0
        assert reporting.sheddable
        conn.execute("CALL SYSPROC.ACCEL_SET_WLM('class=REPORTING, timeout=none')")
        assert db.wlm.classes.get("REPORTING").default_timeout_seconds is None

    def test_accel_set_wlm_rejects_bad_input(self):
        from repro.errors import ProcedureError

        db, conn = self._system()
        for params in (
            "",                        # nothing to change
            "enabled=maybe",           # bad flag
            "engine=GPU, slots=2",     # unknown engine
            "engine=DB2",              # missing slots
            "class=X",                 # no class changes
            "max_wait=0",              # non-positive
        ):
            with pytest.raises(ProcedureError):
                conn.execute(f"CALL SYSPROC.ACCEL_SET_WLM('{params}')")

    def test_accel_set_wlm_requires_admin(self):
        from repro.errors import AuthorizationError

        db, conn = self._system()
        db.create_user("APP")
        app = db.connect("APP")
        with pytest.raises(AuthorizationError):
            app.execute("CALL SYSPROC.ACCEL_SET_WLM('enabled=off')")

    def test_accel_get_wlm_reports_queue_state(self):
        db, conn = self._system()
        db.wlm.cheap_rows = 0
        conn.execute("SELECT COUNT(*) FROM T")
        result = conn.execute("CALL SYSPROC.ACCEL_GET_WLM('')")
        text = "\n".join(str(row[0]) for row in result.rows)
        assert "enabled=on" in text
        assert "DB2:" in text and "ACCELERATOR:" in text
        assert "admitted=" in text

    def test_wlm_metrics_source_registered(self):
        db, conn = self._system()
        collected = db.metrics.collect()
        assert collected["wlm.enabled"] == 1
        assert "wlm.db2.slots_total" in collected
        assert "wlm.statements_shed" in collected

    def test_statement_attribute_overrides_session_class(self):
        db, conn = self._system()
        db.wlm.cheap_rows = 0
        conn.execute("SELECT COUNT(*) FROM T", service_class="BATCH")
        stats = {
            name: stats
            for gate in db.wlm.gates.values()
            for name, stats in gate.class_stats().items()
        }
        assert "BATCH" in stats and stats["BATCH"].admitted >= 1
