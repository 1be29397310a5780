"""Fault injection, health tracking, FAILBACK routing, resilient replication."""

import pytest

from repro import AcceleratedDatabase
from repro.errors import (
    AcceleratorCrashError,
    AcceleratorUnavailableError,
    LinkError,
)
from repro.federation import replication
from repro.federation.faults import FaultInjector
from repro.federation.health import AcceleratorHealthState, HealthMonitor
from repro.federation.router import AccelerationMode


@pytest.fixture
def db():
    # A long cooldown keeps the circuit firmly open once tripped, so the
    # tests that want recovery lower it explicitly.
    return AcceleratedDatabase(
        slice_count=2, chunk_rows=64, cooldown_seconds=60.0
    )


@pytest.fixture
def conn(db):
    return db.connect()


def accelerated_items(db, conn, rows=20):
    conn.execute(
        "CREATE TABLE ITEMS (ID INTEGER NOT NULL PRIMARY KEY, V DOUBLE)"
    )
    values = ", ".join(f"({i}, {float(i)})" for i in range(rows))
    conn.execute(f"INSERT INTO ITEMS VALUES {values}")
    db.add_table_to_accelerator("ITEMS")
    return rows


class TestFaultInjector:
    def test_probability_faults_are_deterministic_per_seed(self):
        def fired_pattern(seed):
            injector = FaultInjector(seed=seed)
            injector.add("x", probability=0.5)
            pattern = []
            for _ in range(50):
                try:
                    injector.check("x")
                    pattern.append(0)
                except LinkError:
                    pattern.append(1)
            return pattern

        assert fired_pattern(7) == fired_pattern(7)
        assert fired_pattern(7) != fired_pattern(8)

    def test_schedule_fires_on_exact_call_indexes(self):
        injector = FaultInjector()
        injector.add("x", schedule=[2, 4])
        outcomes = []
        for _ in range(5):
            try:
                injector.check("x")
                outcomes.append("ok")
            except LinkError:
                outcomes.append("fault")
        assert outcomes == ["ok", "fault", "ok", "fault", "ok"]
        assert injector.injected["x"] == 2
        assert injector.calls["x"] == 5

    def test_count_limited_rule_deactivates(self):
        injector = FaultInjector()
        rule = injector.add("x", count=2)
        for _ in range(2):
            with pytest.raises(LinkError):
                injector.check("x")
        injector.check("x")  # rule exhausted
        assert not rule.active
        assert rule.fired == 2

    def test_forced_context_manager_scopes_the_outage(self):
        injector = FaultInjector()
        with injector.forced("x", kind="crash"):
            with pytest.raises(AcceleratorCrashError):
                injector.check("x")
        injector.check("x")  # no rules left
        assert injector.rules() == []

    def test_latency_rule_inflates_simulated_time_without_raising(self, db):
        db.faults.add("interconnect", kind="latency", latency_seconds=0.5)
        before = db.interconnect.simulated_seconds
        db.interconnect.send_to_accelerator(1000)
        assert db.interconnect.simulated_seconds >= before + 0.5
        assert db.interconnect.injected_latency_seconds == pytest.approx(0.5)

    def test_unknown_kind_and_bad_probability_rejected(self):
        injector = FaultInjector()
        with pytest.raises(ValueError):
            injector.add("x", kind="meteor")
        with pytest.raises(ValueError):
            injector.add("x", probability=1.5)


class TestHealthMonitor:
    def test_threshold_walks_online_degraded_offline(self):
        monitor = HealthMonitor(failure_threshold=3, cooldown_seconds=60)
        assert monitor.state is AcceleratorHealthState.ONLINE
        monitor.record_failure()
        assert monitor.state is AcceleratorHealthState.DEGRADED
        monitor.record_success()
        assert monitor.state is AcceleratorHealthState.ONLINE
        for _ in range(3):
            monitor.record_failure()
        assert monitor.state is AcceleratorHealthState.OFFLINE
        assert monitor.times_opened == 1
        assert not monitor.allow_request()
        assert monitor.requests_rejected == 1

    def test_half_open_probe_success_closes_circuit(self):
        now = [0.0]
        monitor = HealthMonitor(
            failure_threshold=1, cooldown_seconds=10, clock=lambda: now[0]
        )
        monitor.record_failure()
        assert not monitor.allow_request()  # cooldown not elapsed
        now[0] = 11.0
        assert monitor.allow_request()  # half-open probe admitted
        assert monitor.probes_attempted == 1
        monitor.record_success()
        assert monitor.state is AcceleratorHealthState.ONLINE
        assert monitor.times_closed == 1

    def test_failed_probe_restarts_cooldown(self):
        now = [0.0]
        monitor = HealthMonitor(
            failure_threshold=1, cooldown_seconds=10, clock=lambda: now[0]
        )
        monitor.record_failure()
        now[0] = 11.0
        assert monitor.allow_request()
        monitor.record_failure()  # probe failed at t=11
        assert monitor.state is AcceleratorHealthState.OFFLINE
        now[0] = 15.0
        assert not monitor.allow_request()  # new cooldown from t=11
        now[0] = 22.0
        assert monitor.allow_request()

    def test_force_offline_and_reset(self):
        monitor = HealthMonitor()
        monitor.force_offline()
        assert monitor.state is AcceleratorHealthState.OFFLINE
        monitor.reset()
        assert monitor.state is AcceleratorHealthState.ONLINE
        assert monitor.times_closed == 1


class TestFailbackRegister:
    def test_set_register_parses_multi_word_value(self, conn):
        result = conn.execute(
            "SET CURRENT QUERY ACCELERATION = ENABLE WITH FAILBACK"
        )
        assert "ENABLE WITH FAILBACK" in result.message
        assert conn.acceleration is AccelerationMode.ENABLE_WITH_FAILBACK

    def test_unknown_mode_still_rejected(self, conn):
        from repro.errors import UnknownObjectError

        with pytest.raises(UnknownObjectError):
            conn.execute("SET CURRENT QUERY ACCELERATION = ENABLE WITH TURBO")


class TestFailbackRouting:
    def test_plain_enable_fails_fast_when_offline(self, db, conn):
        accelerated_items(db, conn)
        db.health.force_offline()
        with pytest.raises(AcceleratorUnavailableError):
            conn.execute("SELECT COUNT(*), SUM(v) FROM items GROUP BY id > 5")

    def test_failback_reexecutes_on_db2_with_history_reason(self, db, conn):
        accelerated_items(db, conn)
        sql = "SELECT SUM(v) FROM items"
        healthy = conn.execute(sql)
        assert healthy.engine == "ACCELERATOR"
        db.health.force_offline()
        conn.set_acceleration("ENABLE WITH FAILBACK")
        result = conn.execute(sql)
        assert result.engine == "DB2"
        assert result.rows == healthy.rows
        assert db.statement_history[-1].reason.startswith("failback")
        assert db.failbacks == 1

    def test_aot_query_fails_fast_even_with_failback(self, db, conn):
        conn.execute("CREATE TABLE STAGE (X INTEGER) IN ACCELERATOR")
        conn.execute("INSERT INTO STAGE VALUES (1)")
        db.health.force_offline()
        conn.set_acceleration("ENABLE WITH FAILBACK")
        with pytest.raises(AcceleratorUnavailableError):
            conn.execute("SELECT COUNT(*) FROM stage")

    def test_aot_dml_fails_fast_when_offline(self, db, conn):
        conn.execute("CREATE TABLE STAGE (X INTEGER) IN ACCELERATOR")
        db.health.force_offline()
        with pytest.raises(AcceleratorUnavailableError):
            conn.execute("INSERT INTO STAGE VALUES (2)")

    def test_execution_time_crash_triggers_transparent_failback(
        self, db, conn
    ):
        accelerated_items(db, conn)
        conn.set_acceleration("ENABLE WITH FAILBACK")
        healthy = conn.execute("SELECT SUM(v) FROM items").rows
        with db.faults.forced("accelerator", kind="crash"):
            result = conn.execute("SELECT SUM(v) FROM items")
        assert result.engine == "DB2"
        assert result.rows == healthy
        assert db.health.failures_total >= 1
        assert db.statement_history[-1].reason.startswith("failback")

    def test_execution_time_crash_without_failback_raises(self, db, conn):
        accelerated_items(db, conn)
        with db.faults.forced("accelerator", kind="crash"):
            with pytest.raises(AcceleratorUnavailableError):
                conn.execute("SELECT SUM(v) FROM items")

    def test_recovery_closes_circuit_and_reoffloads(self, db, conn):
        accelerated_items(db, conn)
        conn.set_acceleration("ENABLE WITH FAILBACK")
        with db.faults.forced("accelerator", kind="crash"):
            for _ in range(4):
                conn.execute("SELECT SUM(v) FROM items")
        assert db.health.state is AcceleratorHealthState.OFFLINE
        db.health.cooldown_seconds = 0.0  # outage over; allow the probe
        result = conn.execute("SELECT SUM(v) FROM items")
        assert result.engine == "ACCELERATOR"
        assert db.health.state is AcceleratorHealthState.ONLINE


class TestResilientReplication:
    @pytest.mark.parametrize("size", [0, -5])
    def test_zero_or_negative_batch_size_raises(self, db, size):
        with pytest.raises(ValueError):
            replication.ReplicationService(
                db.db2.change_log,
                db.accelerator,
                db.interconnect,
                db.catalog,
                health=db.health,
                tracer=db.tracer,
                metrics=db.metrics,
                faults=db.faults,
                batch_size=size,
            )

    def test_constructor_validates_batch_size(self):
        with pytest.raises(ValueError):
            AcceleratedDatabase(replication_batch_size=0)

    def test_transient_faults_are_retried_to_success(self, db, conn):
        db.auto_replicate = False
        accelerated_items(db, conn, rows=10)
        conn.execute("UPDATE items SET v = v + 100")
        assert db.replication.backlog == 10
        db.faults.add("interconnect", count=2)  # two dropped sends
        applied = db.replication.drain()
        assert applied == 10
        assert db.replication.retries == 2
        assert db.replication.backlog == 0
        conn.set_acceleration("ALL")
        accel = conn.execute("SELECT id, v FROM items ORDER BY id").rows
        conn.set_acceleration("NONE")
        db2 = conn.execute("SELECT id, v FROM items ORDER BY id").rows
        assert accel == db2

    def test_abandoned_batch_keeps_cursor_and_retries_exactly_once(
        self, db, conn
    ):
        db.auto_replicate = False
        accelerated_items(db, conn, rows=10)
        conn.execute("UPDATE items SET v = v + 1")
        cursor_before = db.replication.cursor_lsn
        with db.faults.forced("accelerator", kind="crash"):
            applied = db.replication.drain()
        assert applied == 0
        assert db.replication.cursor_lsn == cursor_before
        assert db.replication.batches_abandoned == 1
        assert db.replication.backlog == 10
        db.health.reset()
        assert db.replication.drain() == 10
        conn.set_acceleration("ALL")
        rows = conn.execute("SELECT id, v FROM items ORDER BY id").rows
        assert rows == [(i, float(i) + 1) for i in range(10)]

    def test_partial_multi_table_batch_never_double_applies(self, db, conn):
        """Table A applies, table B's send fails, the batch is abandoned;
        the later re-drain ships A's records again and the engine's
        applied-LSN watermark drops them, even with a new batch size."""
        db.auto_replicate = False
        conn.execute("CREATE TABLE A (X INTEGER NOT NULL PRIMARY KEY)")
        conn.execute("CREATE TABLE B (Y INTEGER NOT NULL PRIMARY KEY)")
        db.add_table_to_accelerator("A")
        db.add_table_to_accelerator("B")
        conn.execute("INSERT INTO A VALUES (1), (2), (3)")
        conn.execute("INSERT INTO B VALUES (10), (20), (30)")
        # One batch covers both tables; A ships first (record order), B's
        # send fails on every attempt (schedule indexes are relative to
        # the sends already made by the initial copies above).
        sent = db.faults.calls.get("interconnect", 0)
        rule = db.faults.add("interconnect", schedule=range(sent + 2, sent + 100))
        assert db.replication.drain() == 3  # A applied, batch abandoned
        assert db.replication.backlog == 6  # cursor did not move
        db.faults.remove(rule)
        db.health.reset()
        deduplicated = db.accelerator.records_deduplicated
        db.replication.batch_size = 2
        assert db.replication.drain() == 3  # only B's records
        assert db.accelerator.records_deduplicated - deduplicated == 3
        conn.set_acceleration("ALL")
        assert conn.execute("SELECT x FROM a ORDER BY x").rows == [
            (1,), (2,), (3,)
        ]
        assert conn.execute("SELECT y FROM b ORDER BY y").rows == [
            (10,), (20,), (30,)
        ]

    def test_reload_after_abandoned_batch_counts_its_skips(self, db, conn):
        """A reload between an abandoned batch and its retry turns the
        batch's records into skips, counted when the cursor passes them."""
        db.auto_replicate = False
        accelerated_items(db, conn, rows=4)
        conn.execute("UPDATE items SET v = 0")
        cursor = db.replication.cursor_lsn
        with db.faults.forced("interconnect"):
            assert db.replication.drain() == 0
        db.reload_accelerated_table("ITEMS")
        db.health.reset()
        skipped = db.replication.records_skipped
        assert db.replication.drain() == 0
        assert db.replication.cursor_lsn - cursor == 4
        assert db.replication.records_skipped - skipped == 4

    def test_all_skipped_batch_does_not_count_as_applied(self, db, conn):
        db.auto_replicate = False
        conn.execute("CREATE TABLE T (A INTEGER NOT NULL PRIMARY KEY)")
        db.add_table_to_accelerator("T")
        conn.execute("INSERT INTO T VALUES (1), (2)")
        db.remove_table_from_accelerator("T")
        assert db.replication.drain() == 0
        assert db.replication.batches_applied == 0
        assert db.replication.records_skipped == 2

    def test_drain_skipped_while_circuit_open(self, db, conn):
        db.auto_replicate = False
        accelerated_items(db, conn, rows=4)
        conn.execute("UPDATE items SET v = 0")
        db.health.force_offline()
        assert db.replication.drain() == 0
        assert db.replication.drains_skipped_offline == 1
        assert db.replication.backlog == 4

    def test_drain_raise_on_failure_surfaces_the_error(self, db, conn):
        db.auto_replicate = False
        accelerated_items(db, conn, rows=3)
        conn.execute("UPDATE items SET v = 0")
        with db.faults.forced("accelerator", kind="crash"):
            with pytest.raises(AcceleratorCrashError):
                db.replication.drain(raise_on_failure=True)

    def test_backoff_is_exponential_with_jitter_and_bounded(self, db, conn):
        db.auto_replicate = False
        accelerated_items(db, conn, rows=3)
        conn.execute("UPDATE items SET v = 0")
        with db.faults.forced("accelerator", kind="crash"):
            db.replication.drain()
        stats = db.replication.stats()
        assert stats.retries == replication.MAX_RETRIES
        assert stats.simulated_backoff_seconds > 0
        # Jittered sum of base * 2^k is bounded by the un-jittered sum.
        ceiling = sum(
            min(
                replication.BACKOFF_CAP_SECONDS,
                replication.BACKOFF_BASE_SECONDS * 2.0 ** attempt,
            )
            for attempt in range(replication.MAX_RETRIES)
        )
        assert stats.simulated_backoff_seconds <= ceiling


class TestHealthProcedure:
    def test_accel_get_health_reports_state_and_backlog(self, db, conn):
        db.auto_replicate = False
        accelerated_items(db, conn, rows=5)
        conn.execute("UPDATE items SET v = 0")
        result = conn.execute("CALL SYSPROC.ACCEL_GET_HEALTH('')")
        assert "ACCEL_GET_HEALTH: ONLINE" in result.message
        text = "\n".join(row[0] for row in result.rows)
        assert "backlog=5" in text
        assert "state=ONLINE" in text

    def test_accel_get_health_grantable_to_non_admin(self, db, conn):
        """Monitoring is not SYSADM-gated: EXECUTE can be granted like any
        other procedure, and the handler itself performs no admin check."""
        db.create_user("OBSERVER")
        conn.execute(
            "GRANT EXECUTE ON PROCEDURE SYSPROC.ACCEL_GET_HEALTH TO OBSERVER"
        )
        observer = db.connect("OBSERVER")
        result = observer.execute("CALL SYSPROC.ACCEL_GET_HEALTH('')")
        assert "ACCEL_GET_HEALTH" in result.message


class TestOutageEndToEnd:
    def test_failback_session_matches_healthy_run_and_backlog_drains(
        self, db, conn
    ):
        """The acceptance scenario in miniature: outage mid-workload,
        FAILBACK session completes identically, plain ENABLE errors, and
        recovery drains the backlog exactly once."""
        rows = accelerated_items(db, conn, rows=30)
        queries = [
            "SELECT COUNT(*) FROM items",
            "SELECT SUM(v) FROM items",
            "SELECT id, v FROM items ORDER BY id",
        ]
        healthy = [conn.execute(q).rows for q in queries]

        failback = db.connect()
        failback.set_acceleration("ENABLE WITH FAILBACK")
        plain = db.connect()
        with db.faults.forced("accelerator", kind="crash"):
            # Writes keep landing on DB2 during the outage (backlog grows).
            conn.set_acceleration("NONE")
            conn.execute("UPDATE items SET v = v * 2")
            outage_results = [failback.execute(q).rows for q in queries]
            with pytest.raises(AcceleratorUnavailableError):
                plain.execute("SELECT SUM(v) FROM items")
        # During the outage the FAILBACK session saw DB2's (fresher) data.
        assert outage_results[0] == healthy[0]
        assert outage_results[1][0][0] == healthy[1][0][0] * 2
        assert db.health.state is AcceleratorHealthState.OFFLINE
        assert db.replication.backlog == rows

        db.health.cooldown_seconds = 0.0  # outage over
        assert db.replication.drain() == rows
        assert db.health.state is AcceleratorHealthState.ONLINE
        assert db.replication.backlog == 0
        conn.set_acceleration("ALL")
        accel_rows = conn.execute("SELECT id, v FROM items ORDER BY id").rows
        conn.set_acceleration("NONE")
        db2_rows = conn.execute("SELECT id, v FROM items ORDER BY id").rows
        assert accel_rows == db2_rows
        assert accel_rows == [(i, float(i) * 2) for i in range(rows)]
