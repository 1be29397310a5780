"""Failure injection: errors must leave the federation consistent."""

import pytest

from repro import AcceleratedDatabase, IdaaLoader, IterableSource
from repro.errors import (
    AuthorizationError,
    ReplicationError,
    ShardUnavailableError,
    SqlError,
    TypeError_,
)
from repro.federation import replication


@pytest.fixture
def db():
    return AcceleratedDatabase(slice_count=2, chunk_rows=64)


@pytest.fixture
def conn(db):
    return db.connect()


class TestStatementFailures:
    def test_mid_statement_failure_undoes_partial_rows(self, conn):
        """A multi-row INSERT failing on row 3 must insert nothing."""
        conn.execute("CREATE TABLE T (A INTEGER NOT NULL PRIMARY KEY)")
        with pytest.raises(SqlError):
            conn.execute("INSERT INTO T VALUES (1), (2), (1)")
        assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 0

    def test_coercion_failure_mid_statement(self, conn):
        conn.execute("CREATE TABLE T (A INTEGER)")
        with pytest.raises(TypeError_):
            conn.execute("INSERT INTO T VALUES (1), ('oops')")
        assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 0

    def test_failed_update_keeps_old_values(self, conn):
        conn.execute("CREATE TABLE T (A INTEGER NOT NULL PRIMARY KEY)")
        conn.execute("INSERT INTO T VALUES (1), (2)")
        with pytest.raises(SqlError):
            # Both rows map to A=5: second update hits a duplicate key.
            conn.execute("UPDATE t SET a = 5")
        rows = conn.execute("SELECT a FROM t ORDER BY a").rows
        assert rows == [(1,), (2,)]

    def test_failed_insert_select_into_aot_inside_txn(self, conn):
        conn.execute("CREATE TABLE A (X INTEGER) IN ACCELERATOR")
        conn.execute("INSERT INTO A VALUES (1)")
        conn.execute("BEGIN")
        conn.execute("INSERT INTO A VALUES (2)")
        with pytest.raises(Exception):
            conn.execute("INSERT INTO A SELECT x FROM missing_table")
        # The failed statement must not roll back the earlier insert.
        assert conn.execute("SELECT COUNT(*) FROM a").scalar() == 2
        conn.execute("COMMIT")
        assert conn.execute("SELECT COUNT(*) FROM a").scalar() == 2

    def test_division_by_zero_aborts_statement_cleanly(self, conn):
        conn.execute("CREATE TABLE T (A INTEGER)")
        conn.execute("INSERT INTO T VALUES (0), (1)")
        with pytest.raises(SqlError):
            conn.execute("SELECT 1 / a FROM t")
        # Connection still usable.
        assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 2


class TestReplicationFailures:
    def test_failed_apply_batch_is_atomic(self, db, conn):
        """A batch that fails mid-way must not half-apply."""
        from repro.db2.changelog import ChangeRecord

        conn.execute("CREATE TABLE T (A INTEGER) IN ACCELERATOR")
        conn.execute("INSERT INTO T VALUES (1), (2), (3)")
        count_before = conn.execute("SELECT COUNT(*) FROM t").scalar()
        records = [
            ChangeRecord(1, 1, "T", "INSERT", after=(4,)),
            ChangeRecord(2, 1, "T", "DELETE", before=(999,)),  # missing
        ]
        with pytest.raises(ReplicationError):
            db.accelerator.apply_changes("T", records)
        assert conn.execute("SELECT COUNT(*) FROM t").scalar() == count_before

    def test_replication_survives_unrelated_table_drop(self, db, conn):
        db.auto_replicate = False
        conn.execute("CREATE TABLE A (X INTEGER NOT NULL PRIMARY KEY)")
        conn.execute("INSERT INTO A VALUES (1)")
        db.add_table_to_accelerator("A")
        conn.execute("CREATE TABLE B (Y INTEGER)")
        conn.execute("INSERT INTO A VALUES (2)")
        conn.execute("DROP TABLE B")
        assert db.replication.drain() == 1
        conn.set_acceleration("ALL")
        assert conn.execute("SELECT COUNT(*) FROM a").scalar() == 2


class TestLoaderFailures:
    def test_loader_failure_keeps_earlier_batches(self, db, conn):
        """Batches commit independently (bulk-load semantics): a failure
        in batch 2 keeps batch 1, like the real loader's restartability."""
        conn.execute("CREATE TABLE T (A INTEGER)")
        loader = IdaaLoader(db, batch_size=2)
        rows = [(1,), (2,), ("bad",), (4,)]
        with pytest.raises(TypeError_):
            loader.load(IterableSource(rows, ["A"]), "T", conn)
        assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 2

    def test_loader_failure_does_not_poison_connection(self, db, conn):
        conn.execute("CREATE TABLE T (A INTEGER)")
        loader = IdaaLoader(db, batch_size=10)
        with pytest.raises(TypeError_):
            loader.load(IterableSource([("bad",)], ["A"]), "T", conn)
        conn.execute("INSERT INTO T VALUES (1)")
        assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 1


class TestAuthorizationFailuresAreClean:
    def test_denied_dml_modifies_nothing(self, db, conn):
        conn.execute("CREATE TABLE T (A INTEGER) IN ACCELERATOR")
        conn.execute("INSERT INTO T VALUES (1)")
        db.create_user("PLEB")
        pleb = db.connect("PLEB")
        with pytest.raises(AuthorizationError):
            pleb.execute("DELETE FROM t")
        assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 1

    def test_denied_statement_in_open_txn_keeps_txn_alive(self, db, conn):
        conn.execute("CREATE TABLE T (A INTEGER)")
        db.create_user("PLEB")
        pleb = db.connect("PLEB")
        pleb.execute("BEGIN")
        with pytest.raises(AuthorizationError):
            pleb.execute("SELECT * FROM t")
        # Transaction still open and usable.
        pleb.execute("ROLLBACK")


class TestProcedureFailures:
    def test_failed_procedure_in_autocommit_leaves_no_output(self, db, conn):
        conn.execute("CREATE TABLE D (A INTEGER, B DOUBLE) IN ACCELERATOR")
        conn.execute("INSERT INTO D VALUES (1, NULL)")
        from repro.errors import AnalyticsError

        with pytest.raises(AnalyticsError):
            # B is all NULL → read_matrix refuses after creating nothing.
            conn.execute(
                "CALL INZA.KMEANS('intable=D, outtable=OUT, id=A, k=1, "
                "incolumn=B')"
            )
        assert not db.catalog.has_table("OUT")

    def test_procedure_failure_mid_txn_preserves_txn_work(self, db, conn):
        conn.execute("CREATE TABLE D (A INTEGER) IN ACCELERATOR")
        conn.execute("BEGIN")
        conn.execute("INSERT INTO D VALUES (1)")
        with pytest.raises(Exception):
            conn.execute("CALL INZA.SUMMARY('intable=NO_SUCH, outtable=X')")
        assert conn.execute("SELECT COUNT(*) FROM d").scalar() == 1
        conn.execute("COMMIT")


class TestInterconnectCounterSemantics:
    def test_reset_zeroes_every_counter(self, db, conn):
        conn.execute("CREATE TABLE T (A INTEGER) IN ACCELERATOR")
        conn.execute("INSERT INTO T VALUES (1), (2)")
        conn.execute("SELECT COUNT(*) FROM t")
        link = db.interconnect
        assert link.messages > 0
        assert link.bytes_to_accelerator > 0
        link.reset()
        assert link.messages == 0
        assert link.bytes_to_accelerator == 0
        assert link.bytes_from_accelerator == 0
        assert link.simulated_seconds == 0.0
        assert link.injected_latency_seconds == 0.0
        assert link.sends_failed == 0

    def test_reset_zeroes_fault_counters(self, db):
        with db.faults.forced("interconnect"):
            with pytest.raises(Exception):
                db.interconnect.send_to_accelerator(100)
        with db.faults.forced("interconnect", kind="latency", latency_seconds=0.5):
            db.interconnect.send_to_accelerator(100)
        assert db.interconnect.sends_failed == 1
        assert db.interconnect.injected_latency_seconds == 0.5
        db.interconnect.reset()
        assert db.interconnect.sends_failed == 0
        assert db.interconnect.injected_latency_seconds == 0.0

    def test_since_measures_only_the_delta(self, db, conn):
        conn.execute("CREATE TABLE T (A INTEGER) IN ACCELERATOR")
        conn.execute("INSERT INTO T VALUES (1), (2), (3)")
        before = db.interconnect.snapshot()
        conn.execute("SELECT COUNT(*) FROM t")
        delta = db.interconnect.since(before)
        # The query went over and its result came back; the earlier
        # insert's shipped bytes must not leak into the window.
        after = db.interconnect.snapshot()
        assert before.bytes_to_accelerator + delta.bytes_to_accelerator == (
            after.bytes_to_accelerator
        )
        assert delta.bytes_to_accelerator < before.bytes_to_accelerator
        assert delta.bytes_from_accelerator > 0
        assert delta.messages >= 1
        # An empty window measures zero.
        now = db.interconnect.snapshot()
        empty = db.interconnect.since(now)
        assert empty.messages == 0
        assert empty.bytes_from_accelerator == 0
        assert empty.simulated_seconds == 0.0

    def test_failed_send_accounts_nothing(self, db):
        before = db.interconnect.snapshot()
        with db.faults.forced("interconnect"):
            with pytest.raises(Exception):
                db.interconnect.send_to_accelerator(4096)
        delta = db.interconnect.since(before)
        assert delta.bytes_to_accelerator == 0
        assert delta.messages == 0
        assert db.interconnect.sends_failed == 1


class TestConcurrentSessionFailures:
    def test_concurrent_statement_failures_keep_health_consistent(self, db):
        """Many sessions failing/succeeding at once must leave the health
        monitor's counters exact and its breaker state valid."""
        import threading

        from repro.federation.health import AcceleratorHealthState

        setup = db.connect()
        setup.execute("CREATE TABLE T (A INTEGER NOT NULL PRIMARY KEY)")
        # Enough rows that the cost-based router sends the aggregate to
        # the accelerator (a 3-row COUNT is cheaper to run on DB2).
        values = ", ".join(f"({i})" for i in range(1, 97))
        setup.execute(f"INSERT INTO T VALUES {values}")
        db.add_table_to_accelerator("T")
        # High threshold: the concurrent failures must not trip the breaker,
        # so every statement exercises the crash → failback path.
        db.health.failure_threshold = 10_000
        rule = db.faults.add("accelerator", kind="crash", probability=1.0)

        sessions = 8
        per_session = 25
        errors: list[Exception] = []
        results: list[int] = []

        def worker() -> None:
            conn = db.connect()
            conn.set_acceleration("ENABLE WITH FAILBACK")
            for _ in range(per_session):
                try:
                    results.append(
                        conn.execute("SELECT COUNT(*) FROM t").scalar()
                    )
                except Exception as exc:  # pragma: no cover - fail the test
                    errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(sessions)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        db.faults.remove(rule)

        assert not errors
        total = sessions * per_session
        assert results == [96] * total
        # Every crash was recorded as exactly one failure and one failback;
        # the DB2 re-executions never touch the accelerator, so no
        # successes sneak in and the totals stay exact under concurrency.
        assert db.health.failures_total == total
        assert db.health.successes_total == 0
        assert db.failbacks == total
        assert db.health.state in (
            AcceleratorHealthState.ONLINE,
            AcceleratorHealthState.DEGRADED,
        )

    def test_concurrent_failures_trip_breaker_exactly_once(self, db):
        import threading

        from repro.federation.health import AcceleratorHealthState

        db.health.failure_threshold = 5
        db.health.cooldown_seconds = 60.0
        barrier = threading.Barrier(8)

        def worker() -> None:
            barrier.wait()
            for _ in range(10):
                db.health.record_failure()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert db.health.state is AcceleratorHealthState.OFFLINE
        assert db.health.times_opened == 1
        assert db.health.failures_total == 80


class TestReplicationCacheConsistency:
    def test_failed_batch_does_not_poison_the_lookup_cache(self, db, conn):
        """A drain failure must not leave the incremental row-lookup cache
        inconsistent: retrying with a corrected batch still applies."""
        from repro.db2.changelog import ChangeRecord
        from repro.errors import ReplicationError

        conn.execute("CREATE TABLE T (A INTEGER) IN ACCELERATOR")
        conn.execute("INSERT INTO T VALUES (1), (2)")
        # Prime the cache with a successful batch.
        db.accelerator.apply_changes(
            "T", [ChangeRecord(1, 1, "T", "INSERT", after=(3,))]
        )
        # Failing batch: one applicable update, then a missing row.
        bad = [
            ChangeRecord(2, 1, "T", "UPDATE", before=(1,), after=(10,)),
            ChangeRecord(3, 1, "T", "DELETE", before=(999,)),
        ]
        with pytest.raises(ReplicationError):
            db.accelerator.apply_changes("T", bad)
        # Storage untouched, and a corrected retry still locates row (1,).
        assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 3
        db.accelerator.apply_changes(
            "T", [ChangeRecord(2, 1, "T", "UPDATE", before=(1,), after=(10,))]
        )
        rows = conn.execute("SELECT a FROM t ORDER BY a").rows
        assert rows == [(2,), (3,), (10,)]


class TestShardFaultsLeaveNoHalfBatch:
    """A write batch is admitted once, before it stamps anything, so a
    shard fault on it leaves nothing a later write could publish."""

    @staticmethod
    def _system(shards):
        db = AcceleratedDatabase(shards=shards, slice_count=2, chunk_rows=64)
        db.auto_replicate = False
        conn = db.connect()
        conn.execute("CREATE TABLE L (X INTEGER) IN ACCELERATOR")
        return db, conn

    @staticmethod
    def _fail_every_third_call(db, times):
        """Shard 0 fails its third site call from now on, and every
        third after it, ``times`` times: the call after a write's read
        and its first admission."""
        site = db.accelerator.shard(0).fault_site
        base = db.faults.calls.get(site, 0)
        db.faults.add(site, schedule=[base + 3 * k for k in range(1, times + 1)])

    @staticmethod
    def _clear(db):
        db.faults.clear()
        db.health.reset()
        for shard in db.accelerator.shard_list:
            shard.health.reset()

    @pytest.mark.parametrize("shards", [1, 4])
    def test_abandoned_replicated_update_stays_unapplied(self, shards):
        db, conn = self._system(shards)
        conn.execute("CREATE TABLE T (A INTEGER NOT NULL PRIMARY KEY, B DOUBLE)")
        conn.execute(
            "INSERT INTO T VALUES " + ", ".join(f"({i}, {i}.5)" for i in range(10))
        )
        db.add_table_to_accelerator("T")
        db.replication.drain()
        conn.execute("UPDATE t SET b = b + 100 WHERE a = 3")
        self._fail_every_third_call(db, replication.MAX_RETRIES + 1)
        db.replication.drain()
        self._clear(db)
        conn.execute("INSERT INTO l VALUES (1)")
        db.replication.drain(raise_on_failure=True)
        assert db.replication.backlog == 0
        query = "SELECT a, b FROM t ORDER BY a"
        conn.set_acceleration("NONE")
        expected = conn.execute(query).rows
        conn.set_acceleration("ALL")
        result = conn.execute(query)
        assert (result.engine, result.rows) == ("ACCELERATOR", expected)

    @pytest.mark.parametrize("shards", [1, 4])
    def test_failed_aot_update_leaves_its_table_unchanged(self, shards):
        db, conn = self._system(shards)
        conn.execute("CREATE TABLE A (ID INTEGER, V INTEGER) IN ACCELERATOR")
        conn.execute(
            "INSERT INTO A VALUES " + ", ".join(f"({i}, {i})" for i in range(10))
        )
        before = conn.execute("SELECT id, v FROM a ORDER BY id").rows
        updated = [(i, v + 100 if i == 3 else v) for i, v in before]
        self._fail_every_third_call(db, 1)
        try:
            conn.execute("UPDATE a SET v = v + 100 WHERE id = 3")
            expected = updated
        except ShardUnavailableError:
            expected = before
        self._clear(db)
        conn.execute("INSERT INTO l VALUES (1)")
        assert conn.execute("SELECT id, v FROM a ORDER BY id").rows == expected
