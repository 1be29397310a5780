"""Multi-session stress: concurrent AOT writers, readers, and OLTP.

One connection per thread (connections are not thread-safe; the engines
are). Invariants checked after the storm: no lost updates, counts add
up, snapshots never tore, WLM admission slots never leak.

Volume is environment-tunable so CI can run an elevated pass:
``STRESS_THREADS`` / ``STRESS_ROUNDS`` override the defaults.
"""

import os
import sys
import threading

import pytest

from repro import AcceleratedDatabase

THREADS = int(os.environ.get("STRESS_THREADS", "4"))
ROUNDS = int(os.environ.get("STRESS_ROUNDS", "25"))


@pytest.fixture
def db():
    return AcceleratedDatabase(slice_count=2, chunk_rows=128)


def run_threads(workers):
    errors: list[BaseException] = []

    def guard(fn):
        def inner():
            try:
                fn()
            except BaseException as error:  # pragma: no cover - surfaced below
                errors.append(error)

        return inner

    threads = [threading.Thread(target=guard(fn)) for fn in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]


class TestAotConcurrency:
    def test_concurrent_aot_inserters(self, db):
        admin = db.connect()
        admin.execute("CREATE TABLE S (WORKER INTEGER, N INTEGER) IN ACCELERATOR")

        def writer(worker_id):
            def work():
                conn = db.connect()
                for round_no in range(ROUNDS):
                    conn.execute(
                        f"INSERT INTO S VALUES ({worker_id}, {round_no})"
                    )

            return work

        run_threads([writer(i) for i in range(THREADS)])
        counts = admin.execute(
            "SELECT worker, COUNT(*) FROM s GROUP BY worker ORDER BY worker"
        ).rows
        assert counts == [(i, ROUNDS) for i in range(THREADS)]

    def test_concurrent_transactions_with_rollbacks(self, db):
        admin = db.connect()
        admin.execute("CREATE TABLE S (WORKER INTEGER) IN ACCELERATOR")

        def writer(worker_id):
            def work():
                conn = db.connect()
                for round_no in range(ROUNDS):
                    conn.execute("BEGIN")
                    conn.execute(f"INSERT INTO S VALUES ({worker_id})")
                    if round_no % 2:
                        conn.execute("ROLLBACK")
                    else:
                        conn.execute("COMMIT")

            return work

        run_threads([writer(i) for i in range(THREADS)])
        total = admin.execute("SELECT COUNT(*) FROM s").scalar()
        # Only even rounds committed.
        assert total == THREADS * ((ROUNDS + 1) // 2)

    def test_readers_see_consistent_snapshots_during_writes(self, db):
        """Rows are inserted in atomic pairs; a reader must never observe
        an odd count (a torn write batch)."""
        admin = db.connect()
        admin.execute("CREATE TABLE PAIRS (A INTEGER) IN ACCELERATOR")
        stop = threading.Event()
        observed_odd = []

        def writer():
            conn = db.connect()
            for i in range(ROUNDS * 2):
                conn.execute(f"INSERT INTO PAIRS VALUES ({i}), ({i})")
            stop.set()

        def reader():
            conn = db.connect()
            while not stop.is_set():
                count = conn.execute("SELECT COUNT(*) FROM pairs").scalar()
                if count % 2:
                    observed_odd.append(count)

        run_threads([writer, reader, reader])
        assert not observed_odd

    def test_mixed_db2_and_aot_sessions(self, db):
        admin = db.connect()
        admin.execute(
            "CREATE TABLE LEDGER (ID INTEGER NOT NULL PRIMARY KEY, V DOUBLE)"
        )
        rows = ", ".join(f"({i}, 0.0)" for i in range(THREADS))
        admin.execute(f"INSERT INTO LEDGER VALUES {rows}")
        admin.execute("CREATE TABLE EVENTS (W INTEGER) IN ACCELERATOR")

        def worker(worker_id):
            def work():
                conn = db.connect()
                for __ in range(ROUNDS):
                    conn.execute("BEGIN")
                    conn.execute(
                        f"UPDATE ledger SET v = v + 1 WHERE id = {worker_id}"
                    )
                    conn.execute(f"INSERT INTO EVENTS VALUES ({worker_id})")
                    conn.execute("COMMIT")

            return work

        run_threads([worker(i) for i in range(THREADS)])
        ledger_total = admin.execute("SELECT SUM(v) FROM ledger").scalar()
        event_total = admin.execute("SELECT COUNT(*) FROM events").scalar()
        assert ledger_total == THREADS * ROUNDS
        assert event_total == THREADS * ROUNDS


SERVICE_CLASSES = ("INTERACTIVE", "SYSDEFAULT", "ANALYTICS", "BATCH")


def _assert_gates_quiesced(db):
    """No lost slots: every admission path returned what it took."""
    for gate in db.wlm.gates.values():
        snapshot = gate.snapshot()
        assert snapshot["slots_in_use"] == 0
        assert snapshot["queued"] == 0
        assert snapshot["admitted"] + snapshot["bypassed"] == (
            snapshot["releases"]
        )
        for name, stats in gate.class_stats().items():
            assert stats.running == 0, (gate.engine, name)
            assert stats.queued == 0, (gate.engine, name)


class TestWlmStorm:
    """Mixed-priority admission storms through tiny gates."""

    @pytest.fixture
    def wdb(self):
        db = AcceleratedDatabase(
            slice_count=2,
            chunk_rows=128,
            wlm_enabled=True,
            wlm_db2_slots=2,
            wlm_accelerator_slots=2,
            wlm_max_queue_seconds=30.0,
        )
        db.wlm.cheap_rows = 0  # force real admission for every statement
        return db

    def test_mixed_priority_storm_is_starvation_free(self, wdb):
        """Every class — including lowest-priority BATCH behind a
        2-slot gate — finishes its full workload; shed statements are
        retryable and eventually admitted; no slot leaks."""
        from repro.errors import StatementShedError

        admin = wdb.connect()
        admin.execute(
            "CREATE TABLE STORM (W INTEGER, N INTEGER) IN ACCELERATOR"
        )

        def worker(worker_id):
            service_class = SERVICE_CLASSES[worker_id % len(SERVICE_CLASSES)]

            def work():
                conn = wdb.connect()
                done = 0
                attempts = 0
                while done < ROUNDS:
                    attempts += 1
                    assert attempts < ROUNDS * 2000, (
                        f"{service_class} starved after {attempts} attempts"
                    )
                    try:
                        conn.execute(
                            f"INSERT INTO STORM VALUES ({worker_id}, {done})",
                            service_class=service_class,
                        )
                    except StatementShedError as error:
                        assert error.retryable
                        continue
                    done += 1

            return work

        run_threads([worker(i) for i in range(THREADS)])
        counts = admin.execute(
            "SELECT W, COUNT(*) FROM STORM GROUP BY W ORDER BY W"
        ).rows
        assert counts == [(i, ROUNDS) for i in range(THREADS)]
        _assert_gates_quiesced(wdb)

    def test_timeouts_under_contention_never_corrupt_state(self, wdb):
        """Whole-table updates racing tiny statement budgets: each
        statement either applies completely or not at all, so the sum
        stays a multiple of the row count."""
        from repro.errors import StatementShedError, StatementTimeoutError

        table_rows = 1500  # above the 1024-row DML checkpoint cadence
        admin = wdb.connect()
        admin.execute("CREATE TABLE TMO (ID INTEGER, V DOUBLE)")
        for base in range(0, table_rows, 500):
            rows = ", ".join(f"({i}, 0.0)" for i in range(base, base + 500))
            admin.execute(f"INSERT INTO TMO VALUES {rows}")

        outcomes = {"ok": 0, "timed_out": 0}
        outcomes_lock = threading.Lock()

        def worker(worker_id):
            service_class = SERVICE_CLASSES[worker_id % len(SERVICE_CLASSES)]

            def work():
                conn = wdb.connect()
                done = 0
                while done < ROUNDS:
                    # Tight budgets on some rounds: the statement may
                    # expire during target selection or a lock wait.
                    timeout = 0.002 if done % 2 else None
                    try:
                        conn.execute(
                            "UPDATE TMO SET V = V + 1",
                            service_class=service_class,
                            timeout_seconds=timeout,
                        )
                        with outcomes_lock:
                            outcomes["ok"] += 1
                    except StatementTimeoutError:
                        with outcomes_lock:
                            outcomes["timed_out"] += 1
                    except StatementShedError:
                        continue
                    done += 1

            return work

        run_threads([worker(i) for i in range(THREADS)])
        total = admin.execute("SELECT SUM(V) FROM TMO").scalar()
        count = admin.execute("SELECT COUNT(*) FROM TMO").scalar()
        assert count == table_rows
        # Atomicity: the total is exactly (successful updates) x rows —
        # a timed-out statement contributed nothing.
        assert total == outcomes["ok"] * table_rows
        assert outcomes["ok"] + outcomes["timed_out"] == THREADS * ROUNDS
        assert wdb.wlm.statements_timed_out == outcomes["timed_out"]
        _assert_gates_quiesced(wdb)


class TestShardCounters:
    def test_concurrent_scans_lose_no_shard_counter_update(self):
        """Sessions scan the same shards at once; every scan is counted."""
        db = AcceleratedDatabase(shards=2, slice_count=2, chunk_rows=128)
        conn = db.connect()
        conn.execute("CREATE TABLE R (K INTEGER, V INTEGER) IN ACCELERATOR")
        conn.execute(
            "INSERT INTO R VALUES " + ", ".join(f"({i}, {i})" for i in range(200))
        )
        table = db.accelerator.storage_for("R")
        epoch = db.accelerator.current_epoch
        shards = db.accelerator.shard_list
        before = [(s.scans, s.rows_scanned, s.bytes_from_shard) for s in shards]
        workers, scans = max(THREADS, 4), 4 * ROUNDS

        def scan():
            for _ in range(scans):
                table.read_visible(epoch, columns=["V"])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=scan) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        total = workers * scans
        for shard, (scans0, rows0, bytes0), part in zip(shards, before, table.parts):
            assert shard.scans - scans0 == total
            assert shard.rows_scanned - rows0 == total * part.row_count
            assert shard.bytes_from_shard - bytes0 == total * 8 * part.row_count


class TestReplicationDrains:
    def test_concurrent_commit_drains_ship_each_record_once(self, db):
        """Every autocommit UPDATE drains at commit; drains run one at a
        time, so no batch is shipped twice and the watermark drops
        nothing."""
        admin = db.connect()
        admin.execute("CREATE TABLE C (ID INTEGER NOT NULL PRIMARY KEY, N INTEGER)")
        admin.execute(
            "INSERT INTO C VALUES " + ", ".join(f"({i}, 0)" for i in range(THREADS))
        )
        db.add_table_to_accelerator("C")
        db.replication.drain()
        applied_before = db.replication.records_applied
        writes = 2 * ROUNDS + 10

        def writer(worker_id):
            def work():
                conn = db.connect()
                for __ in range(writes):
                    conn.execute(f"UPDATE C SET N = N + 1 WHERE ID = {worker_id}")

            return work

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_threads([writer(i) for i in range(THREADS)])
        finally:
            sys.setswitchinterval(interval)
        db.replication.drain()
        assert db.accelerator.records_deduplicated == 0
        assert db.replication.records_applied - applied_before == THREADS * writes
        sql = "SELECT ID, N FROM C ORDER BY ID"
        admin.set_acceleration("NONE")
        expected = admin.query(sql)
        admin.set_acceleration("ALL")
        assert admin.query(sql) == expected == [(i, writes) for i in range(THREADS)]
