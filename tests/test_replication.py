"""Replication service: capture → drain → apply, staleness, batching."""

import pytest

from repro import AcceleratedDatabase


@pytest.fixture
def db():
    # Manual drains: auto_replicate off so staleness is observable.
    return AcceleratedDatabase(
        slice_count=2, chunk_rows=128, auto_replicate=False
    )


@pytest.fixture
def conn(db):
    connection = db.connect()
    connection.execute(
        "CREATE TABLE ITEMS (ID INTEGER NOT NULL PRIMARY KEY, V DOUBLE)"
    )
    rows = ", ".join(f"({i}, {float(i)})" for i in range(100))
    connection.execute(f"INSERT INTO ITEMS VALUES {rows}")
    db.add_table_to_accelerator("ITEMS")
    return connection


def accel_sum(conn):
    conn.set_acceleration("ALL")
    result = conn.execute("SELECT SUM(v) FROM items")
    assert result.engine == "ACCELERATOR"
    conn.set_acceleration("ENABLE")
    return result.scalar()


class TestInitialCopy:
    def test_copy_matches_source(self, db, conn):
        assert accel_sum(conn) == sum(float(i) for i in range(100))

    def test_copy_charged_to_interconnect(self, db, conn):
        assert db.interconnect.bytes_to_accelerator > 0

    def test_cannot_accelerate_twice(self, db, conn):
        from repro.errors import DuplicateObjectError

        with pytest.raises(DuplicateObjectError):
            db.add_table_to_accelerator("ITEMS")


class TestDrain:
    def test_copy_is_stale_until_drained(self, db, conn):
        conn.execute("UPDATE items SET v = v + 1000 WHERE id < 10")
        assert db.replication.backlog == 10
        assert accel_sum(conn) == 4950.0  # still the old copy
        applied = db.replication.drain()
        assert applied == 10
        assert accel_sum(conn) == 4950.0 + 10 * 1000

    def test_drain_in_batches(self, db, conn):
        conn.execute("UPDATE items SET v = 0")
        assert db.replication.backlog == 100
        db.replication.batch_size = 30
        batches = db.replication.batches_applied
        assert db.replication.drain() == 100
        assert db.replication.batches_applied - batches == 4
        assert db.replication.drain_history[-1].batches == 4
        assert db.replication.backlog == 0
        assert accel_sum(conn) == 0.0

    def test_drain_empty_log_is_noop(self, db, conn):
        assert db.replication.drain() == 0

    def test_deletes_replicate(self, db, conn):
        conn.execute("DELETE FROM items WHERE id >= 50")
        db.replication.drain()
        conn.set_acceleration("ALL")
        assert conn.execute("SELECT COUNT(*) FROM items").scalar() == 50

    def test_inserts_replicate(self, db, conn):
        conn.execute("INSERT INTO ITEMS VALUES (1000, 0.5)")
        db.replication.drain()
        conn.set_acceleration("ALL")
        assert conn.execute("SELECT COUNT(*) FROM items").scalar() == 101

    def test_records_charged_to_interconnect(self, db, conn):
        before = db.interconnect.bytes_to_accelerator
        conn.execute("UPDATE items SET v = v + 1")
        db.replication.drain()
        assert db.interconnect.bytes_to_accelerator > before


class TestRegistration:
    def test_changes_before_registration_are_skipped(self, db, conn):
        """The initial copy already contains older rows; replication must
        not re-apply records from before the table was registered."""
        conn.execute("CREATE TABLE T2 (ID INTEGER NOT NULL PRIMARY KEY)")
        conn.execute("INSERT INTO T2 VALUES (1), (2)")
        db.add_table_to_accelerator("T2")
        conn.execute("INSERT INTO T2 VALUES (3)")
        db.replication.drain()
        conn.set_acceleration("ALL")
        assert conn.execute("SELECT COUNT(*) FROM t2").scalar() == 3

    def test_unregistered_table_changes_skipped(self, db, conn):
        conn.execute("UPDATE items SET v = -1 WHERE id = 0")
        db.remove_table_from_accelerator("ITEMS")
        #

        before = db.replication.records_skipped
        db.replication.drain()
        assert db.replication.records_skipped > before


class TestAutoReplication:
    def test_auto_mode_keeps_copy_fresh(self):
        db = AcceleratedDatabase(auto_replicate=True)
        conn = db.connect()
        conn.execute("CREATE TABLE A (ID INTEGER NOT NULL PRIMARY KEY, V DOUBLE)")
        conn.execute("INSERT INTO A VALUES (1, 1.0), (2, 2.0)")
        db.add_table_to_accelerator("A")
        conn.execute("UPDATE a SET v = 10 WHERE id = 1")
        conn.set_acceleration("ALL")
        assert conn.execute("SELECT SUM(v) FROM a").scalar() == 12.0

    def test_read_only_commits_do_not_drain(self):
        """An autocommit SELECT has nothing to drain, so it opens no drain
        and leaves no ``idle`` row to push real drains out of the ring."""
        db = AcceleratedDatabase(auto_replicate=True)
        conn = db.connect()
        conn.execute("CREATE TABLE A (ID INTEGER NOT NULL PRIMARY KEY, V DOUBLE)")
        conn.execute("INSERT INTO A VALUES (1, 1.0), (2, 2.0)")
        db.add_table_to_accelerator("A")
        conn.execute("UPDATE a SET v = 10 WHERE id = 1")
        history = list(db.replication.drain_history)
        assert history[-1].outcome == "ok"
        conn.set_acceleration("ALL")
        for __ in range(300):
            assert conn.execute("SELECT SUM(v) FROM a").scalar() == 12.0
        assert list(db.replication.drain_history) == history
        rows = conn.query(
            "SELECT DRAIN_ID, RECORDS_APPLIED FROM SYSACCEL.MON_REPLICATION "
            "WHERE OUTCOME = 'ok'"
        )
        assert (history[-1].drain_id, 1) in rows


class TestRedeliveryEdgeCases:
    """Crash-recovery batch semantics: empty, duplicate, out-of-order.

    After a restart the replication service replays the changelog suffix
    past the checkpointed cursor, so the engine must treat redelivered
    batches as no-ops (applied-LSN watermark), reject reordered records
    inside a batch, and not burn an MVCC epoch on an empty batch.
    """

    def test_empty_batch_is_noop(self, db, conn):
        epoch_before = db.accelerator.current_epoch
        assert db.accelerator.apply_changes("ITEMS", []) == 0
        assert db.accelerator.current_epoch == epoch_before

    def test_duplicate_batch_redelivery_is_idempotent(self, db, conn):
        from repro.db2.changelog import ChangeRecord

        batch = [
            ChangeRecord(501, 1, "ITEMS", "INSERT", after=(1000, 0.5)),
            ChangeRecord(502, 1, "ITEMS", "INSERT", after=(1001, 0.5)),
        ]
        assert db.accelerator.apply_changes("ITEMS", batch) == 2
        deduped_before = db.accelerator.records_deduplicated
        epoch_before = db.accelerator.current_epoch
        # Redelivery of the identical batch (crash between apply and
        # cursor advance): every record is at/below the watermark.
        assert db.accelerator.apply_changes("ITEMS", batch) == 0
        assert db.accelerator.records_deduplicated == deduped_before + 2
        assert db.accelerator.current_epoch == epoch_before  # no new epoch
        conn.set_acceleration("ALL")
        assert (
            conn.execute("SELECT COUNT(*) FROM items").scalar() == 102
        )

    def test_overlapping_batch_applies_only_the_new_suffix(self, db, conn):
        from repro.db2.changelog import ChangeRecord

        first = [
            ChangeRecord(601, 1, "ITEMS", "INSERT", after=(2000, 1.0)),
            ChangeRecord(602, 1, "ITEMS", "INSERT", after=(2001, 1.0)),
        ]
        assert db.accelerator.apply_changes("ITEMS", first) == 2
        # A batch re-read at a wider extent after a partial crash overlaps
        # the applied prefix; only the unseen suffix may land.
        overlap = first + [
            ChangeRecord(603, 2, "ITEMS", "INSERT", after=(2002, 1.0))
        ]
        assert db.accelerator.apply_changes("ITEMS", overlap) == 1
        assert db.accelerator.applied_lsn("ITEMS") == 603
        conn.set_acceleration("ALL")
        assert (
            conn.execute(
                "SELECT COUNT(*) FROM items WHERE id >= 2000"
            ).scalar()
            == 3
        )

    def test_out_of_order_records_within_batch_rejected(self, db, conn):
        from repro.db2.changelog import ChangeRecord
        from repro.errors import ReplicationError

        scrambled = [
            ChangeRecord(702, 1, "ITEMS", "INSERT", after=(3001, 1.0)),
            ChangeRecord(701, 1, "ITEMS", "INSERT", after=(3000, 1.0)),
        ]
        with pytest.raises(ReplicationError):
            db.accelerator.apply_changes("ITEMS", scrambled)
        # Nothing applied, watermark unmoved.
        assert db.accelerator.applied_lsn("ITEMS") == 0
        conn.set_acceleration("ALL")
        assert (
            conn.execute(
                "SELECT COUNT(*) FROM items WHERE id >= 3000"
            ).scalar()
            == 0
        )

    def test_stale_batch_arriving_late_is_dropped(self, db, conn):
        from repro.db2.changelog import ChangeRecord

        assert (
            db.accelerator.apply_changes(
                "ITEMS",
                [ChangeRecord(810, 1, "ITEMS", "INSERT", after=(4000, 1.0))],
            )
            == 1
        )
        # A whole batch older than the watermark (late arrival after the
        # records were already replayed) must be dropped wholesale.
        assert (
            db.accelerator.apply_changes(
                "ITEMS",
                [ChangeRecord(805, 1, "ITEMS", "INSERT", after=(4000, 1.0))],
            )
            == 0
        )
        conn.set_acceleration("ALL")
        assert (
            conn.execute(
                "SELECT COUNT(*) FROM items WHERE id = 4000"
            ).scalar()
            == 1
        )

    def test_unstamped_records_bypass_the_watermark(self, db, conn):
        from repro.db2.changelog import ChangeRecord

        db.accelerator.apply_changes(
            "ITEMS",
            [ChangeRecord(900, 1, "ITEMS", "INSERT", after=(5000, 1.0))],
        )
        # LSN 0 marks records that never went through the changelog
        # (direct applies); the watermark must not suppress them.
        assert (
            db.accelerator.apply_changes(
                "ITEMS",
                [ChangeRecord(0, 1, "ITEMS", "INSERT", after=(5001, 1.0))],
            )
            == 1
        )
        assert db.accelerator.applied_lsn("ITEMS") == 900


class TestCursorIndependence:
    """Per-table change feeds drain against one global changelog, but
    each table keeps its own applied-LSN watermark: draining one feed
    must never advance — or roll back — another table's cursor."""

    def test_per_table_watermarks_advance_independently(self, db, conn):
        conn.execute(
            "CREATE TABLE SIDE (ID INTEGER NOT NULL PRIMARY KEY, V DOUBLE)"
        )
        conn.execute("INSERT INTO SIDE VALUES (1, 1.0)")
        db.add_table_to_accelerator("SIDE")
        conn.execute("INSERT INTO SIDE VALUES (2, 2.0)")
        db.replication.drain()
        side_lsn = db.accelerator.applied_lsn("SIDE")
        assert side_lsn > 0
        assert db.accelerator.applied_lsn("ITEMS") == 0  # untouched

        conn.execute("UPDATE items SET v = -5 WHERE id = 1")
        db.replication.drain()
        # ITEMS advanced past SIDE's records; SIDE's cursor is pinned.
        assert db.accelerator.applied_lsn("SIDE") == side_lsn
        assert db.accelerator.applied_lsn("ITEMS") > side_lsn

    def test_interleaved_feeds_apply_exactly_once(self, db, conn):
        conn.execute(
            "CREATE TABLE SIDE (ID INTEGER NOT NULL PRIMARY KEY, V DOUBLE)"
        )
        conn.execute("INSERT INTO SIDE VALUES (0, 0.0)")
        db.add_table_to_accelerator("SIDE")
        for i in range(10):
            conn.execute(f"INSERT INTO ITEMS VALUES ({200 + i}, 1.0)")
            conn.execute(f"INSERT INTO SIDE VALUES ({10 + i}, 1.0)")
        # Tiny batches so the two feeds interleave across many batches.
        db.replication.batch_size = 3
        assert db.replication.drain() == 20
        conn.set_acceleration("ALL")
        assert conn.execute("SELECT COUNT(*) FROM items").scalar() == 110
        assert conn.execute("SELECT COUNT(*) FROM side").scalar() == 11
        conn.set_acceleration("ENABLE")
        items_lsn = db.accelerator.applied_lsn("ITEMS")
        side_lsn = db.accelerator.applied_lsn("SIDE")
        assert items_lsn > 0 and side_lsn > 0
        # The log is fully drained: another pass moves nothing.
        assert db.replication.drain() == 0
        assert db.accelerator.applied_lsn("ITEMS") == items_lsn
        assert db.accelerator.applied_lsn("SIDE") == side_lsn

    def test_sharded_pool_keeps_one_watermark_per_table(self):
        """A 3-shard pool fans each record out by placement, but the
        watermark stays per-table on the coordinator — redelivery is
        exactly-once no matter how many shards absorbed the batch."""
        from repro.db2.changelog import ChangeRecord

        db = AcceleratedDatabase(
            shards=3, slice_count=2, chunk_rows=64, auto_replicate=False
        )
        conn = db.connect()
        conn.execute(
            "CREATE TABLE ITEMS (ID INTEGER NOT NULL PRIMARY KEY, V DOUBLE)"
        )
        conn.execute(
            "CREATE TABLE SIDE (ID INTEGER NOT NULL PRIMARY KEY, V DOUBLE)"
        )
        conn.execute(
            "INSERT INTO ITEMS VALUES "
            + ", ".join(f"({i}, {float(i)})" for i in range(20))
        )
        conn.execute("INSERT INTO SIDE VALUES (0, 0.0)")
        db.add_table_to_accelerator("ITEMS")
        db.add_table_to_accelerator("SIDE")
        for i in range(8):
            conn.execute(f"INSERT INTO ITEMS VALUES ({100 + i}, 1.0)")
            conn.execute(f"INSERT INTO SIDE VALUES ({1 + i}, 1.0)")
        db.replication.batch_size = 3
        assert db.replication.drain() == 16
        conn.set_acceleration("ALL")
        assert conn.execute("SELECT COUNT(*) FROM items").scalar() == 28
        assert conn.execute("SELECT COUNT(*) FROM side").scalar() == 9
        conn.set_acceleration("ENABLE")
        side_lsn = db.accelerator.applied_lsn("SIDE")
        batch = [ChangeRecord(9001, 1, "ITEMS", "INSERT", after=(900, 1.0))]
        assert db.accelerator.apply_changes("ITEMS", batch) == 1
        # Identical redelivery: dropped by the ITEMS watermark, and the
        # unrelated SIDE cursor must not have moved either way.
        assert db.accelerator.apply_changes("ITEMS", batch) == 0
        assert db.accelerator.applied_lsn("SIDE") == side_lsn


class TestTransactionalCapture:
    def test_uncommitted_changes_not_replicated(self, db, conn):
        conn.execute("BEGIN")
        conn.execute("UPDATE items SET v = 0")
        assert db.replication.backlog == 0  # nothing published yet
        conn.execute("ROLLBACK")
        db.replication.drain()
        assert accel_sum(conn) == 4950.0

    def test_commit_publishes_all_changes_in_order(self, db, conn):
        conn.execute("BEGIN")
        conn.execute("UPDATE items SET v = 1 WHERE id = 0")
        conn.execute("UPDATE items SET v = 2 WHERE id = 0")
        conn.execute("COMMIT")
        db.replication.drain()
        conn.set_acceleration("ALL")
        assert conn.execute("SELECT v FROM items WHERE id = 0").scalar() == 2.0
