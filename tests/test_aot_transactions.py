"""The paper's Section 2 transaction semantics, end to end through SQL.

"With AOTs, IDAA has to be aware of the DB2 transaction context so that
correct results are guaranteed, i.e., uncommitted data modifications of
the own transaction are handled. At the same time, concurrent execution
of multiple queries in a single transaction are also supported."
"""

import pytest

from repro import AcceleratedDatabase
from repro.errors import TransactionStateError, UnknownObjectError


@pytest.fixture
def db():
    return AcceleratedDatabase(slice_count=2, chunk_rows=64)


@pytest.fixture
def conn(db):
    connection = db.connect()
    connection.execute(
        "CREATE TABLE STAGE (ID INTEGER, V DOUBLE) IN ACCELERATOR"
    )
    rows = ", ".join(f"({i}, {float(i)})" for i in range(50))
    connection.execute(f"INSERT INTO STAGE VALUES {rows}")
    return connection


class TestOwnChangesVisible:
    def test_uncommitted_insert_visible_to_own_queries(self, conn):
        conn.execute("BEGIN")
        conn.execute("INSERT INTO STAGE VALUES (100, 100.0)")
        assert conn.execute("SELECT COUNT(*) FROM stage").scalar() == 51
        conn.execute("ROLLBACK")

    def test_uncommitted_delete_visible_to_own_queries(self, conn):
        conn.execute("BEGIN")
        conn.execute("DELETE FROM stage WHERE id < 10")
        assert conn.execute("SELECT COUNT(*) FROM stage").scalar() == 40
        conn.execute("ROLLBACK")

    def test_uncommitted_update_visible_to_own_queries(self, conn):
        conn.execute("BEGIN")
        conn.execute("UPDATE stage SET v = 0 WHERE id = 5")
        assert (
            conn.execute("SELECT v FROM stage WHERE id = 5").scalar() == 0.0
        )
        conn.execute("ROLLBACK")

    def test_chained_statements_see_each_other(self, conn):
        """Multi-statement ELT within one transaction composes."""
        conn.execute("BEGIN")
        conn.execute("INSERT INTO STAGE VALUES (200, 1.0)")
        conn.execute("UPDATE stage SET v = v + 1 WHERE id = 200")
        conn.execute(
            "INSERT INTO STAGE SELECT id + 1000, v FROM stage WHERE id = 200"
        )
        result = conn.execute("SELECT v FROM stage WHERE id = 1200")
        assert result.rows == [(2.0,)]
        conn.execute("COMMIT")

    def test_multiple_queries_in_one_transaction(self, conn):
        """Concurrent query execution within one txn: same stable view."""
        conn.execute("BEGIN")
        conn.execute("INSERT INTO STAGE VALUES (300, 0.0)")
        first = conn.execute("SELECT COUNT(*) FROM stage").scalar()
        second = conn.execute("SELECT COUNT(*) FROM stage").scalar()
        third = conn.execute(
            "SELECT COUNT(*) FROM stage WHERE id >= 0"
        ).scalar()
        assert first == second == third == 51
        conn.execute("ROLLBACK")


class TestIsolation:
    def test_other_transactions_do_not_see_uncommitted(self, db, conn):
        other = db.connect()
        conn.execute("BEGIN")
        conn.execute("INSERT INTO STAGE VALUES (400, 0.0)")
        assert other.execute("SELECT COUNT(*) FROM stage").scalar() == 50
        conn.execute("COMMIT")
        assert other.execute("SELECT COUNT(*) FROM stage").scalar() == 51

    def test_open_snapshot_does_not_see_later_commits(self, db, conn):
        reader = db.connect()
        reader.execute("BEGIN")
        # Pin the reader's snapshot with a first query.
        assert reader.execute("SELECT COUNT(*) FROM stage").scalar() == 50
        conn.execute("INSERT INTO STAGE VALUES (500, 0.0)")  # autocommit
        # Snapshot isolation: the reader still sees the old state.
        assert reader.execute("SELECT COUNT(*) FROM stage").scalar() == 50
        reader.execute("COMMIT")
        assert reader.execute("SELECT COUNT(*) FROM stage").scalar() == 51

    def test_two_writers_do_not_interfere(self, db, conn):
        other = db.connect()
        conn.execute("BEGIN")
        other.execute("BEGIN")
        conn.execute("INSERT INTO STAGE VALUES (600, 1.0)")
        other.execute("INSERT INTO STAGE VALUES (601, 2.0)")
        assert conn.execute(
            "SELECT COUNT(*) FROM stage WHERE id IN (600, 601)"
        ).scalar() == 1
        assert other.execute(
            "SELECT COUNT(*) FROM stage WHERE id IN (600, 601)"
        ).scalar() == 1
        conn.execute("COMMIT")
        other.execute("COMMIT")
        fresh = db.connect()
        assert fresh.execute(
            "SELECT COUNT(*) FROM stage WHERE id IN (600, 601)"
        ).scalar() == 2


class TestRollback:
    def test_rollback_discards_aot_changes(self, conn):
        conn.execute("BEGIN")
        conn.execute("DELETE FROM stage")
        conn.execute("INSERT INTO STAGE VALUES (1, -1.0)")
        conn.execute("ROLLBACK")
        assert conn.execute("SELECT COUNT(*) FROM stage").scalar() == 50
        assert (
            conn.execute("SELECT v FROM stage WHERE id = 1").scalar() == 1.0
        )

    def test_mixed_db2_and_aot_transaction_rolls_back_both(self, db, conn):
        conn.execute("CREATE TABLE DB2SIDE (A INTEGER)")
        conn.execute("BEGIN")
        conn.execute("INSERT INTO DB2SIDE VALUES (1)")
        conn.execute("INSERT INTO STAGE VALUES (700, 0.0)")
        conn.execute("ROLLBACK")
        assert conn.execute("SELECT COUNT(*) FROM db2side").scalar() == 0
        assert conn.execute("SELECT COUNT(*) FROM stage").scalar() == 50

    def test_mixed_transaction_commits_both(self, db, conn):
        conn.execute("CREATE TABLE DB2SIDE (A INTEGER)")
        conn.execute("BEGIN")
        conn.execute("INSERT INTO DB2SIDE VALUES (1)")
        conn.execute("INSERT INTO STAGE VALUES (701, 0.0)")
        conn.execute("COMMIT")
        assert conn.execute("SELECT COUNT(*) FROM db2side").scalar() == 1
        assert conn.execute("SELECT COUNT(*) FROM stage").scalar() == 51

    def test_failed_statement_rolls_back_only_itself(self, conn):
        conn.execute("BEGIN")
        conn.execute("INSERT INTO STAGE VALUES (800, 0.0)")
        with pytest.raises(Exception):
            conn.execute("INSERT INTO STAGE SELECT * FROM no_such_table")
        assert conn.execute(
            "SELECT COUNT(*) FROM stage WHERE id = 800"
        ).scalar() == 1
        conn.execute("COMMIT")
        assert conn.execute(
            "SELECT COUNT(*) FROM stage WHERE id = 800"
        ).scalar() == 1


class TestSnapshotPinning:
    def test_transaction_reads_are_repeatable_on_accelerator(self, db, conn):
        """Within one txn the accelerator snapshot does not move even as
        other sessions commit (the paper's snapshot-isolation model)."""
        reader = db.connect()
        reader.execute("BEGIN")
        first = reader.execute("SELECT SUM(v) FROM stage").scalar()
        conn.execute("UPDATE stage SET v = v + 1000")
        second = reader.execute("SELECT SUM(v) FROM stage").scalar()
        assert first == second
        reader.execute("COMMIT")


@pytest.mark.parametrize("shards", [1, 4])
class TestCommitIsOneWrite:
    """A COMMIT publishes all of its transaction's AOT writes at one epoch,
    or none of them."""

    @staticmethod
    def two_aots(shards):
        db = AcceleratedDatabase(slice_count=2, chunk_rows=64, shards=shards)
        conn = db.connect()
        conn.execute("CREATE TABLE A (ID INTEGER) IN ACCELERATOR")
        conn.execute("CREATE TABLE B (ID INTEGER) IN ACCELERATOR")
        conn.execute("BEGIN")
        conn.execute("INSERT INTO A VALUES (1)")
        conn.execute("INSERT INTO B VALUES (1)")
        return db, conn

    def test_a_refused_commit_publishes_nothing_and_ends_the_transaction(
        self, shards
    ):
        db, conn = self.two_aots(shards)
        db.connect().execute("DROP TABLE B")
        with pytest.raises(UnknownObjectError):
            conn.execute("COMMIT")
        assert not conn.in_transaction
        with pytest.raises(TransactionStateError):
            conn.execute("COMMIT")
        assert conn.execute("SELECT COUNT(*) FROM A").scalar() == 0

    def test_no_reader_sees_one_table_of_a_commit_without_the_other(
        self, shards
    ):
        db, conn = self.two_aots(shards)
        reader = db.connect()
        journal = db.accelerator.write_listener
        seen = []

        def read_both(table, lineage):
            journal(table, lineage)
            seen.append(
                (
                    db.accelerator.current_epoch,
                    reader.execute("SELECT COUNT(*) FROM A").scalar(),
                    reader.execute("SELECT COUNT(*) FROM B").scalar(),
                )
            )

        db.accelerator.write_listener = read_both
        conn.execute("COMMIT")
        assert [counts for __, *counts in seen] == [[1, 1], [1, 1]]
        assert len({epoch for epoch, *__ in seen}) == 1
