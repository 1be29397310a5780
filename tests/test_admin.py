"""SYSPROC administration procedures, GROOM, SET register, explain."""

import pytest

from repro import AcceleratedDatabase
from repro.errors import AuthorizationError, ProcedureError, SqlError


@pytest.fixture
def db():
    return AcceleratedDatabase(slice_count=2, chunk_rows=64)


@pytest.fixture
def conn(db):
    connection = db.connect()
    connection.execute(
        "CREATE TABLE T (ID INTEGER NOT NULL PRIMARY KEY, V DOUBLE)"
    )
    rows = ", ".join(f"({i}, {float(i)})" for i in range(200))
    connection.execute(f"INSERT INTO T VALUES {rows}")
    return connection


class TestAccelAddRemove:
    def test_add_tables_via_call(self, db, conn):
        result = conn.execute("CALL SYSPROC.ACCEL_ADD_TABLES('tables=T')")
        assert "200 rows copied" in result.message
        assert db.catalog.table("T").is_accelerated

    def test_add_multiple_tables(self, db, conn):
        conn.execute("CREATE TABLE U (A INTEGER)")
        result = conn.execute(
            "CALL SYSPROC.ACCEL_ADD_TABLES('tables=T;U')"
        )
        assert db.catalog.table("U").is_accelerated
        assert "ACCEL_ADD_TABLES ok" in result.message

    def test_remove_tables_via_call(self, db, conn):
        conn.execute("CALL SYSPROC.ACCEL_ADD_TABLES('tables=T')")
        conn.execute("CALL SYSPROC.ACCEL_REMOVE_TABLES('tables=T')")
        assert not db.catalog.table("T").is_accelerated

    def test_requires_admin(self, db, conn):
        db.create_user("PLEB")
        pleb = db.connect("PLEB")
        with pytest.raises(AuthorizationError):
            pleb.execute("CALL SYSPROC.ACCEL_ADD_TABLES('tables=T')")

    def test_missing_tables_parameter(self, conn):
        with pytest.raises(ProcedureError):
            conn.execute("CALL SYSPROC.ACCEL_ADD_TABLES('')")

    def test_get_tables_info(self, db, conn):
        conn.execute("CALL SYSPROC.ACCEL_ADD_TABLES('tables=T')")
        result = conn.execute("CALL SYSPROC.ACCEL_GET_TABLES_INFO('')")
        lines = [row[0] for row in result.rows]
        assert any("T: location=ACCELERATED" in line for line in lines)


class TestAccelLoadTables:
    def test_reload_refreshes_stale_copy(self, db, conn):
        db.auto_replicate = False
        conn.execute("CALL SYSPROC.ACCEL_ADD_TABLES('tables=T')")
        conn.execute("UPDATE t SET v = 0")  # copy is now stale
        conn.set_acceleration("ALL")
        assert conn.execute("SELECT SUM(v) FROM t").scalar() != 0
        conn.execute("CALL SYSPROC.ACCEL_LOAD_TABLES('tables=T')")
        assert conn.execute("SELECT SUM(v) FROM t").scalar() == 0

    def test_reload_resets_replication_cursor(self, db, conn):
        db.auto_replicate = False
        conn.execute("CALL SYSPROC.ACCEL_ADD_TABLES('tables=T')")
        conn.execute("UPDATE t SET v = 1")
        conn.execute("CALL SYSPROC.ACCEL_LOAD_TABLES('tables=T')")
        # Draining the (pre-reload) backlog must not double-apply.
        db.replication.drain()
        conn.set_acceleration("ALL")
        assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 200

    def test_reload_of_non_accelerated_table_fails(self, conn):
        from repro.errors import UnknownObjectError

        with pytest.raises(UnknownObjectError):
            conn.execute("CALL SYSPROC.ACCEL_LOAD_TABLES('tables=T')")


class TestGroom:
    def test_groom_reclaims_deleted_rows(self, db, conn):
        conn.execute("CREATE TABLE A (ID INTEGER, V DOUBLE) IN ACCELERATOR")
        rows = ", ".join(f"({i}, 1.0)" for i in range(300))
        conn.execute(f"INSERT INTO A VALUES {rows}")
        conn.execute("DELETE FROM a WHERE id < 200")
        table = db.accelerator.storage_for("A")
        result = conn.execute("CALL SYSPROC.ACCEL_GROOM_TABLES('tables=A')")
        assert "200 rows reclaimed" in result.message
        fresh = db.accelerator.storage_for("A")
        assert fresh.row_count == 100
        # Physical footprint shrank: no dead rows in any chunk.
        total_physical = sum(len(c) for c in fresh.iter_chunks())
        assert total_physical == 100

    def test_groom_preserves_answers(self, db, conn):
        conn.execute("CREATE TABLE A (ID INTEGER, V DOUBLE) IN ACCELERATOR")
        rows = ", ".join(f"({i}, {float(i)})" for i in range(100))
        conn.execute(f"INSERT INTO A VALUES {rows}")
        conn.execute("DELETE FROM a WHERE id % 2 = 0")
        before = conn.execute("SELECT SUM(v), COUNT(*) FROM a").rows
        conn.execute("CALL SYSPROC.ACCEL_GROOM_TABLES('tables=A')")
        after = conn.execute("SELECT SUM(v), COUNT(*) FROM a").rows
        assert before == after

    def test_groom_preserves_row_ids_for_later_dml(self, db, conn):
        conn.execute("CREATE TABLE A (ID INTEGER, V DOUBLE) IN ACCELERATOR")
        conn.execute("INSERT INTO A VALUES (1, 1.0), (2, 2.0), (3, 3.0)")
        conn.execute("DELETE FROM a WHERE id = 2")
        conn.execute("CALL SYSPROC.ACCEL_GROOM_TABLES('tables=A')")
        assert conn.execute("DELETE FROM a WHERE id = 3").rowcount == 1
        assert conn.execute("UPDATE a SET v = 9 WHERE id = 1").rowcount == 1
        assert conn.execute("SELECT v FROM a").rows == [(9.0,)]

    def test_trickle_inserts_do_not_grow_the_chunk_count(self, db, conn):
        conn.execute("CREATE TABLE A (ID INTEGER) IN ACCELERATOR")
        for i in range(20):  # 20 single-row inserts extend one tail chunk
            conn.execute(f"INSERT INTO A VALUES ({i})")
        table = db.accelerator.storage_for("A")
        # At most one chunk per store: a part of a pool, or the table.
        stores = getattr(table, "parts", [table])
        assert all(store.total_chunk_count <= 1 for store in stores)
        assert table.total_chunk_count <= len(stores)
        stats = db.accelerator.groom("A")
        groomed = db.accelerator.storage_for("A")
        assert all(
            store.total_chunk_count <= 1
            for store in getattr(groomed, "parts", [groomed])
        )
        assert stats.chunks_after == groomed.total_chunk_count <= len(stores)
        assert conn.execute("SELECT COUNT(*) FROM a").scalar() == 20


class TestControlAccelerator:
    def test_replicate_action_drains(self, db, conn):
        db.auto_replicate = False
        conn.execute("CALL SYSPROC.ACCEL_ADD_TABLES('tables=T')")
        conn.execute("UPDATE t SET v = -1 WHERE id < 5")
        assert db.replication.backlog == 5
        result = conn.execute(
            "CALL SYSPROC.ACCEL_CONTROL_ACCELERATOR('action=replicate')"
        )
        assert "5 changes applied" in result.message
        assert db.replication.backlog == 0

    def test_status_action(self, db, conn):
        result = conn.execute(
            "CALL SYSPROC.ACCEL_CONTROL_ACCELERATOR('action=status')"
        )
        assert any("backlog" in row[0] for row in result.rows)

    def test_unknown_action(self, conn):
        with pytest.raises(ProcedureError):
            conn.execute(
                "CALL SYSPROC.ACCEL_CONTROL_ACCELERATOR('action=explode')"
            )


class TestSetRegister:
    def test_set_acceleration_via_sql(self, db, conn):
        conn.execute("CALL SYSPROC.ACCEL_ADD_TABLES('tables=T')")
        conn.execute("SET CURRENT QUERY ACCELERATION = ALL")
        assert conn.execute("SELECT COUNT(*) FROM t").engine == "ACCELERATOR"
        conn.execute("SET CURRENT QUERY ACCELERATION = NONE")
        assert conn.execute("SELECT COUNT(*) FROM t").engine == "DB2"

    def test_set_is_case_insensitive(self, conn):
        conn.execute("SET CURRENT QUERY ACCELERATION = enable")
        assert conn.acceleration.value == "ENABLE"

    def test_unknown_register(self, conn):
        with pytest.raises(SqlError):
            conn.execute("SET CURRENT FUNNY_REGISTER = 1")

    def test_unknown_mode(self, conn):
        from repro.errors import UnknownObjectError

        with pytest.raises(UnknownObjectError):
            conn.execute("SET CURRENT QUERY ACCELERATION = TURBO")


class TestExplain:
    def test_explain_query(self, db, conn):
        conn.execute("CALL SYSPROC.ACCEL_ADD_TABLES('tables=T')")
        plan = conn.explain("SELECT COUNT(*) FROM t")
        assert plan["engine"] == "ACCELERATOR"
        assert plan["tables"] == {"T": "ACCELERATED"}

    def test_explain_point_lookup(self, db, conn):
        conn.execute("CALL SYSPROC.ACCEL_ADD_TABLES('tables=T')")
        plan = conn.explain("SELECT v FROM t WHERE id = 3")
        assert plan["engine"] == "DB2"
        assert "point lookup" in plan["reason"]

    def test_explain_does_not_execute(self, db, conn):
        queries_before = db.accelerator.queries_executed
        conn.explain("SELECT COUNT(*) FROM t")
        assert db.accelerator.queries_executed == queries_before

    def test_explain_dml(self, db, conn):
        conn.execute("CREATE TABLE A (ID INTEGER) IN ACCELERATOR")
        plan = conn.explain("INSERT INTO A VALUES (1)")
        assert plan["engine"] == "ACCELERATOR"
        assert plan["statement"] == "INSERT"

    def test_explain_call_and_ddl(self, conn):
        assert conn.explain("CALL INZA.LIST_MODELS()")["engine"] == "ACCELERATOR"
        assert conn.explain("DROP TABLE T")["engine"] == "DB2"


class TestExplainStatement:
    def test_explain_select_via_sql(self, db, conn):
        conn.execute("CALL SYSPROC.ACCEL_ADD_TABLES('tables=T')")
        result = conn.execute("EXPLAIN SELECT SUM(v) FROM t")
        plan = dict(result.rows)
        assert plan["ENGINE"] == "ACCELERATOR"
        assert "T=ACCELERATED" in plan["TABLES"]

    def test_explain_point_lookup_via_sql(self, db, conn):
        conn.execute("CALL SYSPROC.ACCEL_ADD_TABLES('tables=T')")
        plan = dict(conn.execute("EXPLAIN SELECT v FROM t WHERE id = 1").rows)
        assert plan["ENGINE"] == "DB2"

    def test_explain_does_not_run_the_statement(self, db, conn):
        before = conn.execute("SELECT COUNT(*) FROM t").scalar()
        conn.execute("EXPLAIN DELETE FROM t")
        assert conn.execute("SELECT COUNT(*) FROM t").scalar() == before
