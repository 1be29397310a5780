"""Operating the accelerator through SYSPROC calls — the DBA view.

The real IDAA is administered entirely through DB2 stored procedures;
this walk-through uses the same interface: add tables to the
accelerator, watch replication lag, force a drain, re-snapshot a stale
copy, and groom away deleted row versions. It also shows
``Connection.explain`` for inspecting routing decisions without running
the statement.

Run:  python examples/accelerator_administration.py
"""

from repro import AcceleratedDatabase
from repro.workloads import create_star_schema


def show_call(conn, sql: str) -> None:
    result = conn.execute(sql)
    print(f"$ {sql}")
    for (line,) in result.rows:
        print(f"    {line}")


def main() -> None:
    # Manual replication so staleness is observable.
    db = AcceleratedDatabase(auto_replicate=False)
    conn = db.connect()

    create_star_schema(
        conn, customers=500, products=50, transactions=5000, accelerate=False
    )

    # 1. Accelerate tables through the admin procedure.
    show_call(
        conn,
        "CALL SYSPROC.ACCEL_ADD_TABLES("
        "'tables=CUSTOMERS;PRODUCTS;TRANSACTIONS')",
    )
    show_call(conn, "CALL SYSPROC.ACCEL_GET_TABLES_INFO('')")

    # 2. Routing introspection without execution.
    for sql in (
        "SELECT c_region, COUNT(*) FROM customers GROUP BY c_region",
        "SELECT c_income FROM customers WHERE c_id = 42",
    ):
        plan = conn.explain(sql)
        print(f"explain: {sql[:52]:<54} -> {plan['engine']} "
              f"({plan['reason']})")

    # 3. Make the copy stale, inspect, drain.
    conn.execute("UPDATE customers SET c_income = c_income * 1.02 "
                 "WHERE c_income IS NOT NULL")
    print(f"\nreplication backlog after update: "
          f"{db.replication.backlog} records")
    show_call(conn, "CALL SYSPROC.ACCEL_CONTROL_ACCELERATOR('action=status')")
    show_call(
        conn, "CALL SYSPROC.ACCEL_CONTROL_ACCELERATOR('action=replicate')"
    )

    # 4. Verify copy freshness with the same query on both engines.
    conn.execute("SET CURRENT QUERY ACCELERATION = NONE")
    db2_total = conn.execute("SELECT SUM(c_income) FROM customers").scalar()
    conn.execute("SET CURRENT QUERY ACCELERATION = ALL")
    accel_total = conn.execute("SELECT SUM(c_income) FROM customers").scalar()
    print(f"copy check: db2={db2_total:,.2f} accel={accel_total:,.2f} "
          f"match={abs(db2_total - accel_total) < 1e-6}")
    conn.execute("SET CURRENT QUERY ACCELERATION = ENABLE")

    # 5. Full re-snapshot (e.g. after bulk maintenance on DB2).
    show_call(conn, "CALL SYSPROC.ACCEL_LOAD_TABLES('tables=CUSTOMERS')")

    # 6. Groom an AOT after heavy deletes.
    conn.execute(
        "CREATE TABLE WORKLIST AS (SELECT t_id, t_amount FROM transactions) "
        "IN ACCELERATOR"
    )
    conn.execute("DELETE FROM worklist WHERE t_amount < 1000")
    table = db.accelerator.storage_for("WORKLIST")
    physical = sum(len(c) for c in table.iter_chunks())
    print(f"\nWORKLIST before groom: {table.row_count} live rows, "
          f"{physical} physical rows")
    show_call(conn, "CALL SYSPROC.ACCEL_GROOM_TABLES('tables=WORKLIST')")
    table = db.accelerator.storage_for("WORKLIST")
    physical = sum(len(c) for c in table.iter_chunks())
    print(f"WORKLIST after groom:  {table.row_count} live rows, "
          f"{physical} physical rows")


if __name__ == "__main__":
    main()
