"""Scaling the accelerator out to four shards — and surviving a shard.

One accelerator appliance tops out at its slices × scan rate;
``AcceleratedDatabase(shards=N)`` runs the same engine over N shards
instead. This walk-through declares placement with
``DISTRIBUTE BY``, shows a point lookup pruning down to one shard,
kills a shard mid-workload (queries fail back to DB2 while the global
circuit stays closed), rebuilds it from DB2, re-places the table with
``ALTER TABLE … DISTRIBUTE BY``, and reads the story back from
``SYSACCEL.MON_SHARDS`` and ``SYSPROC.ACCEL_GET_HEALTH``.

Run:  python examples/scale_out.py
"""

from repro import AcceleratedDatabase


def show_call(conn, sql: str) -> None:
    result = conn.execute(sql)
    print(f"$ {sql}")
    for (line,) in result.rows:
        print(f"    {line}")


def show_shards(conn) -> None:
    rows = conn.execute(
        "SELECT SHARD_ID, STATE, ALIVE, TABLES, ROW_COUNT, SCANS "
        "FROM SYSACCEL.MON_SHARDS ORDER BY SHARD_ID"
    ).rows
    print("    SHARD  STATE    ALIVE  TABLES  ROWS   SCANS")
    for shard_id, state, alive, tables, row_count, scans in rows:
        print(
            f"    {shard_id:>5}  {state:<8} {alive:<6} {tables:>6} "
            f"{row_count:>6} {scans:>5}"
        )


def main() -> None:
    db = AcceleratedDatabase(shards=4, slice_count=2, chunk_rows=4096)
    conn = db.connect()

    # -- an accelerated copy: DB2 stays the source of truth ---------------
    conn.execute(
        "CREATE TABLE ORDERS (ID INTEGER NOT NULL PRIMARY KEY, "
        "REGION INTEGER, AMOUNT DOUBLE)"
    )
    rows = ", ".join(f"({i}, {i % 7}, {float(i % 250)})" for i in range(8_000))
    conn.execute(f"INSERT INTO ORDERS VALUES {rows}")
    db.add_table_to_accelerator("ORDERS")
    conn.set_acceleration("ENABLE WITH FAILBACK")

    print("== 8k-row copy spread over 4 shards ==")
    show_shards(conn)

    result = conn.execute(
        "SELECT REGION, COUNT(*), SUM(AMOUNT) FROM ORDERS "
        "GROUP BY REGION ORDER BY REGION"
    )
    print(f"\nGROUP BY on {result.engine}: {len(result.rows)} regions; "
          "bytes identical to a one-shard run")

    # -- placement: hash the lookup key, prune to one shard ---------------
    conn.execute("ALTER TABLE ORDERS ACCELERATE DISTRIBUTE BY HASH(ID)")
    pool = db.accelerator
    before = (pool.shard_scans_total, pool.shard_scans_pruned)
    # Under ENABLE a PK point lookup stays on DB2; force the shards to
    # show placement pruning at work.
    conn.set_acceleration("ALL")
    conn.execute("SELECT AMOUNT FROM ORDERS WHERE ID = 4711")
    conn.set_acceleration("ENABLE WITH FAILBACK")
    scans = pool.shard_scans_total - before[0]
    pruned = pool.shard_scans_pruned - before[1]
    print(f"\n== DISTRIBUTE BY HASH(ID): point lookup scanned "
          f"{scans - pruned} of {scans} shards ({pruned} pruned) ==")

    # -- kill a shard mid-workload ----------------------------------------
    print("\n== shard 2 dies ==")
    show_call(conn, "CALL SYSPROC.ACCEL_CONTROL_ACCELERATOR("
                    "'action=kill_shard, shard=2')")
    result = conn.execute("SELECT COUNT(*), SUM(AMOUNT) FROM ORDERS")
    print(f"same query now answers on {result.engine} "
          f"(count={result.rows[0][0]}) — failback, not an outage: "
          f"global circuit still {'closed' if db.health.available else 'open'}")
    show_shards(conn)

    # -- rebuild from DB2 --------------------------------------------------
    print("\n== rebuild shard 2 from DB2 ==")
    show_call(conn, "CALL SYSPROC.ACCEL_CONTROL_ACCELERATOR("
                    "'action=rebuild_shard, shard=2')")
    result = conn.execute("SELECT COUNT(*), SUM(AMOUNT) FROM ORDERS")
    print(f"back on {result.engine}: count={result.rows[0][0]}")

    # -- the health report carries one line per shard ----------------------
    print()
    show_call(conn, "CALL SYSPROC.ACCEL_GET_HEALTH('')")


if __name__ == "__main__":
    main()
