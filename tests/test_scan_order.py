"""An accelerated table scans in row-id order, and that is DB2's order.

A column store keeps one chunk sequence per table (per shard on a pool)
in ascending row-id order, and the pool merges its shard reads by row
id. Fresh ids only grow and GROOM / redistribution rewrite rows in scan
order, so an un-ORDERed accelerated ``SELECT *`` lists the rows exactly
as DB2's row store does, and byte-identically at every shard count.

The schedule runs a keyed and a keyless replicated copy through a bulk
insert, trickle inserts, deletes, a GROOM after the deletes, ``ALTER …
DISTRIBUTE BY`` and a checkpoint plus restart; no step updates a row,
because DB2 updates in place where the accelerator appends a new
version.
"""

from __future__ import annotations

import numpy as np

from repro import AcceleratedDatabase
from repro.recovery.harness import CrashRestartDriver

SHARD_COUNTS = (1, 2, 4)
TABLES = ("H", "N")


def _bulk(db, conn):
    for name in TABLES:
        conn.execute(
            f"INSERT INTO {name} VALUES "
            + ", ".join(
                f"({i * 37 % 101}, {i * 0.25}, "
                f"{'NULL' if i % 6 == 0 else repr('s' + str(i % 4))})"
                for i in range(120)
            )
        )


def _trickle(db, conn):
    for i in range(120, 150):
        for name in TABLES:
            conn.execute(f"INSERT INTO {name} VALUES ({i % 17}, {i * 0.5}, 't')")


def _delete(db, conn):
    for name in TABLES:
        conn.execute(f"DELETE FROM {name} WHERE MOD(k, 3) = 1 OR v > 70")


def _groom(db, conn):
    conn.execute("CALL SYSPROC.ACCEL_GROOM_TABLES('tables=H;N')")


def _redistribute(db, conn):
    conn.execute("ALTER TABLE H ACCELERATE DISTRIBUTE BY RANDOM")
    conn.execute("ALTER TABLE N ACCELERATE DISTRIBUTE BY HASH (K)")


def _restart(db, conn):
    db.recovery.checkpoint()
    for name in TABLES:
        conn.execute(f"INSERT INTO {name} VALUES (999, -1.0, 'after')")
    appliance = CrashRestartDriver(db)
    appliance.kill()
    appliance.restart()


STEPS = [
    ("bulk insert", _bulk),
    ("trickle inserts", _trickle),
    ("deletes", _delete),
    ("groom", _groom),
    ("distribute by", _redistribute),
    ("checkpoint and restart", _restart),
]


def _system(shards: int):
    db = AcceleratedDatabase(
        shards=shards, slice_count=2, chunk_rows=16, cooldown_seconds=0.0
    )
    conn = db.connect()
    conn.execute(
        "CREATE TABLE H (K INTEGER NOT NULL, V DOUBLE, S VARCHAR(8)) "
        "DISTRIBUTE BY HASH(K)"
    )
    conn.execute("CREATE TABLE N (K INTEGER NOT NULL, V DOUBLE, S VARCHAR(8))")
    for name in TABLES:
        db.add_table_to_accelerator(name)
    return db, conn


def _stores(db, name: str) -> list:
    table = db.accelerator.storage_for(name)
    return list(getattr(table, "parts", [table]))


def _scan(conn, name: str, acceleration: str) -> list[tuple]:
    conn.set_acceleration(acceleration)
    try:
        result = conn.execute(f"SELECT * FROM {name.lower()}")
    finally:
        conn.set_acceleration("ENABLE")
    assert result.engine == ("DB2" if acceleration == "NONE" else "ACCELERATOR")
    return result.rows


def _run(shards: int) -> list[str]:
    """Drive the schedule; after each step check the order against DB2
    and the stores' ids, and return the accelerated lists' bytes."""
    db, conn = _system(shards)
    seen = []
    for step, run in STEPS:
        run(db, conn)
        db.replication.drain()
        for name in TABLES:
            accelerated = _scan(conn, name, "ALL")
            assert accelerated == _scan(conn, name, "NONE"), (shards, step, name)
            for store in _stores(db, name):
                ids = np.concatenate(
                    [np.empty(0, dtype=np.int64)]
                    + [chunk.row_ids for chunk in store.iter_chunks()]
                )
                assert np.all(np.diff(ids) > 0), (shards, step, name)
            seen.append(repr(accelerated))
    return seen


def test_scan_order_is_db2_order_at_every_shard_count():
    lists = {shards: _run(shards) for shards in SHARD_COUNTS}
    assert lists[2] == lists[1]
    assert lists[4] == lists[1]

