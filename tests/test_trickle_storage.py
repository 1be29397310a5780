"""Trickle writes extend a table's last chunk instead of sealing new ones.

``ColumnStoreTable.append_columns`` fills the table's last chunk up to
``chunk_rows`` before it cuts a new chunk, for every batch size and every
write path (bulk load, AOT DML, replication apply, transaction commit,
GROOM). These tests pin the layout that rule produces, the copy-on-write
views that keep lock-free readers exact while the tail grows, the
incrementally widened zone maps, and GROOM's respect for open snapshots —
at one instance and on 2- and 4-shard pools.
"""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest

from repro import AcceleratedDatabase
from repro.catalog.schema import (
    Column,
    TableSchema,
    columns_from_rows,
    rows_from_columns,
)
from repro.errors import ReproError
from repro.shard.pool import ShardedTable
from repro.sql.types import BIGINT, DOUBLE, INTEGER, VarcharType
from repro.storage.column_store import NEVER_DELETED, ColumnStoreTable
from repro.storage.zone_maps import ZoneMap

SHARD_COUNTS = [1, 2, 4]
CHUNK_ROWS = 64


def _stores(table) -> list[ColumnStoreTable]:
    """Every column store behind an accelerator table."""
    if isinstance(table, ShardedTable):
        return list(table.parts)
    return [table]


def assert_tail_rule(table) -> None:
    """Every chunk but a store's last is full, so the chunk count is
    exactly ceil(stored / chunk_rows)."""
    for store in _stores(table):
        chunks = list(store.iter_chunks())
        assert all(len(chunk) == store.chunk_rows for chunk in chunks[:-1])
        assert len(chunks) == math.ceil(store.stored_rows / store.chunk_rows)


def _system(shards: int, **kwargs) -> AcceleratedDatabase:
    return AcceleratedDatabase(
        shards=shards, slice_count=2, chunk_rows=CHUNK_ROWS, **kwargs
    )


def _accel_rows(conn, sql: str) -> list[tuple]:
    conn.set_acceleration("ALL")
    try:
        result = conn.execute(sql)
        assert result.engine == "ACCELERATOR"
        return result.rows
    finally:
        conn.set_acceleration("ENABLE")


# ---------------------------------------------------------------------------
# Chunk count stays bounded on every write path
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shards", SHARD_COUNTS)
class TestChunkCountStaysBounded:
    def test_single_row_appends(self, shards):
        db = _system(shards)
        conn = db.connect()
        conn.execute("CREATE TABLE A (ID INTEGER, V DOUBLE) IN ACCELERATOR")
        table = db.accelerator.storage_for("A")
        schema = table.schema
        for i in range(2000):
            table.append_columns(
                list(columns_from_rows(schema, [(i, i * 0.5)]).values()),
                epoch=db.accelerator.current_epoch,
            )
        assert table.stored_rows == 2000
        assert_tail_rule(table)
        assert conn.execute("SELECT COUNT(*), SUM(id) FROM a").rows == [
            (2000, sum(range(2000)))
        ]

    def test_replication_applies(self, shards):
        db = _system(shards)
        conn = db.connect()
        conn.execute("CREATE TABLE R (ID INTEGER NOT NULL PRIMARY KEY, V INTEGER)")
        conn.execute(
            "INSERT INTO R VALUES "
            + ", ".join(f"({i}, 0)" for i in range(100))
        )
        db.add_table_to_accelerator("R")
        for step in range(2000):
            # Each autocommit UPDATE drains one change at commit time.
            conn.execute(f"UPDATE r SET v = v + 1 WHERE id = {step % 100}")
        table = db.accelerator.storage_for("R")
        assert table.stored_rows == 2100
        assert_tail_rule(table)
        assert _accel_rows(conn, "SELECT COUNT(*), SUM(v) FROM r") == [
            (100, 2000)
        ]

    def test_apply_delta_commits(self, shards):
        db = _system(shards)
        conn = db.connect()
        conn.execute("CREATE TABLE T (ID INTEGER, V INTEGER) IN ACCELERATOR")
        for i in range(2000):
            conn.execute("BEGIN")
            conn.execute(f"INSERT INTO T VALUES ({i}, {i % 7})")
            conn.execute("COMMIT")
        table = db.accelerator.storage_for("T")
        assert table.stored_rows == 2000
        assert_tail_rule(table)
        assert conn.execute("SELECT COUNT(*), SUM(v) FROM t").rows == [
            (2000, sum(i % 7 for i in range(2000)))
        ]

    def test_bulk_batches_fill_the_tail_first(self, shards):
        db = _system(shards)
        conn = db.connect()
        conn.execute("CREATE TABLE B (ID INTEGER) IN ACCELERATOR")
        for start in range(0, 1000, 37):
            conn.execute(
                "INSERT INTO B VALUES "
                + ", ".join(f"({i})" for i in range(start, min(start + 37, 1000)))
            )
        table = db.accelerator.storage_for("B")
        assert_tail_rule(table)
        assert conn.execute("SELECT COUNT(*), SUM(id) FROM b").rows == [
            (1000, sum(range(1000)))
        ]


# ---------------------------------------------------------------------------
# Storage-level behaviour of an extended tail
# ---------------------------------------------------------------------------


def _table(chunk_rows: int = CHUNK_ROWS, **columns) -> ColumnStoreTable:
    schema = TableSchema(
        [Column(name, sql_type) for name, sql_type in columns.items()]
    )
    return ColumnStoreTable(schema, chunk_rows=chunk_rows)


def _append(table: ColumnStoreTable, rows: list[tuple], epoch: int):
    packed = columns_from_rows(table.schema, rows)
    return table.append_columns(list(packed.values()), epoch)


def _read(table: ColumnStoreTable, chunks, epoch: int):
    row_ids, columns = table.gather_chunks(chunks, epoch)
    return row_ids.tolist(), {
        name: column.to_objects() for name, column in columns.items()
    }


def _rows_by_id(table: ColumnStoreTable, epoch: int, ids) -> list[tuple]:
    """The rows visible at ``epoch`` with the given ids, in ``ids`` order."""
    row_ids, columns = table.read_visible(epoch)
    rows = rows_from_columns([columns[c.name] for c in table.schema.columns])
    by_id = dict(zip(row_ids.tolist(), rows))
    return [by_id[row_id] for row_id in ids]


def test_readers_keep_their_snapshot_across_extensions():
    table = _table(ID=INTEGER, S=VarcharType(8))
    _append(table, [(i, f"s{i}") for i in range(3)], epoch=1)
    _append(table, [(3, None)], epoch=2)  # the first extension: regrown
    held = table.visible_chunks()
    before_snapshot = _read(table, held, 2)
    buffers_before = table._chunks[-1].buffers
    assert buffers_before is not None

    epoch = 3
    for i in range(4, 40):
        _append(table, [(i, None if i % 3 else f"s{i}")], epoch)
        epoch += 1
    table.mark_deleted([0, 3, 10], epoch)
    # The run grew the buffers at least once: the held view reads the old
    # arrays, the table the new ones.
    assert table._chunks[-1].buffers is not buffers_before
    assert table.total_chunk_count == 1

    assert _read(table, held, 2) == before_snapshot
    assert _read(table, table.visible_chunks(), 2) == before_snapshot
    ids_now, columns_now = _read(table, table.visible_chunks(), epoch)
    assert ids_now == [i for i in range(40) if i not in (0, 3, 10)]
    assert columns_now["S"][:2] == ["s1", "s2"]


def test_lock_free_readers_stay_exact_under_a_trickle_writer():
    """Readers scan with no lock while one writer extends the tail,
    regrows its buffers, seals chunks and stamps deletes: each scan at
    epoch e returns exactly the rows that schedule makes visible at e."""
    table = _table(chunk_rows=48, ID=INTEGER, V=BIGINT)
    writes = 1500
    published = [0]
    errors: list[str] = []
    done = threading.Event()

    def expected(epoch: int) -> list[int]:
        # Row i is inserted at epoch i + 1; epoch d (d % 5 == 0) deletes
        # row d - 3.
        deleted = {d - 3 for d in range(5, epoch + 1, 5)}
        return [i for i in range(epoch) if i not in deleted]

    def writer() -> None:
        try:
            for epoch in range(1, writes + 1):
                _append(table, [(epoch - 1, 2 * (epoch - 1))], epoch)
                if epoch % 5 == 0:
                    table.mark_deleted([epoch - 3], epoch)
                published[0] = epoch
        finally:
            done.set()

    def reader() -> None:
        while not done.is_set() and not errors:
            epoch = published[0]
            ids, columns = _read(table, table.visible_chunks(), epoch)
            if ids != expected(epoch) or columns["V"] != [2 * i for i in ids]:
                errors.append(f"scan at epoch {epoch} read {len(ids)} rows")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert published[0] == writes
    assert _read(table, table.visible_chunks(), writes)[0] == expected(writes)
    assert_tail_rule(table)


def test_extension_within_capacity_leaves_earlier_views_unchanged():
    table = _table(ID=BIGINT)
    _append(table, [(i,) for i in range(10)], epoch=1)
    _append(table, [(10,)], epoch=2)  # capacity 20 now
    view = table._chunks[-1]
    _append(table, [(11,), (12,)], epoch=3)
    current = table._chunks[-1]
    assert current.buffers is view.buffers  # written in place, after it
    assert len(view) == 11 and len(current) == 13
    assert view.columns["ID"].tolist() == list(range(11))
    assert view.zone_maps["ID"] == ZoneMap(0, 10)
    assert current.zone_maps["ID"] == ZoneMap(0, 12)


def _assert_zone_maps_rebuilt(table: ColumnStoreTable) -> None:
    for chunk in table.iter_chunks():
        for name, values in chunk.columns.items():
            if values.dtype.kind not in "if":
                continue
            expected = ZoneMap.build(values, chunk.masks.get(name))
            assert chunk.zone_maps.get(name) == expected, name


def test_zone_maps_of_an_extended_tail_equal_a_rebuild():
    table = _table(I=BIGINT, F=DOUBLE, N=INTEGER)
    batches = [
        [(0, math.nan, None)],
        [(2**63 - 1, math.inf, None)],
        [(-(2**63), None, None)],
        [(5, -math.inf, 7)],
        [(None, 1.5, None), (3, math.nan, -2)],
        [(2**62, -0.0, 2**31 - 1)],
    ]
    for epoch, rows in enumerate(batches, start=1):
        _append(table, rows, epoch)
        _assert_zone_maps_rebuilt(table)
    tail = table._chunks[-1]
    assert tail.zone_maps["I"] == ZoneMap(-(2**63), 2**63 - 1)
    assert type(tail.zone_maps["I"].maximum) is int
    assert tail.zone_maps["F"] == ZoneMap(-0.0, 1.5)
    assert tail.zone_maps["N"] == ZoneMap(-2, 2**31 - 1)
    # Pruning stays exact at the int64 extreme.
    assert tail.may_match("I", 2**63 - 1, None)


def test_all_null_tail_gains_a_zone_map():
    table = _table(N=INTEGER)
    _append(table, [(None,), (None,)], epoch=1)
    assert "N" not in table._chunks[-1].zone_maps
    _append(table, [(4,)], epoch=2)
    assert table._chunks[-1].zone_maps["N"] == ZoneMap(4, 4)
    _assert_zone_maps_rebuilt(table)


@pytest.mark.parametrize("first_null", [True, False])
def test_null_masks_survive_an_extension(first_null):
    table = _table(ID=INTEGER, V=DOUBLE)
    first = [(0, None), (1, None)] if first_null else [(0, 1.0), (1, 2.0)]
    second = [(2, 3.0)] if first_null else [(2, None)]
    _append(table, first, epoch=1)
    held = table.visible_chunks()
    _append(table, second, epoch=2)
    _append(table, [(3, 4.0)], epoch=3)
    expected = first + second + [(3, 4.0)]
    assert _rows_by_id(table, 3, range(4)) == expected
    assert _read(table, table.visible_chunks(), 3)[1]["V"] == [
        row[1] for row in expected
    ]
    assert _read(table, held, 1)[1]["V"] == [row[1] for row in first]
    mask = table._chunks[-1].masks["V"]
    assert mask is not None
    assert mask.tolist() == [row[1] is None for row in expected]


def test_deletes_and_reads_reach_rows_in_an_extended_tail():
    table = _table(chunk_rows=8, ID=INTEGER)
    for i in range(20):
        _append(table, [(i,)], epoch=i + 1)
    assert [len(chunk) for chunk in table.iter_chunks()] == [8, 8, 4]
    assert table._chunks[2].row_ids[3] == 19
    assert _rows_by_id(table, 20, [7, 8, 19]) == [(7,), (8,), (19,)]
    assert table.mark_deleted([5, 17, 19], epoch=30) == 3
    assert table.mark_deleted([17], epoch=31) == 0
    assert table.row_count == 17
    ids, _ = _read(table, table.visible_chunks(), 30)
    assert ids == [i for i in range(20) if i not in (5, 17, 19)]
    ids, _ = _read(table, table.visible_chunks(), 29)
    assert ids == list(range(20))


def test_rewrite_with_versions_keeps_row_history():
    table = _table(chunk_rows=4, ID=INTEGER)
    for i in range(6):
        _append(table, [(i,)], epoch=i + 1)
    table.mark_deleted([1], epoch=7)
    table.mark_deleted([4], epoch=9)
    row_ids, columns, versions = table.read_versions(floor=8)
    assert row_ids.tolist() == [0, 2, 3, 4, 5]
    fresh = _table(chunk_rows=4, ID=INTEGER)
    fresh.append_columns([columns["ID"]], epoch=0, row_ids=row_ids, versions=versions)
    assert fresh.row_count == 4
    for epoch in (8, 9, 12):
        assert _read(fresh, fresh.visible_chunks(), epoch) == _read(
            table, table.visible_chunks(), epoch
        )
    chunk = fresh._chunks[0]
    assert chunk.insert_epochs.tolist() == [1, 3, 4, 5]
    assert chunk.delete_epochs.tolist() == [NEVER_DELETED] * 3 + [9]


# ---------------------------------------------------------------------------
# GROOM after extensions, and under open snapshots
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_groom_after_extensions(shards):
    db = _system(shards)
    conn = db.connect()
    conn.execute("CREATE TABLE G (ID INTEGER, V DOUBLE) IN ACCELERATOR")
    for i in range(300):
        conn.execute(f"INSERT INTO G VALUES ({i}, {'NULL' if i % 11 == 0 else i})")
    conn.execute("DELETE FROM g WHERE MOD(id, 3) = 0")
    conn.execute("UPDATE g SET v = -v WHERE id > 250")
    before = sorted(conn.execute("SELECT id, v FROM g").rows)
    stats = db.accelerator.groom("G")
    assert stats.rows_reclaimed == 100 + 33
    table = db.accelerator.storage_for("G")
    assert table.stored_rows == 200
    assert_tail_rule(table)
    assert sorted(conn.execute("SELECT id, v FROM g").rows) == before
    conn.execute("INSERT INTO G VALUES (1000, 1.0)")
    assert_tail_rule(table)
    assert conn.execute("SELECT COUNT(*) FROM g WHERE v > 0").scalar() == (
        sum(1 for _, v in before if v is not None and v > 0) + 1
    )


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_groom_keeps_an_open_transactions_snapshot(shards):
    db = _system(shards)
    a, b = db.connect(), db.connect()
    b.execute("CREATE TABLE A (ID INTEGER) IN ACCELERATOR")
    b.execute("INSERT INTO A VALUES " + ", ".join(f"({i})" for i in range(10)))

    a.execute("BEGIN")
    assert a.execute("SELECT COUNT(*) FROM a").scalar() == 10
    b.execute("DELETE FROM a WHERE id < 5")
    assert a.execute("SELECT COUNT(*) FROM a").scalar() == 10
    b.execute("CALL SYSPROC.ACCEL_GROOM_TABLES('tables=A')")
    assert a.execute("SELECT COUNT(*) FROM a").scalar() == 10
    assert b.execute("SELECT COUNT(*) FROM a").scalar() == 5
    a.execute("COMMIT")

    assert a.execute("SELECT COUNT(*) FROM a").scalar() == 5
    # With the snapshot released, the next GROOM reclaims the rows.
    assert db.accelerator.groom("A").rows_reclaimed == 5
    assert db.accelerator.storage_for("A").stored_rows == 5


@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize(
    "move",
    [
        "CALL SYSPROC.ACCEL_CONTROL_ACCELERATOR('action=rebalance')",
        "ALTER TABLE A ACCELERATE DISTRIBUTE BY HASH (V)",
    ],
)
def test_redistribution_keeps_an_open_transactions_snapshot(shards, move):
    db = _system(shards)
    a, b = db.connect(), db.connect()
    b.execute("CREATE TABLE A (ID INTEGER, V INTEGER) IN ACCELERATOR")
    b.execute(
        "INSERT INTO A VALUES " + ", ".join(f"({i}, {i % 3})" for i in range(10))
    )

    a.execute("BEGIN")
    assert a.execute("SELECT COUNT(*) FROM a").scalar() == 10
    b.execute("DELETE FROM a WHERE id < 5")
    assert a.execute("SELECT COUNT(*) FROM a").scalar() == 10
    moved = b.execute(move)
    # Both report the live rows, as before.
    if move.startswith("ALTER"):
        assert moved.rowcount == 5
    else:
        assert "(5 rows placed)" in moved.message
    assert a.execute("SELECT COUNT(*) FROM a").scalar() == 10
    assert sorted(a.execute("SELECT id, v FROM a").rows) == [
        (i, i % 3) for i in range(10)
    ]
    assert b.execute("SELECT COUNT(*) FROM a").scalar() == 5
    a.execute("COMMIT")

    assert a.execute("SELECT COUNT(*) FROM a").scalar() == 5
    assert db.accelerator.groom("A").rows_reclaimed == 5
    assert db.accelerator.storage_for("A").stored_rows == 5


def _counts_by_v(conn) -> list[int]:
    """Per-value counts over a point predicate on V: a HASH (V) spec
    prunes these scans to one shard."""
    return [
        _accel_rows(conn, f"SELECT COUNT(*) FROM a WHERE v = {v}")[0][0]
        for v in range(3)
    ]


@pytest.mark.parametrize("shards", [2, 4])
def test_a_failed_redistribution_keeps_the_old_placement(shards):
    db = _system(shards)
    conn = db.connect()
    conn.execute("CREATE TABLE A (ID INTEGER, V INTEGER) IN ACCELERATOR")
    conn.execute(
        "INSERT INTO A VALUES " + ", ".join(f"({i}, {i % 3})" for i in range(30))
    )
    before = db.accelerator.storage_for("A")
    spec, generation = before.map.spec, before.map.generation
    # Shard 1's admission passes for the write, then fails while the move
    # reads the rows it is about to re-place.
    site = db.accelerator.shard(1).fault_site
    db.faults.add(site, schedule=[db.faults.calls.get(site, 0) + 2])
    with pytest.raises(ReproError):
        conn.execute("ALTER TABLE A ACCELERATE DISTRIBUTE BY HASH (V)")
    assert db.accelerator.storage_for("A") is before
    assert (before.map.spec, before.map.generation) == (spec, generation)
    assert _counts_by_v(conn) == [10, 10, 10]

    conn.execute("ALTER TABLE A ACCELERATE DISTRIBUTE BY HASH (V)")
    after = db.accelerator.storage_for("A")
    assert after.map.spec.columns == ("V",)
    assert after.map.generation == generation + 1
    assert _counts_by_v(conn) == [10, 10, 10]


def test_redistribution_after_a_shard_loss_reads_every_row():
    db = _system(2)
    conn = db.connect()
    conn.execute("CREATE TABLE A (ID INTEGER NOT NULL PRIMARY KEY, V INTEGER)")
    conn.execute(
        "INSERT INTO A VALUES " + ", ".join(f"({i}, {i % 3})" for i in range(30))
    )
    db.add_table_to_accelerator("A")
    db.replication.drain()
    db.accelerator.kill_shard(1)
    with pytest.raises(ReproError):
        conn.execute("ALTER TABLE A ACCELERATE DISTRIBUTE BY HASH (V)")
    db.rebuild_shard(1)
    assert _counts_by_v(conn) == [10, 10, 10]


def test_only_open_transactions_pin_a_snapshot():
    db = _system(1)
    a = db.connect()
    a.execute("CREATE TABLE A (ID INTEGER) IN ACCELERATOR")
    a.execute("INSERT INTO A VALUES (1), (2)")
    manager = db.db2.txn_manager
    assert manager.oldest_snapshot_epoch() is None
    a.execute("BEGIN")
    assert manager.oldest_snapshot_epoch() is None  # nothing read yet
    a.execute("SELECT COUNT(*) FROM a")
    pinned = manager.oldest_snapshot_epoch()
    assert pinned == db.accelerator.current_epoch
    a.execute("DELETE FROM a WHERE id = 1")
    assert manager.oldest_snapshot_epoch() == pinned
    a.execute("ROLLBACK")
    assert manager.oldest_snapshot_epoch() is None


# ---------------------------------------------------------------------------
# The replication row lookup outlives GROOM
# ---------------------------------------------------------------------------


def _replicated(shards: int) -> AcceleratedDatabase:
    db = _system(shards, auto_replicate=False)
    conn = db.connect()
    conn.execute(
        "CREATE TABLE R (ID INTEGER NOT NULL PRIMARY KEY, V INTEGER, S VARCHAR(4))"
    )
    conn.execute(
        "INSERT INTO R VALUES "
        + ", ".join(
            f"({i}, {i % 5}, {'NULL' if i % 4 == 0 else repr('x' + str(i % 3))})"
            for i in range(200)
        )
    )
    db.add_table_to_accelerator("R")
    return db


def _drive(db: AcceleratedDatabase, rebuild: bool) -> list[tuple]:
    conn = db.connect()
    conn.execute("UPDATE r SET v = v + 10 WHERE MOD(id, 7) = 0")
    conn.execute("DELETE FROM r WHERE id BETWEEN 20 AND 29")
    db.replication.drain()
    assert "R" in db.accelerator._lookup_cache
    db.accelerator.groom("R")
    if rebuild:
        db.accelerator._lookup_cache.clear()
    else:
        assert "R" in db.accelerator._lookup_cache
    conn.execute("UPDATE r SET s = 'y' WHERE MOD(id, 7) = 0 OR id = 40")
    conn.execute("DELETE FROM r WHERE v = 4")
    conn.execute("INSERT INTO R VALUES (500, 1, NULL)")
    db.replication.drain()
    return sorted(db.accelerator.snapshot_rows("R"), key=repr)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_drain_groom_drain_matches_a_lookup_rebuild(shards):
    kept = _replicated(shards)
    rebuilt = _replicated(shards)
    rows = _drive(kept, rebuild=False)
    assert rows == _drive(rebuilt, rebuild=True)
    conn = kept.connect()
    conn.set_acceleration("NONE")
    assert rows == sorted(conn.execute("SELECT * FROM r").rows, key=repr)


# ---------------------------------------------------------------------------
# Deletes after a keyless GROOM: chunks hold ascending ids with gaps
# ---------------------------------------------------------------------------


def assert_ids_ascend(table) -> None:
    """Every store's chunk ids, read in scan order, ascend strictly."""
    for store in _stores(table):
        ids = np.concatenate(
            [np.empty(0, dtype=np.int64)]
            + [chunk.row_ids for chunk in store.iter_chunks()]
        )
        assert np.all(np.diff(ids) > 0)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_deletes_reach_rows_after_a_keyless_groom(shards):
    db = _system(shards)
    conn = db.connect()
    conn.execute("CREATE TABLE K (ID INTEGER, V DOUBLE) IN ACCELERATOR")
    conn.execute("CREATE TABLE KT (ID INTEGER, V DOUBLE)")
    conn.execute("CREATE TABLE R (ID INTEGER NOT NULL PRIMARY KEY, V DOUBLE)")
    db.add_table_to_accelerator("R")
    for batch in range(3):
        values = ", ".join(
            f"({i}, {i * 0.5})" for i in range(batch * 40, batch * 40 + 40)
        )
        for name in ("K", "KT", "R"):
            conn.execute(f"INSERT INTO {name} VALUES {values}")
    for name in ("K", "KT", "R"):
        conn.execute(f"DELETE FROM {name} WHERE MOD(id, 7) = 0 AND id < 60")
    db.replication.drain()
    # The groom packs the survivors of three batches into full chunks:
    # ids keep ascending, with the deleted ones' gaps inside a chunk.
    for name in ("K", "R"):
        db.accelerator.groom(name)
        table = db.accelerator.storage_for(name)
        assert_ids_ascend(table)
        assert_tail_rule(table)
        assert any(
            np.any(np.diff(chunk.row_ids) > 1)
            for store in _stores(table)
            for chunk in store.iter_chunks()
        ), name

    for name in ("K", "KT"):
        conn.execute(f"DELETE FROM {name} WHERE v > 30 AND v < 40")
        conn.execute(f"UPDATE {name} SET v = v + 100 WHERE MOD(id, 5) = 1")
    conn.execute("DELETE FROM r WHERE MOD(id, 5) = 2")
    conn.execute("UPDATE r SET v = -v WHERE MOD(id, 9) = 4")
    db.replication.drain()

    # The storage surface: a duplicate id counts once, an absent one is
    # skipped, a deleted one is not stamped again.
    table = db.accelerator.storage_for("K")
    row_ids, columns = table.read_visible(db.accelerator.current_epoch)
    target = int(row_ids[len(row_ids) // 2])
    target_id = columns["ID"].values[len(row_ids) // 2]
    absent = table._next_row_id + 5
    epoch = db.accelerator.current_epoch + 1
    assert table.mark_deleted([target, absent, target], epoch) == 1
    db.accelerator.current_epoch = epoch
    assert table.mark_deleted([target, absent], epoch + 1) == 0
    conn.execute(f"DELETE FROM kt WHERE id = {target_id}")

    for accelerated, twin in (("k", "kt"), ("r", "r")):
        conn.set_acceleration("NONE")
        expected = conn.execute(f"SELECT id, v FROM {twin} ORDER BY id").rows
        assert _accel_rows(conn, f"SELECT id, v FROM {accelerated} ORDER BY id") == (
            expected
        )
        table = db.accelerator.storage_for(accelerated)
        assert table.row_count == len(expected)
        assert table.stored_rows == sum(len(c) for c in table.iter_chunks())
        assert_ids_ascend(table)
