"""The scale-out pool (``repro.shard``): placement, byte-identity,
per-shard resilience, DISTRIBUTE BY DDL, monitoring, and WLM coupling.

The core contract under test is transparency at scale: a pool of N
accelerator shards must return byte-identical results to the single
instance for every query, survive one shard dying without taking the
whole accelerator offline, and rebuild the dead shard from DB2 (the
system of record) on demand.
"""

from __future__ import annotations

import pytest

from repro import AcceleratedDatabase, IdaaLoader, IterableSource
from repro.catalog import Catalog, Column, TableSchema
from repro.errors import (
    AuthorizationError,
    CatalogError,
    ReproError,
    ShardUnavailableError,
    SqlError,
    UnknownObjectError,
)
from repro.shard import PartitionSpec, default_spec, range_boundaries
from repro.sql.types import DOUBLE, INTEGER, VarcharType

SHARD_COUNTS = (1, 2, 4)


# ---------------------------------------------------------------------------
# Placement unit tests
# ---------------------------------------------------------------------------


class TestPartitionSpec:
    def test_validation(self):
        with pytest.raises(CatalogError):
            PartitionSpec("HASH")  # needs columns
        with pytest.raises(CatalogError):
            PartitionSpec("RANGE", ("A", "B"))  # exactly one column
        with pytest.raises(CatalogError):
            PartitionSpec("RANDOM", ("A",))  # no columns allowed
        with pytest.raises(CatalogError):
            PartitionSpec("HASH", ("A",), boundaries=(1, 2))
        with pytest.raises(CatalogError):
            PartitionSpec("RANGE", ("A",), boundaries=(5, 5))
        with pytest.raises(CatalogError):
            PartitionSpec("MODULO", ("A",))

    def test_hash_routing_is_deterministic(self):
        spec = PartitionSpec("HASH", ("ID",))
        first = spec.shard_for_row((42, "x"), 0, [0], 4)
        assert spec.shard_for_row((42, "y"), 99, [0], 4) == first
        assert 0 <= first < 4
        # One shard cannot own every key.
        owners = {spec.shard_for_row((i,), 0, [0], 4) for i in range(64)}
        assert len(owners) > 1

    def test_range_routing(self):
        spec = PartitionSpec("RANGE", ("ID",), boundaries=(10, 20))
        assert spec.shard_for_row((5,), 0, [0], 3) == 0
        assert spec.shard_for_row((10,), 0, [0], 3) == 1  # right-open
        assert spec.shard_for_row((15,), 0, [0], 3) == 1
        assert spec.shard_for_row((25,), 0, [0], 3) == 2
        assert spec.shard_for_row((None,), 0, [0], 3) == 0  # NULLs first

    def test_random_routing_round_robins_by_row_id(self):
        spec = PartitionSpec("RANDOM")
        assert [spec.shard_for_row((0,), rid, [], 3) for rid in range(6)] == [
            0, 1, 2, 0, 1, 2,
        ]

    def test_single_shard_short_circuits(self):
        spec = PartitionSpec("HASH", ("ID",))
        assert spec.shard_for_row((123,), 0, [0], 1) == 0


class TestShardPruning:
    SCHEMA = TableSchema(
        [Column("ID", INTEGER, nullable=False), Column("V", DOUBLE)]
    )

    def test_hash_prunes_point_lookups_only(self):
        spec = PartitionSpec("HASH", ("ID",))
        assert spec.prune(None, 4, self.SCHEMA) is None
        assert spec.prune({"V": (1, 1)}, 4, self.SCHEMA) is None
        assert spec.prune({"ID": (1, 5)}, 4, self.SCHEMA) is None
        pruned = spec.prune({"ID": (7, 7)}, 4, self.SCHEMA)
        assert pruned == {spec.shard_for_row((7,), 0, [0], 4)}

    def test_range_prunes_overlapping_intervals(self):
        spec = PartitionSpec("RANGE", ("ID",), boundaries=(10, 20))
        assert spec.prune({"ID": (0, 5)}, 3, self.SCHEMA) == {0}
        assert spec.prune({"ID": (12, 18)}, 3, self.SCHEMA) == {1}
        assert spec.prune({"ID": (5, 25)}, 3, self.SCHEMA) == {0, 1, 2}
        assert spec.prune({"ID": (None, 5)}, 3, self.SCHEMA) == {0}
        assert spec.prune({"ID": (25, None)}, 3, self.SCHEMA) == {2}

    def test_random_never_prunes(self):
        spec = PartitionSpec("RANDOM")
        assert spec.prune({"ID": (7, 7)}, 4, self.SCHEMA) is None


class TestRangeBoundaries:
    def test_quantile_splits(self):
        assert range_boundaries(list(range(100)), 4) == (25, 50, 75)

    def test_duplicates_collapse(self):
        cuts = range_boundaries([1] * 50 + [2] * 50, 4)
        assert cuts == tuple(sorted(set(cuts)))  # strictly ascending
        assert set(cuts) <= {1, 2}

    def test_empty_and_single_shard(self):
        assert range_boundaries([], 4) == ()
        assert range_boundaries([1, 2, 3], 1) == ()

    def test_strings_split_positionally(self):
        cuts = range_boundaries([chr(ord("a") + i) for i in range(26)], 2)
        assert len(cuts) == 1 and "a" < cuts[0] < "z"


class TestDefaultSpec:
    def test_distribute_on_becomes_hash(self):
        catalog = Catalog()
        descriptor = catalog.create_table(
            "T",
            TableSchema([Column("ID", INTEGER, nullable=False)]),
            distribute_on=["id"],
        )
        spec = default_spec(descriptor)
        assert spec.method == "HASH" and spec.columns == ("ID",)

    def test_no_distribution_key_round_robins(self):
        catalog = Catalog()
        descriptor = catalog.create_table(
            "T", TableSchema([Column("ID", INTEGER, nullable=False)])
        )
        assert default_spec(descriptor).method == "RANDOM"


# ---------------------------------------------------------------------------
# Byte-identity across shard counts
# ---------------------------------------------------------------------------

_IDENTITY_QUERIES = [
    "SELECT * FROM T ORDER BY ID",
    "SELECT COUNT(*), SUM(V), MIN(V), MAX(V), AVG(V) FROM T",
    "SELECT COUNT(V), COUNT(DISTINCT K) FROM T",
    "SELECT K, COUNT(*), SUM(V) FROM T GROUP BY K ORDER BY K",
    "SELECT ID, V FROM T WHERE ID BETWEEN 40 AND 90 ORDER BY ID",
    "SELECT ID FROM T WHERE V IS NULL ORDER BY ID",
    "SELECT ID FROM T WHERE ID = 57",
    "SELECT DISTINCT K FROM T ORDER BY K",
    "SELECT ID, V FROM T ORDER BY V DESC, ID LIMIT 10",
    "SELECT S, COUNT(*) FROM T WHERE V > 0 GROUP BY S ORDER BY S",
]


def _build_workload(shards: int, distribute: str) -> tuple:
    """An AOT workload with inserts, updates, deletes, and a groom."""
    db = AcceleratedDatabase(shards=shards, slice_count=2, chunk_rows=32)
    conn = db.connect()
    conn.execute(
        "CREATE TABLE T (ID INTEGER NOT NULL, K INTEGER, V DOUBLE, "
        f"S VARCHAR(4)) IN ACCELERATOR{distribute}"
    )
    rows = ", ".join(
        "({id}, {k}, {v}, {s})".format(
            id=i,
            k="NULL" if i % 11 == 0 else i % 5,
            v="NULL" if i % 7 == 0 else round((i * 37 % 100) - 50 + i / 8, 2),
            s="NULL" if i % 13 == 0 else f"'s{i % 3}'",
        )
        for i in range(120)
    )
    conn.execute(f"INSERT INTO T VALUES {rows}")
    conn.execute("UPDATE T SET V = V * 2 WHERE ID % 4 = 1 AND V IS NOT NULL")
    conn.execute("DELETE FROM T WHERE ID % 9 = 5")
    db.accelerator.groom("T")
    conn.execute("INSERT INTO T VALUES (500, 1, 3.5, 'zz'), (501, NULL, NULL, NULL)")
    conn.set_acceleration("ALL")
    return db, conn


@pytest.mark.parametrize(
    "distribute",
    ["", " DISTRIBUTE BY HASH(ID)", " DISTRIBUTE BY RANDOM"],
    ids=["default", "hash", "random"],
)
def test_sharded_results_are_byte_identical(distribute):
    baseline = None
    for shards in SHARD_COUNTS:
        db, conn = _build_workload(shards, distribute)
        results = []
        for sql in _IDENTITY_QUERIES:
            result = conn.execute(sql)
            assert result.engine == "ACCELERATOR", (shards, sql)
            results.append(result.rows)
        if baseline is None:
            baseline = results
        else:
            for sql, expected, got in zip(
                _IDENTITY_QUERIES, baseline, results
            ):
                assert got == expected, (shards, sql)


def test_alter_distribute_preserves_results():
    db, conn = _build_workload(3, "")
    expected = [conn.execute(sql).rows for sql in _IDENTITY_QUERIES]
    generation = db.catalog.generation
    for ddl in (
        "ALTER TABLE T ACCELERATE DISTRIBUTE BY HASH(ID, K)",
        "ALTER TABLE T ACCELERATE DISTRIBUTE BY RANGE(ID)",
        "ALTER TABLE T ACCELERATE DISTRIBUTE BY RANDOM",
    ):
        result = conn.execute(ddl)
        assert result.engine == "ACCELERATOR"
        assert result.rowcount > 0  # live rows were re-placed
        for sql, rows in zip(_IDENTITY_QUERIES, expected):
            assert conn.execute(sql).rows == rows, (ddl, sql)
    assert db.catalog.generation > generation  # cached plans invalidated


def test_alter_distribute_regrooms_at_one_shard():
    db, conn = _build_workload(1, "")
    conn.execute("DELETE FROM T WHERE ID = 500")
    expected = [conn.execute(sql).rows for sql in _IDENTITY_QUERIES]
    live = conn.execute("SELECT COUNT(*) FROM T").scalar()
    table = db.accelerator.storage_for("T")
    assert table.stored_rows == live + 1
    result = conn.execute("ALTER TABLE T ACCELERATE DISTRIBUTE BY HASH(ID)")
    assert result.rowcount == live
    groomed = db.accelerator.storage_for("T")
    assert groomed.map.generation == table.map.generation + 1
    assert groomed.stored_rows == live  # the deleted version is reclaimed
    for sql, rows in zip(_IDENTITY_QUERIES, expected):
        assert conn.execute(sql).rows == rows, sql


def test_alter_distribute_records_spec_in_catalog():
    db, conn = _build_workload(2, "")
    conn.execute("ALTER TABLE T ACCELERATE DISTRIBUTE BY RANGE(ID)")
    spec = db.catalog.partition_spec("T")
    assert spec.method == "RANGE" and spec.columns == ("ID",)
    assert spec.boundaries  # quantiles were computed from live data
    # The pool's shard map follows the catalog spec.
    facade = db.accelerator.storage_for("T")
    assert facade.map.spec == spec
    assert facade.map.generation > 1


def test_alter_distribute_authorization_and_validation():
    db, conn = _build_workload(2, "")
    db.catalog.create_user("PLEB")
    pleb = db.connect("PLEB")
    with pytest.raises(AuthorizationError):
        pleb.execute("ALTER TABLE T ACCELERATE DISTRIBUTE BY RANDOM")
    with pytest.raises(UnknownObjectError):
        conn.execute("ALTER TABLE T ACCELERATE DISTRIBUTE BY HASH(NOPE)")
    conn.execute("CREATE TABLE DB2ONLY (ID INTEGER NOT NULL)")
    with pytest.raises(SqlError):
        conn.execute("ALTER TABLE DB2ONLY ACCELERATE DISTRIBUTE BY RANDOM")


def test_shard_pruning_skips_shards_on_point_lookup():
    db, conn = _build_workload(4, " DISTRIBUTE BY HASH(ID)")
    pool = db.accelerator
    before_total = pool.shard_scans_total
    before_pruned = pool.shard_scans_pruned
    rows = conn.execute("SELECT ID, V FROM T WHERE ID = 57").rows
    assert [r[0] for r in rows] == [57]
    assert pool.shard_scans_total - before_total == 4
    assert pool.shard_scans_pruned - before_pruned == 3  # one shard scanned


# ---------------------------------------------------------------------------
# Kill one shard mid-workload
# ---------------------------------------------------------------------------


def _accelerated_copy(shards: int = 3):
    db = AcceleratedDatabase(shards=shards, slice_count=2, chunk_rows=32)
    conn = db.connect()
    conn.execute("CREATE TABLE C (ID INTEGER NOT NULL PRIMARY KEY, V DOUBLE)")
    rows = ", ".join(f"({i}, {float(i)})" for i in range(90))
    conn.execute(f"INSERT INTO C VALUES {rows}")
    db.add_table_to_accelerator("C")
    conn.set_acceleration("ENABLE WITH FAILBACK")
    return db, conn


class TestKillOneShard:
    def test_copy_fails_back_to_db2_and_circuit_stays_closed(self):
        db, conn = _accelerated_copy()
        assert conn.execute("SELECT SUM(V) FROM C").engine == "ACCELERATOR"
        db.accelerator.kill_shard(1)
        result = conn.execute("SELECT SUM(V) FROM C")
        # Correct answer from the DB2 copy, and one dead shard must NOT
        # have tripped the pool-wide circuit breaker.
        assert result.engine == "DB2"
        assert result.scalar() == sum(float(i) for i in range(90))
        assert db.health.available
        assert db.accelerator.live_shards == 2

    def test_pruned_scans_avoid_the_dead_shard(self):
        db = AcceleratedDatabase(shards=3, slice_count=2, chunk_rows=32)
        conn = db.connect()
        conn.execute(
            "CREATE TABLE A (ID INTEGER NOT NULL, V DOUBLE) "
            "IN ACCELERATOR DISTRIBUTE BY HASH(ID)"
        )
        rows = ", ".join(f"({i}, {float(i)})" for i in range(60))
        conn.execute(f"INSERT INTO A VALUES {rows}")
        facade = db.accelerator.storage_for("A")
        spec = facade.map.spec
        shard_of = lambda i: spec.shard_for_row((i, None), 0, [0], 3)  # noqa: E731
        dead = 1
        live_id = next(i for i in range(60) if shard_of(i) != dead)
        dead_id = next(i for i in range(60) if shard_of(i) == dead)
        db.accelerator.kill_shard(dead)
        conn.set_acceleration("ALL")
        # Placement-pruned to a live shard: still served by the pool.
        result = conn.execute(f"SELECT V FROM A WHERE ID = {live_id}")
        assert result.engine == "ACCELERATOR"
        assert result.scalar() == float(live_id)
        # Touching the dead shard's partition fails fast (an AOT has no
        # DB2 copy to fail back to).
        with pytest.raises(ReproError, match="rebuild_shard"):
            conn.execute(f"SELECT V FROM A WHERE ID = {dead_id}")

    def test_writes_fail_fast_before_any_shard_mutates(self):
        db = AcceleratedDatabase(shards=3, slice_count=2, chunk_rows=32)
        conn = db.connect()
        conn.execute(
            "CREATE TABLE W (ID INTEGER NOT NULL, V DOUBLE) IN ACCELERATOR"
        )
        conn.execute("INSERT INTO W VALUES (1, 1.0), (2, 2.0)")
        db.accelerator.kill_shard(2)
        with pytest.raises(ReproError):
            conn.execute("INSERT INTO W VALUES (3, 3.0)")
        db.rebuild_shard(2)
        # The AOT partition on shard 2 is gone (no DB2 copy) — but
        # surviving partitions were never half-written.
        facade = db.accelerator.storage_for("W")
        assert 2 in facade.lost_shards

    def test_rebuild_shard_reloads_copies_from_db2(self):
        db, conn = _accelerated_copy()
        db.accelerator.kill_shard(0)
        assert conn.execute("SELECT COUNT(*) FROM C").engine == "DB2"
        reloaded = db.rebuild_shard(0)
        assert reloaded == 1
        result = conn.execute("SELECT SUM(V) FROM C")
        assert result.engine == "ACCELERATOR"
        assert result.scalar() == sum(float(i) for i in range(90))
        assert db.accelerator.live_shards == 3

    def test_single_shard_fails_back_and_rebuilds(self):
        db, conn = _accelerated_copy(shards=1)
        expected = [(sum(float(i) for i in range(90)), 90)]
        sql = "SELECT SUM(V), COUNT(*) FROM C"
        assert conn.execute(sql).engine == "ACCELERATOR"
        db.accelerator.kill_shard(0)
        result = conn.execute(sql)
        assert (result.engine, result.rows) == ("DB2", expected)
        assert db.accelerator.live_shards == 0
        assert db.rebuild_shard(0) == 1
        result = conn.execute(sql)
        assert (result.engine, result.rows) == ("ACCELERATOR", expected)

    @pytest.mark.parametrize("shards", (1, 3))
    def test_rebuild_via_accel_control_procedure(self, shards):
        db, conn = _accelerated_copy(shards)
        last = shards - 1
        conn.execute(
            "CALL SYSPROC.ACCEL_CONTROL_ACCELERATOR("
            f"'action=kill_shard, shard={last}')"
        )
        assert db.accelerator.live_shards == shards - 1
        result = conn.execute(
            "CALL SYSPROC.ACCEL_CONTROL_ACCELERATOR("
            f"'action=rebuild_shard, shard={last}')"
        )
        assert "rebuilt" in result.message
        assert db.accelerator.live_shards == shards
        assert conn.execute("SELECT COUNT(*) FROM C").engine == "ACCELERATOR"
        result = conn.execute(
            "CALL SYSPROC.ACCEL_CONTROL_ACCELERATOR('action=rebalance')"
        )
        assert "1 tables rebalanced (90 rows placed)" in result.message

    def test_mid_workload_kill_never_corrupts_results(self):
        """Crash-harness-style scenario: a query stream crosses a shard
        death and a rebuild; every answer along the way must be correct
        (served by whichever engine can still produce it)."""
        db, conn = _accelerated_copy()
        expected_sum = sum(float(i) for i in range(90))
        for step in range(8):
            if step == 3:
                db.accelerator.kill_shard(1)
            if step == 6:
                assert db.rebuild_shard(1) == 1
            result = conn.execute("SELECT SUM(V), COUNT(*) FROM C")
            assert result.rows == [(expected_sum, 90)], step
        # After the rebuild the pool serves again.
        assert conn.execute("SELECT COUNT(*) FROM C").engine == "ACCELERATOR"

    def test_replication_catches_up_after_rebuild(self):
        db = AcceleratedDatabase(
            shards=3, slice_count=2, chunk_rows=32, auto_replicate=False
        )
        conn = db.connect()
        conn.execute(
            "CREATE TABLE R (ID INTEGER NOT NULL PRIMARY KEY, V DOUBLE)"
        )
        conn.execute(
            "INSERT INTO R VALUES "
            + ", ".join(f"({i}, 1.0)" for i in range(30))
        )
        db.add_table_to_accelerator("R")
        db.accelerator.kill_shard(1)
        conn.execute("INSERT INTO R VALUES (100, 5.0)")
        # The drain cannot apply against a dead shard; whatever it did,
        # the cursor must not have advanced past an unapplied record.
        try:
            db.replication.drain()
        except ReproError:
            pass
        db.rebuild_shard(1)  # reloads R from DB2, which has all 31 rows
        db.replication.drain()
        db.health.reset()  # clear any global trips from failed drains
        conn.set_acceleration("ALL")
        result = conn.execute("SELECT COUNT(*), SUM(V) FROM R")
        assert result.engine == "ACCELERATOR"
        assert result.rows == [(31, 35.0)]


# ---------------------------------------------------------------------------
# Monitoring and WLM coupling
# ---------------------------------------------------------------------------


class TestShardObservability:
    @pytest.mark.parametrize("shards", (1, 3))
    def test_mon_shards_one_row_per_shard(self, shards):
        db, conn = _accelerated_copy(shards)
        conn.execute("SELECT COUNT(*) FROM C")
        rows = conn.execute(
            "SELECT SHARD_ID, STATE, ALIVE, ROW_COUNT, BYTES_TO_SHARD, "
            "BYTES_FROM_SHARD FROM SYSACCEL.MON_SHARDS ORDER BY SHARD_ID"
        ).rows
        assert [r[0] for r in rows] == list(range(shards))
        assert all(r[1] == "ONLINE" and r[2] == "Y" for r in rows)
        assert sum(r[3] for r in rows) == 90
        # Each row reports its shard's own traffic, not the federation's.
        shard_list = db.accelerator.shard_list
        assert [r[4:] for r in rows] == [
            (shard.bytes_to_shard, shard.bytes_from_shard) for shard in shard_list
        ]
        assert all(shard.bytes_to_shard > 0 for shard in shard_list)

    @pytest.mark.parametrize("shards", (1, 4))
    def test_write_accounting_per_shard(self, shards):
        """Every shard counts the rows and bytes that landed on it; a
        batch that lands wholly on one shard is counted the same way as
        one split over several."""
        db = AcceleratedDatabase(shards=shards, slice_count=2, chunk_rows=32)
        conn = db.connect()
        conn.execute(
            "CREATE TABLE W (K INTEGER, S VARCHAR(8)) IN ACCELERATOR "
            "DISTRIBUTE BY HASH(K)"
        )
        schema = db.catalog.table("W").schema

        def counters():
            return [
                (s.rows_written, s.bytes_to_shard)
                for s in db.accelerator.shard_list
            ]

        def insert(rows):
            before = counters()
            conn.execute("INSERT INTO W VALUES " + ", ".join(
                f"({k}, {'NULL' if v is None else repr(v)})" for k, v in rows
            ))
            moved = [
                (rows_after - rows_before, bytes_after - bytes_before)
                for (rows_after, bytes_after), (rows_before, bytes_before)
                in zip(counters(), before)
            ]
            size = sum(schema.row_byte_size(schema.coerce_row(r)) for r in rows)
            return [m for m in moved if m != (0, 0)], size

        landed, size = insert([(i, f"s{i}") for i in range(40)])
        assert len(landed) == shards  # forty keys reach every shard
        assert tuple(map(sum, zip(*landed))) == (40, size)
        for rows in (
            [(7, "x" * (i % 5)) for i in range(25)],
            [(9, None)],
        ):
            landed, size = insert(rows)
            assert landed == [(len(rows), size)]

    @pytest.mark.parametrize("shards", (1, 4))
    def test_loaded_bytes_reach_the_shards_unchanged(self, shards):
        """The loader counts each batch's wire size once, for the
        federation link; the shards count the same bytes."""
        db = AcceleratedDatabase(shards=shards, slice_count=2, chunk_rows=32)
        conn = db.connect()
        conn.execute("CREATE TABLE L (K INTEGER, S VARCHAR(8)) IN ACCELERATOR")

        def shard_bytes():
            return sum(s.bytes_to_shard for s in db.accelerator.shard_list)

        before = shard_bytes()
        rows = [(k, None if k % 3 else f"s{k}") for k in range(50)]
        report = IdaaLoader(db, batch_size=16).load(
            IterableSource(rows, ["K", "S"]), "L", conn
        )
        assert report.rows == 50
        assert shard_bytes() - before == report.movement.bytes_to_accelerator > 0

    def test_mon_shards_reports_dead_shard(self):
        db, conn = _accelerated_copy(shards=3)
        db.accelerator.kill_shard(1)
        rows = conn.execute(
            "SELECT STATE, ALIVE, LOST_TABLES FROM SYSACCEL.MON_SHARDS "
            "WHERE SHARD_ID = 1"
        ).rows
        assert rows == [("DOWN", "N", 1)]

    def test_mon_shards_counts_the_live_parts_after_a_failed_groom(self):
        db = AcceleratedDatabase(shards=2, slice_count=2, chunk_rows=32)
        conn = db.connect()
        conn.execute("CREATE TABLE G (A INTEGER NOT NULL) IN ACCELERATOR")
        conn.execute(
            "INSERT INTO G VALUES " + ", ".join(f"({i})" for i in range(100))
        )
        conn.execute("DELETE FROM g WHERE a < 10")
        table = db.accelerator.storage_for("G")
        # Shard 1 admits the GROOM up front, then fails its read of the
        # old rows: the table keeps its old storage.
        site = db.accelerator.shard(1).fault_site
        db.faults.add(site, schedule=[db.faults.calls.get(site, 0) + 2])
        with pytest.raises(ShardUnavailableError):
            conn.execute("CALL SYSPROC.ACCEL_GROOM_TABLES('tables=G')")
        assert db.accelerator.storage_for("G") is table
        assert conn.execute("SELECT COUNT(*) FROM g").scalar() == 90
        rows = conn.execute(
            "SELECT SHARD_ID, TABLES, ROW_COUNT FROM SYSACCEL.MON_SHARDS "
            "ORDER BY SHARD_ID"
        ).rows
        assert rows == [
            (shard_id, 1, part.row_count)
            for shard_id, part in enumerate(table.parts)
        ]
        assert sum(row[2] for row in rows) == 90
        lines = [r[0] for r in conn.execute(
            "CALL SYSPROC.ACCEL_GET_HEALTH('')"
        ).rows]
        assert [l.split()[2] for l in lines if l.startswith("shard")] == [
            f"rows={part.row_count}" for part in table.parts
        ]

    def test_row_count_after_a_kill_counts_the_rows_the_pool_holds(self):
        db, conn = _accelerated_copy(shards=3)
        table = db.accelerator.storage_for("C")
        held = [part.row_count for part in table.parts]
        assert db.accelerator.kill_shard(1) == held[1]
        rows = conn.execute(
            "SELECT SHARD_ID, ROW_COUNT FROM SYSACCEL.MON_SHARDS "
            "ORDER BY SHARD_ID"
        ).rows
        assert rows == [(0, held[0]), (1, 0), (2, held[2])]
        # The facade counts what its parts hold, as MON_SHARDS does: the
        # lost partition's rows leave the count until a reload.
        assert table.row_count == sum(row[1] for row in rows) == 90 - held[1]
        result = conn.execute("SELECT COUNT(*) FROM C")
        assert (result.engine, result.scalar()) == ("DB2", 90)
        db.rebuild_shard(1)
        assert db.accelerator.storage_for("C").row_count == 90

    def test_health_report_includes_per_shard_lines(self):
        db, conn = _accelerated_copy(shards=3)
        db.accelerator.kill_shard(2)
        lines = [r[0] for r in conn.execute(
            "CALL SYSPROC.ACCEL_GET_HEALTH('')"
        ).rows]
        shard_lines = [l for l in lines if l.startswith("shard")]
        assert len(shard_lines) == 3
        assert any("state=DOWN" in l for l in shard_lines)

    def test_accelerator_metrics_expose_pool_counters(self):
        db, conn = _accelerated_copy(shards=3)
        conn.execute("SELECT COUNT(*) FROM C")
        snapshot = db.metrics.collect()
        assert snapshot["accelerator.shards"] == 3
        assert snapshot["accelerator.live_shards"] == 3
        assert snapshot["accelerator.critical_path_seconds"] > 0
        assert snapshot["accelerator.shard_scans_total"] >= 3


class TestWlmShardCoupling:
    def _system(self, shards=4):
        return AcceleratedDatabase(
            shards=shards,
            slice_count=2,
            chunk_rows=32,
            wlm_enabled=True,
            wlm_accelerator_slots=8,
        )

    def test_one_dead_shard_does_not_shed(self):
        db = self._system()
        db.accelerator.kill_shard(0)
        # The shedder's health view: pool still has live capacity.
        assert db.wlm.shedder.health.available

    def test_all_shards_dead_sheds(self):
        db = self._system(shards=2)
        db.accelerator.kill_shard(0)
        db.accelerator.kill_shard(1)
        assert not db.wlm.shedder.health.available
        db.accelerator.revive_shard(0)
        assert db.wlm.shedder.health.available

    def test_gate_capacity_follows_live_shards(self):
        db = self._system(shards=4)
        gate = db.wlm.gates["ACCELERATOR"]
        assert gate.slots_total == 8
        db.accelerator.kill_shard(0)
        assert gate.slots_total == 6  # 8 * 3/4
        db.accelerator.kill_shard(1)
        assert gate.slots_total == 4
        db.accelerator.revive_shard(0)
        db.accelerator.revive_shard(1)
        assert gate.slots_total == 8


class TestShardErrors:
    def test_unknown_shard_id_rejected(self):
        db, __ = _accelerated_copy(shards=2)
        with pytest.raises(ReproError):
            db.accelerator.kill_shard(7)
        with pytest.raises(ReproError):
            db.rebuild_shard(-1)

    def test_shard_error_carries_shard_id(self):
        db, conn = _accelerated_copy(shards=3)
        db.accelerator.kill_shard(1)
        pool = db.accelerator
        with pytest.raises(ShardUnavailableError) as info:
            pool.require_shard(1)
        assert info.value.shard_id == 1

