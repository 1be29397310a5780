"""Regressions for the accelerator's read path and the plan cache.

Covers the two correctness fixes of the columnar read path — int64
zone-map precision and placement-hash scalar normalisation — plus:
queries and training scan sequentially, never on the worker pool, and
cached plans must be invalidated by DDL but not by grants.
"""

import datetime

import numpy as np
import pytest

from repro.accelerator import AcceleratorEngine
from repro.catalog import Catalog, Column, TableLocation, TableSchema
from repro.catalog.schema import columns_from_rows
from repro.federation import accelerator_shards
from repro.federation.router import scan_statement
from repro.federation.system import AcceleratedDatabase
from repro.sql import parse_statement
from repro.sql.types import BIGINT, DOUBLE, INTEGER, VarcharType
from repro.shard.placement import PartitionSpec, _hash_key
from repro.storage.column_store import ColumnStoreTable
from repro.storage.zone_maps import ZoneMap

INT64_MAX = 2**63 - 1
INT64_MIN = -(2**63)


class TestZoneMapInt64Precision:
    def test_bounds_exact_beyond_float53(self):
        # float64 rounds 2**53 + 1 down to 2**53; the zone map must not.
        boundary = 2**53
        zone = ZoneMap.build(np.array([0, boundary + 1], dtype=np.int64))
        assert zone.maximum == boundary + 1
        assert isinstance(zone.maximum, int)
        assert zone.overlaps(boundary + 1, None)

    def test_bounds_exact_at_int64_extremes(self):
        zone = ZoneMap.build(
            np.array([INT64_MIN, INT64_MAX], dtype=np.int64)
        )
        assert zone.minimum == INT64_MIN
        assert zone.maximum == INT64_MAX
        assert zone.overlaps(INT64_MAX, None)
        assert zone.overlaps(None, INT64_MIN)
        assert not zone.overlaps(None, INT64_MIN - 1)
        assert not zone.overlaps(INT64_MAX + 1, None)

    def test_all_null_chunk_builds_no_zone_map(self):
        values = np.array([0, 0, 0], dtype=np.int64)
        mask = np.array([True, True, True])
        assert ZoneMap.build(values, mask) is None

    def test_nan_only_chunk_builds_no_zone_map(self):
        assert ZoneMap.build(np.array([np.nan, np.nan])) is None

    def test_pruned_scan_keeps_boundary_rows(self):
        # A chunk whose true max is 2**53 + 1 must survive pruning for
        # the predicate ID >= 2**53 + 1 (a float64 bound would round the
        # max down and wrongly discard the chunk — silently losing rows).
        schema = TableSchema([Column("ID", BIGINT, nullable=False)])
        table = ColumnStoreTable(schema, chunk_rows=4)
        table.append_rows([(v,) for v in range(8)], epoch=1)
        table.append_rows([(2**53 + 1,)], epoch=1)
        __, columns = table.read_visible(
            epoch=1, ranges={"ID": (2**53 + 1, None)}
        )
        assert (2**53 + 1) in columns["ID"].values.tolist()
        assert table.last_scan_chunks_skipped > 0

    def test_engine_query_at_int64_extremes(self):
        catalog = Catalog()
        engine = AcceleratorEngine(catalog, accelerator_shards(), slice_count=1, chunk_rows=4)
        schema = TableSchema([Column("ID", BIGINT, nullable=False)])
        descriptor = catalog.create_table(
            "B", schema, location=TableLocation.ACCELERATOR_ONLY
        )
        engine.create_storage(descriptor)
        engine.bulk_insert(
            "B", [(v,) for v in range(8)] + [(INT64_MAX,), (INT64_MIN,)]
        )
        __, rows = engine.execute_select(
            parse_statement(f"SELECT ID FROM B WHERE ID >= {INT64_MAX}")
        )
        assert rows == [(INT64_MAX,)]
        # INT64_MIN itself cannot appear as a literal (the parser reads it
        # as unary minus on 2**63, which overflows int64), so probe the
        # minimum through the next representable literal.
        __, rows = engine.execute_select(
            parse_statement(f"SELECT ID FROM B WHERE ID <= {INT64_MIN + 1}")
        )
        assert rows == [(INT64_MIN,)]


class TestPlacementHashStability:
    def test_numpy_scalars_hash_like_python_scalars(self):
        # np.int64(5) reprs differently from 5; the placement hash must
        # normalise so both route a row to the same shard.
        assert _hash_key((np.int64(5),)) == _hash_key((5,))
        assert _hash_key((np.float64(2.5),)) == _hash_key((2.5,))
        assert _hash_key((np.str_("k"),)) == _hash_key(("k",))
        assert _hash_key((np.bool_(True),)) == _hash_key((True,))
        assert _hash_key(
            (np.int64(1), np.str_("a"))
        ) == _hash_key((1, "a"))

    def test_mixed_scalar_sources_share_a_shard(self):
        schema = TableSchema(
            [Column("K", INTEGER, nullable=False), Column("V", DOUBLE)]
        )
        spec = PartitionSpec("HASH", ("K",))
        plain = [(i, float(i)) for i in range(64)]
        numpy_sourced = [(np.int64(i), np.float64(i)) for i in range(64)]
        row_ids = np.arange(64)
        routed = [
            spec.shards_for_columns(
                [columns_from_rows(schema, rows)["K"]], row_ids, 4
            ).tolist()
            for rows in (plain, numpy_sourced)
        ]
        assert routed[0] == routed[1]
        assert routed[0] == [
            spec.shard_for_row(row, 0, [0], 4) for row in numpy_sourced
        ]
        assert len(set(routed[0])) == 4


class TestDistinctWithNulls:
    @pytest.fixture
    def engine(self):
        catalog = Catalog()
        engine = AcceleratorEngine(catalog, accelerator_shards(), slice_count=2, chunk_rows=8)
        schema = TableSchema(
            [
                Column("ID", INTEGER, nullable=False),
                Column("G", VarcharType(4)),
                Column("V", DOUBLE),
            ]
        )
        descriptor = catalog.create_table(
            "T", schema, location=TableLocation.ACCELERATOR_ONLY
        )
        engine.create_storage(descriptor)
        engine.bulk_insert(
            "T",
            [
                (1, "a", 1.0),
                (2, "a", 1.0),
                (3, None, 1.0),
                (4, None, 1.0),
                (5, "a", None),
                (6, "a", None),
                (7, None, None),
                (8, None, None),
            ],
        )
        return engine

    def run(self, engine, sql):
        return engine.execute_select(parse_statement(sql))[1]

    def test_distinct_single_nullable_column(self, engine):
        rows = self.run(engine, "SELECT DISTINCT G FROM T ORDER BY G")
        assert rows == [("a",), (None,)]  # NULLs sort high

    def test_distinct_collapses_null_pairs(self, engine):
        rows = self.run(
            engine, "SELECT DISTINCT G, V FROM T ORDER BY G, V"
        )
        assert rows == [
            ("a", 1.0),
            ("a", None),
            (None, 1.0),
            (None, None),
        ]

    def test_count_distinct_ignores_nulls(self, engine):
        rows = self.run(engine, "SELECT COUNT(DISTINCT G) FROM T")
        assert rows == [(1,)]


class TestQueriesScanSequentially:
    """Every accelerator SELECT runs the one sequential scan pipeline,
    and a training CALL makes one sequential pass per epoch: neither
    reaches the worker pool."""

    QUERIES = [
        "SELECT COUNT(*) FROM F",
        "SELECT COUNT(*) FROM F WHERE ID > 100 AND ID < 15000",
        "SELECT COUNT(V), COUNT(DISTINCT G), MIN(ID), MAX(V) FROM F",
        "SELECT MIN(V), MAX(ID), COUNT(DISTINCT D) FROM F WHERE ID >= 50",
        "SELECT G, COUNT(*), COUNT(DISTINCT V), MAX(D) FROM F "
        "GROUP BY G ORDER BY G",
        "SELECT ID, V FROM F WHERE V > 1.5 ORDER BY ID",
    ]

    def test_selects_never_reach_the_worker_pool(self, monkeypatch):
        from repro.accelerator.executor import ScanWorkerPool

        db = AcceleratedDatabase(slice_count=4, chunk_rows=4096)
        conn = db.connect()
        conn.execute(
            "CREATE TABLE F (ID INTEGER NOT NULL, V DOUBLE, G VARCHAR(8), "
            "D DATE, X DOUBLE NOT NULL)"
        )
        values = np.random.default_rng(11).normal(size=20_000)
        start = datetime.date(2016, 1, 1)
        rows = [
            (
                i,
                float(values[i]) if i % 13 else None,
                f"g{i % 11}" if i % 5 else None,
                start + datetime.timedelta(days=i % 365),
                float(i % 97),
            )
            for i in range(20_000)
        ]
        txn = db.db2.txn_manager.begin()
        db.db2.insert_rows(txn, "F", rows)
        db.db2.commit(txn)
        db.add_table_to_accelerator("F")

        calls = []
        original = ScanWorkerPool.run.__func__

        def run(cls, workers, fn, items):
            calls.append(workers)
            return original(cls, workers, fn, items)

        monkeypatch.setattr(ScanWorkerPool, "run", classmethod(run))
        for sql in self.QUERIES:
            conn.set_acceleration("NONE")
            expected = conn.execute(sql)
            conn.set_acceleration("ALL")
            result = conn.execute(sql)
            assert result.engine == "ACCELERATOR", sql
            assert result.rows == expected.rows, sql
        assert calls == []

        conn.execute(
            "CALL INZA.KMEANS('intable=F, outtable=KM_F, id=ID, k=3, "
            "randseed=7, model=KM_F, incolumn=X')"
        )
        assert db.models.get("KM_F").rows_trained == 20_000
        assert calls == []


class TestPlanCache:
    @pytest.fixture
    def db(self):
        system = AcceleratedDatabase()
        conn = system.connect()
        conn.execute(
            "CREATE TABLE T (ID INT NOT NULL PRIMARY KEY, V DOUBLE)"
        )
        for i in range(40):
            conn.execute("INSERT INTO T VALUES (?, ?)", (i, float(i)))
        system.add_table_to_accelerator("T")
        system.replication.drain()
        return system, conn

    def test_repeated_statement_hits_cache(self, db):
        system, conn = db
        before = system.plan_cache.snapshot()
        for __ in range(10):
            rows = conn.query("SELECT COUNT(*) FROM T WHERE V > 5")
        assert rows == [(34,)]
        snapshot = system.plan_cache.snapshot()
        assert snapshot["hits"] - before["hits"] == 9
        assert snapshot["hit_rate"] > 0.8

    def test_whitespace_and_case_variants_share_a_plan(self, db):
        system, conn = db
        conn.query("SELECT COUNT(*) FROM T WHERE V > 5")
        hits = system.plan_cache.hits
        conn.query("select   count(*)\nfrom t   where v > 5")
        assert system.plan_cache.hits == hits + 1

    def test_string_literals_are_not_case_folded(self):
        # Strings leave the key verbatim, as the values they bind.
        assert scan_statement("select 'a  b'").values == ("a  b",)
        assert scan_statement("select 'It''s  x'").values == ("It's  x",)
        lower, upper = scan_statement("select 'a'"), scan_statement("select 'A'")
        assert lower.key == upper.key == "SELECT ?"
        assert lower.values == ("a",) and upper.values == ("A",)
        assert lower.text != upper.text

    def test_ddl_invalidates_cached_plans(self, db):
        system, conn = db
        conn.query("SELECT COUNT(*) FROM T")
        hits = system.plan_cache.hits
        conn.query("SELECT COUNT(*) FROM T")
        assert system.plan_cache.hits == hits + 1
        conn.execute("CREATE TABLE OTHER (A INT)")
        conn.query("SELECT COUNT(*) FROM T")
        assert system.plan_cache.invalidations == 1

    def test_accelerator_placement_change_invalidates(self, db):
        system, conn = db
        conn.query("SELECT COUNT(*) FROM T")
        before = system.plan_cache.invalidations
        system.remove_table_from_accelerator("T")
        rows = conn.query("SELECT COUNT(*) FROM T")
        assert rows == [(40,)]
        assert system.plan_cache.invalidations == before + 1

    def test_view_redefinition_invalidates(self, db):
        system, conn = db
        conn.execute("CREATE VIEW BIG AS SELECT ID FROM T WHERE V > 20")
        assert len(conn.query("SELECT ID FROM BIG")) == 19
        conn.execute("DROP VIEW BIG")
        conn.execute("CREATE VIEW BIG AS SELECT ID FROM T WHERE V > 30")
        # A stale cached expansion would still see the old predicate.
        assert len(conn.query("SELECT ID FROM BIG")) == 9

    def test_params_vary_per_execution_of_cached_plan(self, db):
        __, conn = db
        assert conn.query("SELECT ID FROM T WHERE ID = ?", (5,)) == [(5,)]
        assert conn.query("SELECT ID FROM T WHERE ID = ?", (7,)) == [(7,)]

    def test_grants_checked_despite_cached_plan(self, db):
        from repro.catalog import Privilege
        from repro.errors import AuthorizationError

        system, conn = db
        system.create_user("ANALYST")
        system.catalog.privileges.grant(
            "ANALYST", [Privilege.SELECT], "TABLE", "T"
        )
        analyst = system.connect("ANALYST")
        assert analyst.query("SELECT COUNT(*) FROM T") == [(40,)]
        system.catalog.privileges.revoke(
            "ANALYST", [Privilege.SELECT], "TABLE", "T"
        )
        # Revocation does not bump the catalog generation; the cached
        # plan must still be blocked by the per-execution check.
        with pytest.raises(AuthorizationError):
            analyst.query("SELECT COUNT(*) FROM T")

    def test_metrics_source_exposes_plan_cache(self, db):
        system, conn = db
        conn.query("SELECT COUNT(*) FROM T")
        conn.query("SELECT COUNT(*) FROM T")
        collected = system.metrics.collect()
        assert collected["plan_cache.hits"] >= 1
        assert collected["plan_cache.size"] >= 1


class TestKernelCacheIdentity:
    """The kernel cache keys on id(expr); entries must pin the expr.

    Correlated subqueries bind a fresh AST per distinct outer key and
    discard it after execution. Without pinning, the next bound AST can
    be allocated at the recycled address, collide on id, and be served
    the kernel compiled for the previous literal — silently returning
    another row's subquery result.
    """

    def test_correlated_scalar_subquery_stable_under_caching(self):
        db = AcceleratedDatabase(slice_count=2, chunk_rows=32)
        conn = db.connect()
        conn.execute("CREATE TABLE CUST (C_ID INTEGER NOT NULL PRIMARY KEY)")
        conn.execute(
            "INSERT INTO CUST VALUES "
            + ", ".join(f"({i})" for i in range(1, 22))
        )
        conn.execute("CREATE TABLE ORD (O_CUST INTEGER, O_AMOUNT DOUBLE)")
        conn.execute(
            "INSERT INTO ORD VALUES "
            + ", ".join(f"({i}, {float(i * 10)})" for i in range(1, 21))
        )
        db.add_table_to_accelerator("CUST")
        db.add_table_to_accelerator("ORD")
        db.replication.drain()
        conn.set_acceleration("ALL")
        expected = [(i, float(i * 10)) for i in range(1, 21)] + [(21, None)]
        sql = (
            "SELECT c_id, (SELECT SUM(o_amount) FROM ord "
            "WHERE o_cust = c_id) FROM cust ORDER BY c_id"
        )
        # 21 ephemeral bound ASTs per execution; any id collision with a
        # previous bind would repeat an earlier customer's sum.
        for __ in range(3):
            assert conn.query(sql) == expected

    def test_cache_entries_pin_their_expressions(self):
        db = AcceleratedDatabase()
        conn = db.connect()
        conn.execute("CREATE TABLE T (ID INT NOT NULL PRIMARY KEY, V DOUBLE)")
        for i in range(20):
            conn.execute("INSERT INTO T VALUES (?, ?)", (i, float(i)))
        db.add_table_to_accelerator("T")
        db.replication.drain()
        conn.query("SELECT COUNT(*) FROM T WHERE V > 5")
        conn.query("SELECT COUNT(*) FROM T WHERE V > 5")
        entries = [
            item
            for plan in db.plan_cache._entries.values()
            for item in plan.kernels._entries.items()
        ]
        assert entries
        for key, (expr, fn) in entries:
            assert key[0] == id(expr)  # pinned: the id can never recycle
            assert callable(fn)

    def test_poisoned_identity_entry_is_recompiled(self):
        from repro.federation.router import KernelCache

        catalog = Catalog()
        engine = AcceleratorEngine(catalog, accelerator_shards(), slice_count=1, chunk_rows=64)
        schema = TableSchema([Column("ID", INTEGER, nullable=False)])
        descriptor = catalog.create_table(
            "T", schema, location=TableLocation.ACCELERATOR_ONLY
        )
        engine.create_storage(descriptor)
        engine.bulk_insert("T", [(i,) for i in range(100)])
        cache = KernelCache()
        stmt = parse_statement("SELECT COUNT(*) FROM T WHERE ID < 10")
        __, rows = engine.execute_select(stmt, kernel_cache=cache)
        assert rows == [(10,)]

        def stale(*args, **kwargs):
            raise AssertionError("stale kernel served for a foreign expr")

        # Simulate an id collision: keep every key but repoint the entry
        # at a foreign expression. The identity check must recompile.
        for key in list(cache._entries):
            cache._entries[key] = (object(), stale)
        __, rows = engine.execute_select(stmt, kernel_cache=cache)
        assert rows == [(10,)]
