"""Cost-based optimizer: statistics, estimation, reordering, routing.

Covers the statistics layer (histograms, selectivities, the manager's
seed / feed / refresh / invalidate lifecycle), the statistics-driven
cardinality estimator and its feedback correction, the cost model's
routing and join-strategy advice, cost-based join re-association (shape
and byte-identity on both engines), and the admin surface
(SYSPROC.ACCEL_RUNSTATS, SYSACCEL.MON_STATISTICS).
"""

from types import SimpleNamespace

import pytest

from repro import AcceleratedDatabase
from repro.errors import AuthorizationError, ProcedureError
from repro.obs.profile import estimate_plan
from repro.sql import logical, parse_statement
from repro.sql.logical import plan_shape, plan_statement
from repro.sql.stats import (
    ColumnStatistics,
    CostModel,
    Histogram,
    PlanCost,
    StatisticsManager,
)

# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


def make_db(**kwargs):
    kwargs.setdefault("slice_count", 2)
    kwargs.setdefault("chunk_rows", 64)
    return AcceleratedDatabase(**kwargs)


def star_db():
    """FACT(120) -> DIM1(6), DIM2(4): all accelerated, stats seeded."""
    db = make_db()
    conn = db.connect()
    conn.execute(
        "CREATE TABLE FACT (ID INTEGER NOT NULL PRIMARY KEY, "
        "K INTEGER, J INTEGER, V DOUBLE)"
    )
    conn.execute(
        "CREATE TABLE DIM1 (K INTEGER NOT NULL PRIMARY KEY, NAME VARCHAR(8))"
    )
    conn.execute(
        "CREATE TABLE DIM2 (J INTEGER NOT NULL PRIMARY KEY, TAG VARCHAR(8))"
    )
    fact = ", ".join(
        f"({i}, {i % 6}, {i % 4}, {float(i)})" for i in range(120)
    )
    conn.execute(f"INSERT INTO FACT VALUES {fact}")
    conn.execute(
        "INSERT INTO DIM1 VALUES "
        + ", ".join(f"({k}, 'd{k}')" for k in range(6))
    )
    conn.execute(
        "INSERT INTO DIM2 VALUES "
        + ", ".join(f"({j}, 't{j}')" for j in range(4))
    )
    for name in ("FACT", "DIM1", "DIM2"):
        db.add_table_to_accelerator(name)
    return db, conn


def collect(rows, column_names=("A", "B")):
    manager = StatisticsManager()
    return manager.collect_from_rows("T", column_names, rows)


# ---------------------------------------------------------------------------
# Histograms
# ---------------------------------------------------------------------------


class TestHistogram:
    def test_build_distributes_counts(self):
        hist = Histogram.build([float(i) for i in range(100)], bins=10)
        assert hist.total == 100
        assert all(count == 10 for count in hist.counts)

    def test_fraction_at_most(self):
        hist = Histogram.build([float(i) for i in range(100)], bins=10)
        assert hist.fraction_at_most(-1.0) == 0.0
        assert hist.fraction_at_most(99.0) == 1.0
        mid = hist.fraction_at_most(49.5)
        assert 0.4 < mid < 0.6

    def test_range_fraction(self):
        hist = Histogram.build([float(i) for i in range(100)], bins=10)
        assert hist.range_fraction(200.0, None) == 0.0
        assert hist.range_fraction(None, None) == 1.0
        quarter = hist.range_fraction(0.0, 24.75)
        assert 0.15 < quarter < 0.35

    def test_add_clamps_out_of_range(self):
        hist = Histogram.build([0.0, 10.0], bins=2)
        hist.add(1000.0)
        hist.add(-1000.0)
        assert hist.total == 4
        assert hist.counts[0] == 2 and hist.counts[-1] == 2

    def test_scale(self):
        hist = Histogram.build([float(i) for i in range(10)], bins=2)
        hist.scale(2.0)
        assert hist.total == 20

    def test_single_value_column(self):
        hist = Histogram.build([7.0, 7.0, 7.0], bins=4)
        assert hist.total == 3
        assert hist.fraction_at_most(7.0) == 1.0
        assert hist.fraction_at_most(6.9) == 0.0


# ---------------------------------------------------------------------------
# Selectivity
# ---------------------------------------------------------------------------


def _predicate(sql):
    return parse_statement(f"SELECT A FROM T WHERE {sql}").where


class TestPredicateSelectivity:
    @pytest.fixture
    def stats(self):
        rows = [(i % 10, float(i)) for i in range(100)]
        return collect(rows)

    def test_equality_uses_ndv(self, stats):
        assert stats.predicate_selectivity(_predicate("A = 3")) == pytest.approx(
            0.1
        )

    def test_range_uses_histogram(self, stats):
        half = stats.predicate_selectivity(_predicate("B < 49.5"))
        assert 0.4 < half < 0.6

    def test_predicate_beyond_max_is_zero(self, stats):
        assert stats.predicate_selectivity(_predicate("B > 1000000")) == 0.0

    def test_between(self, stats):
        sel = stats.predicate_selectivity(_predicate("B BETWEEN 0 AND 24.75"))
        assert 0.15 < sel < 0.35

    def test_in_list_uses_ndv(self, stats):
        sel = stats.predicate_selectivity(_predicate("A IN (1, 2, 3)"))
        assert sel == pytest.approx(0.3)

    def test_is_null(self):
        rows = [(None if i < 25 else i, float(i)) for i in range(100)]
        stats = collect(rows)
        assert stats.predicate_selectivity(
            _predicate("A IS NULL")
        ) == pytest.approx(0.25)
        assert stats.predicate_selectivity(
            _predicate("A IS NOT NULL")
        ) == pytest.approx(0.75)

    def test_or_adds_capped(self, stats):
        sel = stats.predicate_selectivity(_predicate("A = 1 OR A = 2"))
        assert sel == pytest.approx(0.2)

    def test_opaque_expression_falls_back(self, stats):
        # A computed comparison side defeats the statistics.
        sel = stats.predicate_selectivity(_predicate("B * 2 > 1000000"))
        assert sel == pytest.approx(1.0 / 3.0)

    def test_conjunction_multiplies(self, stats):
        sel = stats.predicate_selectivity(_predicate("A = 3 AND B < 49.5"))
        assert 0.04 < sel < 0.06

    def test_zone_map_only_uniform_range(self):
        column = ColumnStatistics(name="V", minimum=0.0, maximum=100.0)
        stats = collect([])  # empty: no histograms anywhere
        stats.row_count = 100
        stats.columns["V"] = column
        sel = stats.predicate_selectivity(_predicate("V <= 25"))
        assert sel == pytest.approx(0.25)
        assert stats.predicate_selectivity(_predicate("V > 200")) == 0.0


# ---------------------------------------------------------------------------
# The statistics manager lifecycle
# ---------------------------------------------------------------------------


def _record(op, after=None):
    return SimpleNamespace(op=op, after=after)


class TestStatisticsManager:
    def test_collect_from_rows(self):
        manager = StatisticsManager()
        stats = manager.collect_from_rows(
            "t", ("A", "B"), [(1, 2.0), (2, 4.0), (2, None)]
        )
        assert stats.row_count == 3
        assert stats.column("A").ndv == 2
        assert stats.column("B").null_count == 1
        assert stats.column("B").minimum == 2.0
        assert manager.row_count("T") == 3
        assert manager.tables_collected == 1

    def test_apply_changes_folds_feed(self):
        manager = StatisticsManager()
        manager.collect_from_rows("T", ("A",), [(1,), (2,)])
        manager.apply_changes(
            "T",
            [
                _record("INSERT", after=(9,)),
                _record("INSERT", after=(10,)),
                _record("DELETE"),
            ],
        )
        stats = manager.table("T")
        assert stats.row_count == 3  # 2 + 2 inserts - 1 delete
        assert stats.column("A").maximum == 10
        assert stats.source == "runstats+feed"
        assert stats.feed_records == 3

    def test_apply_changes_unknown_table_is_ignored(self):
        manager = StatisticsManager()
        manager.apply_changes("GHOST", [_record("INSERT", after=(1,))])
        assert manager.table("GHOST") is None

    def test_note_write_refreshes_against_probe(self):
        live = {"T": 200}
        manager = StatisticsManager(row_probe=lambda name: live.get(name))
        manager.collect_from_rows(
            "T", ("A",), [(float(i),) for i in range(100)]
        )
        manager.note_write("T")
        stats = manager.table("T")
        assert stats.row_count == 200
        # Histogram mass rescaled alongside the row count.
        assert stats.column("A").histogram.total == pytest.approx(200, abs=8)
        assert manager.refreshes == 1

    def test_invalidate_single_and_all(self):
        manager = StatisticsManager()
        manager.collect_from_rows("T", ("A",), [(1,)])
        manager.collect_from_rows("U", ("A",), [(1,)])
        manager.invalidate("T")
        assert manager.table("T") is None and manager.table("U") is not None
        manager.invalidate()
        assert manager.table("U") is None
        assert manager.invalidations == 2

    def test_snapshot_counters(self):
        manager = StatisticsManager()
        manager.collect_from_rows("T", ("A",), [(1,)])
        snap = manager.snapshot()
        assert snap["tables"] == 1
        assert snap["tables_collected"] == 1


# ---------------------------------------------------------------------------
# The cardinality estimator
# ---------------------------------------------------------------------------


def _plan(sql, **kwargs):
    return plan_statement(parse_statement(sql), **kwargs)


class TestEstimator:
    def test_empty_table_with_predicate_estimates_zero(self):
        # Regression: the legacy floor charged empty tables one phantom
        # row per predicated scan, which poisoned every estimate above.
        plan = _plan("SELECT A FROM T WHERE A > 5")
        estimates = estimate_plan(plan, lambda name: 0)
        assert estimates[id(plan)] == 0

    def test_legacy_fixed_selectivity_without_stats(self):
        plan = _plan("SELECT A FROM T WHERE A > 5")
        estimates = estimate_plan(plan, lambda name: 40)
        assert estimates[id(plan)] == 13  # 40 // 3

    def test_stats_scan_predicate(self):
        manager = StatisticsManager()
        manager.collect_from_rows(
            "T", ("A", "B"), [(i % 10, float(i)) for i in range(100)]
        )
        plan = _plan("SELECT A FROM T WHERE B > 1000000")
        estimates = estimate_plan(plan, lambda name: 100, stats=manager)
        assert estimates[id(plan)] == 0
        plan = _plan("SELECT A FROM T WHERE A = 3")
        estimates = estimate_plan(plan, lambda name: 100, stats=manager)
        assert estimates[id(plan)] == 10

    def test_stats_equi_join_uses_ndv(self):
        manager = StatisticsManager()
        manager.collect_from_rows(
            "F", ("ID", "K"), [(i, i % 5) for i in range(100)]
        )
        manager.collect_from_rows(
            "D", ("K", "N"), [(k, k) for k in range(5)]
        )
        plan = _plan("SELECT f.ID FROM F f JOIN D d ON f.K = d.K")
        estimates = estimate_plan(
            plan, lambda name: {"F": 100, "D": 5}[name], stats=manager
        )
        # |F| * |D| / max(ndv) = 100 * 5 / 5
        assert estimates[id(plan)] == 100

    def test_stats_group_by_uses_ndv(self):
        manager = StatisticsManager()
        manager.collect_from_rows(
            "F", ("ID", "K"), [(i, i % 5) for i in range(100)]
        )
        plan = _plan("SELECT K, COUNT(*) FROM F GROUP BY K")
        estimates = estimate_plan(plan, lambda name: 100, stats=manager)
        assert estimates[id(plan)] == 5

    def test_feedback_overrides_model(self):
        plan = _plan("SELECT A FROM T WHERE A > 5")
        observed = {"1": 2, "1.1": 2}
        estimates = estimate_plan(
            plan, lambda name: 40, feedback=observed.get
        )
        assert estimates[id(plan)] == 2


# ---------------------------------------------------------------------------
# The cost model
# ---------------------------------------------------------------------------


class TestCostModel:
    def test_plan_cost_engine_and_describe(self):
        cost = PlanCost(db2=100.0, accelerator=10.0)
        assert cost.engine == "ACCELERATOR"
        assert cost.describe() == "cost accelerator=10 vs db2=100"
        assert PlanCost(db2=5.0, accelerator=50.0).engine == "DB2"

    def test_tiny_scan_prefers_db2(self):
        model = CostModel()
        plan = _plan("SELECT A FROM T")
        estimates = estimate_plan(plan, lambda name: 3)
        assert model.plan_costs(plan, estimates).engine == "DB2"

    def test_large_aggregate_prefers_accelerator(self):
        model = CostModel()
        plan = _plan("SELECT SUM(A) FROM T")
        estimates = estimate_plan(plan, lambda name: 100_000)
        assert model.plan_costs(plan, estimates).engine == "ACCELERATOR"

    def test_limit_probe_prefers_db2(self):
        # The row engine stops pulling after 5 rows; the accelerator
        # scans whole chunks regardless — a probe should stay on DB2.
        model = CostModel()
        plan = _plan("SELECT A FROM T LIMIT 5")
        estimates = estimate_plan(plan, lambda name: 100_000)
        assert model.plan_costs(plan, estimates).engine == "DB2"


# ---------------------------------------------------------------------------
# Join re-association
# ---------------------------------------------------------------------------

_CHAIN = (
    "SELECT a.X FROM A a JOIN B b ON a.X = b.X JOIN C c ON b.Y = c.Y"
)


def _sizes(mapping):
    return lambda name: mapping.get(name.upper())


def _shape(plan):
    """plan_shape with the pruned-column annotations stripped."""
    import re

    return re.sub(r"Scan\[(\w+)[^\]]*\]", r"Scan[\1]", plan_shape(plan))


def _no_reorder(plan, table_rows):
    """Identity stand-in for ``logical._reorder_plan``: the differential
    tests turn join re-association off by patching it in."""
    return plan


class TestJoinReorder:
    def test_reorders_large_table_out_of_the_build_chain(self):
        plan = _plan(_CHAIN, table_rows=_sizes({"A": 1000, "B": 5, "C": 10}))
        assert (
            "Join[INNER](Scan[A],Join[INNER](Scan[B],Scan[C]))"
            in _shape(plan)
        )

    def test_keeps_shape_when_already_optimal(self):
        plan = _plan(_CHAIN, table_rows=_sizes({"A": 5, "B": 5, "C": 1000}))
        assert (
            "Join[INNER](Join[INNER](Scan[A],Scan[B]),Scan[C])"
            in _shape(plan)
        )

    def test_unknown_cardinality_disables_reorder(self):
        plan = _plan(_CHAIN, table_rows=_sizes({"A": 1000, "B": 5}))
        assert (
            "Join[INNER](Join[INNER](Scan[A],Scan[B]),Scan[C])"
            in _shape(plan)
        )

    def test_outer_joins_are_not_reordered(self):
        sql = (
            "SELECT a.X FROM A a LEFT JOIN B b ON a.X = b.X "
            "LEFT JOIN C c ON b.Y = c.Y"
        )
        plan = _plan(sql, table_rows=_sizes({"A": 1000, "B": 5, "C": 10}))
        assert (
            "Join[LEFT](Join[LEFT](Scan[A],Scan[B]),Scan[C])"
            in _shape(plan)
        )

    def test_global_switch_disables_reorder(self, monkeypatch):
        monkeypatch.setattr(logical, "_reorder_plan", _no_reorder)
        plan = _plan(_CHAIN, table_rows=_sizes({"A": 1000, "B": 5, "C": 10}))
        assert (
            "Join[INNER](Join[INNER](Scan[A],Scan[B]),Scan[C])"
            in _shape(plan)
        )

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT f.ID, d1.NAME, d2.TAG FROM FACT f "
            "JOIN DIM1 d1 ON f.K = d1.K JOIN DIM2 d2 ON f.J = d2.J",
            "SELECT f.ID, d1.NAME FROM FACT f "
            "JOIN DIM1 d1 ON f.K = d1.K JOIN DIM2 d2 ON f.J = d2.J "
            "WHERE f.V > 10",
            "SELECT f.ID, d1.K, d2.J FROM FACT f "
            "CROSS JOIN DIM1 d1 CROSS JOIN DIM2 d2 WHERE f.ID < 4",
            "SELECT d1.NAME, COUNT(*) FROM FACT f "
            "JOIN DIM1 d1 ON f.K = d1.K JOIN DIM2 d2 ON f.J = d2.J "
            "GROUP BY d1.NAME ORDER BY 1",
        ],
    )
    def test_reordered_execution_is_byte_identical(self, monkeypatch, sql):
        """The reordered plan must emit the same rows in the same order
        on both engines — transparency demands byte-identity, not just
        set equality."""

        def run(reorder):
            if not reorder:
                monkeypatch.setattr(logical, "_reorder_plan", _no_reorder)
            db, conn = star_db()
            conn.set_acceleration("ENABLE")
            accel = conn.execute(sql).rows
            conn.set_acceleration("NONE")
            db2 = conn.execute(sql).rows
            return accel, db2

        accel_on, db2_on = run(True)
        accel_off, db2_off = run(False)
        assert accel_on == accel_off
        assert db2_on == db2_off
        assert accel_on == db2_on


# ---------------------------------------------------------------------------
# System integration: routing, maintenance, monitoring, RUNSTATS
# ---------------------------------------------------------------------------


class TestSystemIntegration:
    def test_cost_advice_drives_routing(self):
        db, conn = star_db()
        explained = conn.explain("SELECT SUM(V) FROM FACT")
        assert explained["engine"] == "ACCELERATOR"
        assert explained["cost"].startswith("cost accelerator=")
        # A three-row probe is cheaper on the row engine.
        explained = conn.explain("SELECT ID FROM FACT LIMIT 3")
        assert explained["engine"] == "DB2"

    def test_routing_reason_records_costs(self):
        db, conn = star_db()
        conn.execute("SELECT SUM(V) FROM FACT")
        record = db.statement_history[-1]
        assert "cost accelerator=" in record.reason

    def test_no_statistics_keeps_query_on_db2(self, monkeypatch):
        db, conn = star_db()
        from repro.federation import database as database_module

        # No cardinality for any referenced table: there is no cost
        # advice, so ENABLE keeps even an aggregate on DB2.
        monkeypatch.setattr(
            database_module.AcceleratedDatabase,
            "_live_row_count",
            lambda self, name: None,
        )
        explained = conn.explain("SELECT SUM(V) FROM FACT")
        assert explained["cost"] is None
        assert explained["engine"] == "DB2"
        assert explained["reason"] == "no cardinality estimate"

    def test_zone_map_seeding_on_accelerate(self):
        db, conn = star_db()
        stats = db.stats.table("FACT")
        assert stats is not None
        assert stats.source == "zonemap"
        assert stats.row_count == 120
        assert stats.column("V").minimum == 0.0
        assert stats.column("V").maximum == 119.0

    def test_replication_feed_maintains_stats(self):
        db, conn = star_db()
        conn.execute("INSERT INTO FACT VALUES (500, 0, 0, 500.0)")
        db.replication.drain()
        stats = db.stats.table("FACT")
        assert stats.row_count == 121
        assert stats.column("V").maximum == 500.0
        assert stats.source.endswith("+feed")

    def test_drop_table_invalidates_stats(self):
        db, conn = star_db()
        assert db.stats.table("DIM2") is not None
        db.remove_table_from_accelerator("DIM2")
        conn.execute("DROP TABLE DIM2")
        assert db.stats.table("DIM2") is None

    def test_remove_from_accelerator_invalidates_stats(self):
        db, conn = star_db()
        db.remove_table_from_accelerator("DIM1")
        assert db.stats.table("DIM1") is None

    def test_empty_accelerated_table_estimates_zero(self):
        db, conn = star_db()
        conn.execute("CREATE TABLE EMPTYT (A INTEGER, B DOUBLE)")
        db.add_table_to_accelerator("EMPTYT")
        explained = conn.explain("SELECT A FROM EMPTYT WHERE B > 5")
        assert explained["estimated_rows"] == 0
        assert conn.execute("SELECT A FROM EMPTYT WHERE B > 5").rows == []

    def test_cross_product_of_empty_table_is_empty(self):
        db, conn = star_db()
        conn.execute("CREATE TABLE EMPTYT (A INTEGER)")
        db.add_table_to_accelerator("EMPTYT")
        result = conn.execute("SELECT * FROM DIM1 CROSS JOIN EMPTYT")
        assert result.rows == []

    def test_except_and_intersect(self):
        db, conn = star_db()
        intersect = conn.execute(
            "SELECT K FROM DIM1 INTERSECT SELECT J FROM DIM2"
        )
        assert sorted(row[0] for row in intersect.rows) == [0, 1, 2, 3]
        except_ = conn.execute(
            "SELECT K FROM DIM1 EXCEPT SELECT J FROM DIM2"
        )
        assert sorted(row[0] for row in except_.rows) == [4, 5]

    def test_limit_offset_past_end(self):
        db, conn = star_db()
        result = conn.execute(
            "SELECT K FROM DIM1 ORDER BY K LIMIT 5 OFFSET 100"
        )
        assert result.rows == []

    def test_feedback_corrects_repeated_misestimate(self):
        db, conn = star_db()
        sql = "SELECT ID FROM FACT WHERE V * 2 > 1000000"
        conn.execute(sql)  # opaque predicate: misestimated first time
        first = db.profiler.last()
        conn.execute(sql)  # feedback store corrects the re-execution
        second = db.profiler.last()
        assert max(op.q_error for op in first.operators) > 1.5
        assert max(op.q_error for op in second.operators) == 1.0

    def test_mon_statistics_queryable(self):
        db, conn = star_db()
        result = conn.execute(
            "SELECT TABLE_NAME, COLUMN_NAME, ROW_COUNT, SOURCE "
            "FROM SYSACCEL.MON_STATISTICS WHERE COLUMN_NAME = '' "
            "ORDER BY TABLE_NAME"
        )
        assert [(r[0], r[2], r[3]) for r in result.rows] == [
            ("DIM1", 6, "zonemap"),
            ("DIM2", 4, "zonemap"),
            ("FACT", 120, "zonemap"),
        ]

    def test_runstats_upgrades_seeded_stats(self):
        db, conn = star_db()
        result = conn.execute(
            "CALL SYSPROC.ACCEL_RUNSTATS('tables=FACT,bins=8')"
        )
        assert "ACCEL_RUNSTATS ok: 1 tables" in result.message
        stats = db.stats.table("FACT")
        assert stats.source == "runstats"
        assert stats.column("K").ndv == 6
        assert len(stats.column("V").histogram.counts) == 8

    def test_runstats_all_tables_by_default(self):
        db, conn = star_db()
        result = conn.execute("CALL SYSPROC.ACCEL_RUNSTATS('')")
        assert "3 tables" in result.message
        assert all(s.source == "runstats" for s in db.stats.tables())

    def test_runstats_requires_admin(self):
        db, conn = star_db()
        db.create_user("PLEB")
        pleb = db.connect("PLEB")
        with pytest.raises(AuthorizationError):
            pleb.execute("CALL SYSPROC.ACCEL_RUNSTATS('tables=FACT')")

    def test_runstats_rejects_bad_parameters(self):
        db, conn = star_db()
        with pytest.raises(ProcedureError):
            conn.execute("CALL SYSPROC.ACCEL_RUNSTATS('tables=GHOST')")
        with pytest.raises(ProcedureError):
            conn.execute("CALL SYSPROC.ACCEL_RUNSTATS('bins=0')")

    def test_runstats_improves_group_estimate(self):
        db, conn = star_db()
        conn.execute("CALL SYSPROC.ACCEL_RUNSTATS('')")
        explained = conn.explain(
            "SELECT K, COUNT(*) FROM FACT GROUP BY K"
        )
        assert explained["estimated_rows"] == 6

    def test_stats_metrics_source_registered(self):
        db, conn = star_db()
        assert db.metrics.collect()["stats.tables_seeded"] == 3
