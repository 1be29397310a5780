"""Per-operator profiler: EXPLAIN ANALYZE, feedback store, slow-query log."""

import json

import pytest
from hypothesis import given, settings

from repro.errors import ProcedureError, SqlError
from repro.federation.database import AcceleratedDatabase
from repro.obs.export import (
    export_json,
    profile_to_dict,
    profiles_payload,
    qerror_summary,
    trace_phase_breakdown,
)
from repro.obs.profile import q_error
from tests.test_query_fuzz import _corpus, random_query


def make_db(**kwargs):
    defaults = dict(cooldown_seconds=3600.0)
    defaults.update(kwargs)
    return AcceleratedDatabase(**defaults)


def accelerated_items(db, rows=40):
    conn = db.connect()
    conn.execute("CREATE TABLE ITEMS (ID INTEGER, G INTEGER, V DOUBLE)")
    values = ", ".join(f"({i}, {i % 4}, {float(i)})" for i in range(rows))
    conn.execute(f"INSERT INTO ITEMS VALUES {values}")
    db.add_table_to_accelerator("ITEMS")
    return conn


def analyze_sections(result):
    """Split an EXPLAIN ANALYZE grid into per-execution sections."""
    sections = []
    for row in result.rows:
        if str(row[0]).startswith("execution ["):
            sections.append([row])
        else:
            sections[-1].append(row)
    return sections


class TestQError:
    def test_exact_estimate_is_one(self):
        assert q_error(10, 10) == 1.0

    def test_symmetric(self):
        assert q_error(10, 100) == q_error(100, 10) == 10.0

    def test_zero_rows_is_finite(self):
        assert q_error(0, 0) == 1.0
        assert q_error(50, 0) == 50.0
        assert q_error(0, 50) == 50.0


class TestExplainAnalyze:
    def test_accelerator_query_reports_every_operator(self):
        db = make_db()
        conn = accelerated_items(db)
        result = conn.execute(
            "EXPLAIN ANALYZE SELECT G, COUNT(*) FROM ITEMS "
            "WHERE V > 5 GROUP BY G ORDER BY G"
        )
        assert result.columns == [
            "OPERATOR", "ENGINE", "ACTUAL_ROWS", "ESTIMATED_ROWS",
            "Q_ERROR", "WALL_MS", "DETAIL",
        ]
        sections = analyze_sections(result)
        assert len(sections) == 1
        header, *operators = sections[0]
        assert header[1] == "ACCELERATOR"
        names = [str(row[0]).strip().split(" ")[0] for row in operators]
        for operator in ("Sort", "Aggregate", "Scan"):
            assert operator in names
        for row in operators:
            __, engine, actual, estimated, qerr, wall_ms, __ = row
            assert engine == "ACCELERATOR"
            assert actual >= 0 and estimated >= 1
            assert qerr >= 1.0
            assert wall_ms >= 0.0
        scan = next(r for r in operators if "Scan" in str(r[0]))
        assert scan[2] > 0  # the filter kept some rows

    def test_db2_query_reports_every_operator(self):
        db = make_db()
        conn = accelerated_items(db)
        conn.set_acceleration("NONE")
        result = conn.execute(
            "EXPLAIN ANALYZE SELECT ID FROM ITEMS WHERE ID < 5 "
            "ORDER BY ID FETCH FIRST 3 ROWS ONLY"
        )
        (section,) = analyze_sections(result)
        header, *operators = section
        assert header[1] == "DB2"
        limit = next(r for r in operators if "Limit" in str(r[0]))
        assert limit[2] == 3  # actual rows through the Limit

    def test_sort_under_limit_reports_rows_ordered_on_both_engines(self):
        """The LIMIT cuts the sort's index vector before any row is
        gathered; the Sort still reports the rows it ordered, as DB2's."""
        db = make_db()
        conn = accelerated_items(db)
        for mode, engine in (("NONE", "DB2"), ("ALL", "ACCELERATOR")):
            conn.set_acceleration(mode)
            result = conn.execute(
                "EXPLAIN ANALYZE SELECT ID FROM ITEMS WHERE ID < 5 "
                "ORDER BY ID FETCH FIRST 3 ROWS ONLY"
            )
            (section,) = analyze_sections(result)
            header, *operators = section
            assert header[1] == engine
            actual = {str(r[0]).split()[0]: r[2] for r in operators}
            assert (actual["Sort"], actual["Limit"]) == (5, 3)

    def test_failback_produces_two_sections(self):
        db = make_db()
        conn = accelerated_items(db)
        conn.set_acceleration("ENABLE WITH FAILBACK")
        with db.faults.forced("accelerator", kind="crash"):
            result = conn.execute("EXPLAIN ANALYZE SELECT SUM(V) FROM ITEMS")
        sections = analyze_sections(result)
        assert len(sections) == 2
        crashed, reran = sections
        assert crashed[0][1] == "ACCELERATOR"
        assert "error=AcceleratorCrashError" in crashed[0][0]
        assert reran[0][1] == "DB2"
        assert "failback re-execution" in crashed[0][0] + reran[0][0]
        # The re-execution carries full stats for every operator.
        for row in reran[1:]:
            assert row[4] >= 1.0

    def test_zero_row_query_has_finite_q_error(self):
        db = make_db()
        conn = accelerated_items(db)
        result = conn.execute(
            "EXPLAIN ANALYZE SELECT ID FROM ITEMS WHERE V > 1000000"
        )
        (section,) = analyze_sections(result)
        for row in section[1:]:
            assert row[4] == row[4]  # not NaN
            assert row[4] < float("inf")

    def test_analyze_actually_executes(self):
        db = make_db()
        conn = accelerated_items(db)
        before = len(db.statement_history)
        conn.execute("EXPLAIN ANALYZE SELECT COUNT(*) FROM ITEMS")
        assert len(db.statement_history) > before
        assert db.profiler.last() is not None

    def test_analyze_rejects_non_queries(self):
        db = make_db()
        conn = accelerated_items(db)
        with pytest.raises(SqlError):
            conn.execute("EXPLAIN ANALYZE DELETE FROM ITEMS")

    def test_analyze_works_with_profiler_disabled(self):
        """EXPLAIN ANALYZE force-profiles its statement even when the
        always-on profiler has been turned off."""
        db = make_db(profiling_enabled=False)
        conn = accelerated_items(db)
        conn.execute("SELECT COUNT(*) FROM ITEMS")
        assert db.profiler.last() is None  # disabled: nothing retained
        result = conn.execute("EXPLAIN ANALYZE SELECT COUNT(*) FROM ITEMS")
        (section,) = analyze_sections(result)
        assert len(section) > 1

    def test_plain_explain_renders_the_plan_tree(self):
        db = make_db()
        conn = accelerated_items(db)
        result = conn.execute(
            "EXPLAIN SELECT G, COUNT(*) FROM ITEMS WHERE V > 5 GROUP BY G"
        )
        plan_lines = [str(v) for k, v in result.rows if k == "PLAN"]
        assert any("Aggregate" in line for line in plan_lines)
        assert any("Scan" in line and "ITEMS" in line for line in plan_lines)
        # Shared formatter: EXPLAIN ANALYZE spells operators identically.
        analyzed = conn.execute(
            "EXPLAIN ANALYZE SELECT G, COUNT(*) FROM ITEMS "
            "WHERE V > 5 GROUP BY G"
        )
        analyzed_ops = {str(r[0]) for r in analyzed.rows[1:]}
        assert set(plan_lines) <= analyzed_ops


class TestByteIdentity:
    SQL = (
        "SELECT G, COUNT(*) AS N, SUM(V) FROM ITEMS "
        "WHERE V > 3 GROUP BY G ORDER BY G"
    )

    def test_profiled_results_identical_to_unprofiled(self):
        profiled = make_db(profiling_enabled=True)
        plain = make_db(profiling_enabled=False)
        rows = {}
        for db in (profiled, plain):
            conn = accelerated_items(db)
            rows[db.profiler.enabled] = conn.execute(self.SQL).rows
        assert rows[True] == rows[False]
        assert profiled.profiler.last() is not None
        assert plain.profiler.last() is None


class TestFeedbackStore:
    def test_repeated_executions_accumulate(self):
        db = make_db()
        conn = accelerated_items(db)
        for _ in range(3):
            conn.execute("SELECT ID FROM ITEMS WHERE V > 5 ORDER BY ID")
        entries = db.profiler.feedback.entries()
        assert entries
        assert all(e.executions == 3 for e in entries)
        scans = [e for e in entries if e.operator == "Scan"]
        assert len(scans) == 1
        assert scans[0].actual_total == 3 * scans[0].last_actual

    def test_same_statement_same_fingerprint(self):
        db = make_db()
        conn = accelerated_items(db)
        conn.execute("select id from items where v > 5 order by id")
        conn.execute("SELECT ID   FROM ITEMS WHERE V > 5 ORDER BY ID")
        fingerprints = {e.fingerprint for e in db.profiler.feedback.entries()}
        assert len(fingerprints) == 1

    def test_errored_attempt_does_not_feed_store(self):
        db = make_db()
        conn = accelerated_items(db)
        conn.set_acceleration("ENABLE WITH FAILBACK")
        with db.faults.forced("accelerator", kind="crash"):
            conn.execute("SELECT SUM(V) FROM ITEMS")
        # Two profiles retained (crashed + failback)...
        assert len(db.profiler.profiles()) == 2
        assert db.profiler.profiles()[0].error is not None
        # ...but only the clean DB2 re-execution fed the store.
        assert all(
            e.engine == "DB2" for e in db.profiler.feedback.entries()
        )

    def test_capacity_evicts_lru(self):
        db = make_db()
        db.profiler.feedback.capacity = 4
        conn = accelerated_items(db)
        for i in range(6):
            conn.execute(f"SELECT COUNT(*) FROM ITEMS WHERE ID > {i}")
        assert len(db.profiler.feedback.entries()) <= 4

    def test_worst_sorted_by_mean_q_error(self):
        db = make_db()
        conn = accelerated_items(db)
        # Computed predicate: opaque to column statistics -> bad estimate.
        conn.execute("SELECT ID FROM ITEMS WHERE V * 2 > 1000000")
        conn.execute("SELECT ID FROM ITEMS")  # perfect estimate
        worst = db.profiler.feedback.worst(10)
        assert worst == sorted(
            worst, key=lambda e: -e.mean_q_error
        )
        assert worst[0].mean_q_error > 1.0


class TestMonitoringViews:
    def test_mon_operators_queryable(self):
        db = make_db()
        conn = accelerated_items(db)
        conn.execute("SELECT G, COUNT(*) FROM ITEMS GROUP BY G")
        result = conn.execute(
            "SELECT OPERATOR, ENGINE, ACTUAL_ROWS, ESTIMATED_ROWS, Q_ERROR, "
            "EXECUTED FROM SYSACCEL.MON_OPERATORS"
        )
        assert result.rows
        for op, engine, actual, estimated, qerr, executed in result.rows:
            assert engine in ("ACCELERATOR", "DB2")
            assert qerr >= 1.0
            assert executed in ("Y", "N")

    def test_mon_qerror_queryable_with_predicate(self):
        db = make_db()
        conn = accelerated_items(db)
        conn.execute("SELECT ID FROM ITEMS WHERE V * 2 > 1000000")
        result = conn.execute(
            "SELECT OPERATOR, MEAN_Q_ERROR FROM SYSACCEL.MON_QERROR "
            "WHERE MEAN_Q_ERROR > 1.5 ORDER BY MEAN_Q_ERROR DESC"
        )
        assert result.rows
        assert all(row[1] > 1.5 for row in result.rows)

    def test_monitoring_queries_are_not_profiled(self):
        db = make_db()
        conn = accelerated_items(db)
        before = len(db.profiler.profiles())
        conn.execute("SELECT * FROM SYSACCEL.MON_OPERATORS")
        assert len(db.profiler.profiles()) == before


class TestProcedures:
    def test_get_profile_by_id_and_limit(self):
        db = make_db()
        conn = accelerated_items(db)
        conn.execute("SELECT COUNT(*) FROM ITEMS")
        profile_id = db.profiler.last().profile_id
        result = conn.execute(
            f"CALL SYSPROC.ACCEL_GET_PROFILE('profile={profile_id}')"
        )
        text = "\n".join(str(r[0]) for r in result.rows)
        assert profile_id in text and "Aggregate" in text
        assert "1 profiles" in result.message

    def test_get_profile_worst(self):
        db = make_db()
        conn = accelerated_items(db)
        conn.execute("SELECT ID FROM ITEMS WHERE V > 1000000")
        result = conn.execute("CALL SYSPROC.ACCEL_GET_PROFILE('worst=2')")
        text = "\n".join(str(r[0]) for r in result.rows)
        assert "mean_q=" in text

    def test_get_profile_unknown_id(self):
        db = make_db()
        conn = db.connect()
        with pytest.raises(ProcedureError):
            conn.execute("CALL SYSPROC.ACCEL_GET_PROFILE('profile=P999999')")

    def test_configure_updates_every_knob(self):
        db = make_db()
        conn = db.connect()
        conn.execute(
            "CALL SYSPROC.ACCEL_CONTROL_ACCELERATOR('action=configure,"
            "trace_retention=32,profiling=off,profile_retention=16,"
            "slow_threshold=0.25,slow_capacity=8')"
        )
        assert db.tracer.max_traces == 32
        assert db.profiler.enabled is False
        assert db.profiler.slow_log.threshold_seconds == 0.25
        conn.execute(
            "CALL SYSPROC.ACCEL_CONTROL_ACCELERATOR("
            "'action=configure,profiling=on')"
        )
        assert db.profiler.enabled is True

    @pytest.mark.parametrize(
        "params",
        [
            "trace_retention=0",
            "profile_retention=-1",
            "slow_threshold=-0.5",
            "slow_capacity=0",
            "profiling=maybe",
        ],
    )
    def test_configure_bounds_validation(self, params):
        db = make_db()
        conn = db.connect()
        with pytest.raises(ProcedureError):
            conn.execute(
                "CALL SYSPROC.ACCEL_CONTROL_ACCELERATOR("
                f"'action=configure,{params}')"
            )

    def test_configure_requires_a_knob(self):
        db = make_db()
        conn = db.connect()
        with pytest.raises(ProcedureError):
            conn.execute(
                "CALL SYSPROC.ACCEL_CONTROL_ACCELERATOR('action=configure')"
            )

    def test_configure_requires_admin(self):
        db = make_db()
        db.create_user("PLEB")
        conn = db.connect("PLEB")
        from repro.errors import AuthorizationError

        with pytest.raises(AuthorizationError):
            conn.execute(
                "CALL SYSPROC.ACCEL_CONTROL_ACCELERATOR("
                "'action=configure,trace_retention=8')"
            )


class TestRetention:
    def test_trace_retention_resize_keeps_newest(self):
        db = make_db()
        conn = accelerated_items(db)
        for _ in range(6):
            conn.execute("SELECT COUNT(*) FROM ITEMS")
        newest = db.tracer.last().trace_id
        db.tracer.set_retention(2)
        traces = db.tracer.traces()
        assert len(traces) == 2
        assert traces[-1].trace_id == newest

    def test_trace_retention_bounds(self):
        db = make_db()
        with pytest.raises(ValueError):
            db.tracer.set_retention(0)

    def test_profile_retention_resize(self):
        db = make_db()
        conn = accelerated_items(db)
        for _ in range(5):
            conn.execute("SELECT COUNT(*) FROM ITEMS")
        db.profiler.set_retention(2)
        assert len(db.profiler.profiles()) == 2
        with pytest.raises(ValueError):
            db.profiler.set_retention(0)

    def test_profile_ids_are_deterministic(self):
        ids = []
        for _ in range(2):
            db = make_db()
            conn = accelerated_items(db)
            conn.execute("SELECT COUNT(*) FROM ITEMS")
            conn.execute("SELECT SUM(V) FROM ITEMS")
            ids.append([p.profile_id for p in db.profiler.profiles()])
        assert ids[0] == ids[1] == ["P000001", "P000002"]


class TestSlowQueryLog:
    def test_zero_threshold_captures_everything(self):
        db = make_db(slow_query_threshold_seconds=0.0)
        conn = accelerated_items(db)
        conn.execute("SELECT COUNT(*) FROM ITEMS")
        records = db.profiler.slow_log.records()
        assert records
        record = records[-1]
        assert record.profile_id == db.profiler.last().profile_id
        assert any("Scan" in line for line in record.plan_lines)

    def test_high_threshold_captures_nothing(self):
        db = make_db(slow_query_threshold_seconds=3600.0)
        conn = accelerated_items(db)
        conn.execute("SELECT COUNT(*) FROM ITEMS")
        assert db.profiler.slow_log.records() == []

    def test_capacity_trims_oldest(self):
        db = make_db(slow_query_threshold_seconds=0.0, slow_query_capacity=2)
        conn = accelerated_items(db)
        for _ in range(5):
            conn.execute("SELECT COUNT(*) FROM ITEMS")
        assert len(db.profiler.slow_log.records()) == 2


class TestExport:
    def test_profile_export_is_json_safe_for_zero_rows(self):
        db = make_db()
        conn = accelerated_items(db)
        conn.execute("SELECT ID FROM ITEMS WHERE V > 1000000")
        payload = profiles_payload(db)
        # Strict JSON: rejects NaN/inf anywhere in the payload.
        text = json.dumps(payload, allow_nan=False)
        parsed = json.loads(text)
        assert parsed["profiles"][0]["operators"]
        for op in parsed["profiles"][0]["operators"]:
            assert op["q_error"] >= 1.0

    def test_profile_to_dict_round_trip(self):
        db = make_db()
        conn = accelerated_items(db)
        conn.execute("SELECT G, SUM(V) FROM ITEMS GROUP BY G")
        profile = db.profiler.last()
        exported = profile_to_dict(profile)
        assert exported["profile_id"] == profile.profile_id
        assert exported["engine"] == "ACCELERATOR"
        assert len(exported["operators"]) == len(profile.operators)

    def test_qerror_summary_lists_worst(self):
        db = make_db()
        conn = accelerated_items(db)
        conn.execute("SELECT ID FROM ITEMS WHERE V > 1000000")
        summary = qerror_summary(db, worst=3)
        assert summary["entries"] >= 1
        assert summary["worst"]
        assert summary["worst"][0]["mean_q_error"] >= 1.0

    def test_phase_breakdown_json_round_trip(self, tmp_path):
        db = make_db()
        conn = accelerated_items(db)
        conn.execute("SELECT COUNT(*) FROM ITEMS")
        breakdown = trace_phase_breakdown(db.tracer.last())
        path = export_json(tmp_path / "phases.json", breakdown)
        parsed = json.loads(path.read_text())
        assert parsed.keys() == breakdown.keys()
        for name, entry in breakdown.items():
            assert parsed[name]["count"] == entry["count"]


# ---------------------------------------------------------------------------
# E14 corpus coverage: every fuzz-shape query profiles cleanly on both
# engines — the standing Q-error corpus the optimizer work is measured on.
# ---------------------------------------------------------------------------

_FUZZ_DB = None


def _fuzz_conn():
    global _FUZZ_DB
    if _FUZZ_DB is None:
        db = make_db()
        # The fuzzer's own tables: its generator may join any of them.
        for name, schema, rows in _corpus():
            descriptor = db.catalog.create_table(name, schema)
            db.db2.create_storage(descriptor)
            txn = db.db2.txn_manager.begin()
            db.db2.insert_rows(txn, name, rows)
            db.db2.commit(txn)
            db.add_table_to_accelerator(name)
        _FUZZ_DB = db
    return _FUZZ_DB, _FUZZ_DB.connect()


@given(sql=random_query())
@settings(max_examples=30, deadline=None)
def test_fuzz_corpus_profiles_on_both_engines(sql):
    db, conn = _fuzz_conn()
    # ALL (not ENABLE) pins the accelerator: under ENABLE the cost
    # router may legitimately keep a tiny probe on DB2, and this test
    # needs a deterministic engine per mode.
    for mode in ("ALL", "NONE"):
        conn.set_acceleration(mode)
        expected = conn.execute(sql).rows
        profile = db.profiler.last()
        assert profile is not None and profile.error is None
        assert profile.engine == ("ACCELERATOR" if mode == "ALL" else "DB2")
        for op in profile.operators:
            assert op.executed, f"{op.describe()} never executed for {sql!r}"
            assert op.q_error >= 1.0 and op.q_error < float("inf")
        # EXPLAIN ANALYZE re-runs it and must not change the answer
        # (repr, not ==: NaN is unequal to itself).
        analyzed = conn.execute(f"EXPLAIN ANALYZE {sql}")
        assert len(analyzed.rows) > 1
        assert repr(conn.execute(sql).rows) == repr(expected)
