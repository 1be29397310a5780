"""End-to-end tracing, metrics registry, and monitoring views."""

import pytest

from repro.errors import ProcedureError, SqlError
from repro.federation.database import AcceleratedDatabase
from repro.obs import MetricsRegistry, Tracer
from repro.obs.export import (
    collect_metrics,
    export_json,
    statement_breakdown,
    trace_phase_breakdown,
    trace_to_dict,
)


def make_db(**kwargs):
    defaults = dict(cooldown_seconds=3600.0)
    defaults.update(kwargs)
    return AcceleratedDatabase(**defaults)


def accelerated_items(db, rows=6):
    conn = db.connect()
    conn.execute("CREATE TABLE ITEMS (ID INTEGER, G INTEGER, V DOUBLE)")
    values = ", ".join(f"({i}, {i % 2}, {float(i)})" for i in range(rows))
    conn.execute(f"INSERT INTO ITEMS VALUES {values}")
    db.add_table_to_accelerator("ITEMS")
    return conn


class TestTracer:
    def test_offloaded_query_span_tree(self):
        """One offloaded SELECT yields parse, route, accelerator execute,
        and interconnect send phases under a single statement root."""
        db = make_db()
        conn = accelerated_items(db)
        conn.execute("SELECT G, COUNT(*) FROM ITEMS GROUP BY G")
        trace = db.tracer.last()
        names = trace.span_names()
        for phase in (
            "statement",
            "parse",
            "route",
            "accelerator.execute",
            "interconnect.send",
        ):
            assert phase in names
        root = trace.root
        assert root.name == "statement"
        assert root.depth == 0
        assert root.attributes["engine"] == "ACCELERATOR"
        assert root.attributes["rows"] == 2
        # Children link to the root; depths reflect nesting.
        for span in trace.spans[1:]:
            assert span.parent_id is not None
            assert span.depth >= 1
        (route,) = trace.find_spans("route")
        assert route.attributes["engine"] == "ACCELERATOR"
        (execute,) = trace.find_spans("accelerator.execute")
        assert execute.attributes["rows"] == 2
        assert execute.attributes["rows_scanned"] == 6

    def test_db2_query_traced(self):
        db = make_db()
        conn = accelerated_items(db)
        conn.set_acceleration("NONE")
        conn.execute("SELECT COUNT(*) FROM ITEMS")
        trace = db.tracer.last()
        assert "db2.execute" in trace.span_names()
        assert trace.root.attributes["engine"] == "DB2"

    def test_deterministic_ids(self):
        def run():
            db = make_db()
            conn = accelerated_items(db)
            conn.execute("SELECT COUNT(*) FROM ITEMS")
            trace = db.tracer.last()
            return trace.trace_id, [s.span_id for s in trace.spans]

        assert run() == run()

    def test_span_ids_belong_to_trace(self):
        db = make_db()
        conn = db.connect()
        conn.execute("CREATE TABLE T (A INTEGER)")
        trace = db.tracer.last()
        for span in trace.spans:
            assert span.span_id.startswith(trace.trace_id + ".")

    def test_disabled_tracer_retains_nothing(self):
        db = make_db(tracing_enabled=False)
        conn = accelerated_items(db)
        result = conn.execute("SELECT COUNT(*) FROM ITEMS")
        assert result.rows == [(6,)]
        assert db.tracer.traces() == []
        # Statement history still works, just without trace ids.
        assert db.statement_history[-1].trace_id == ""

    def test_ring_retention_bound(self):
        db = make_db(trace_retention=5)
        conn = db.connect()
        conn.execute("CREATE TABLE T (A INTEGER)")
        for i in range(12):
            conn.execute(f"INSERT INTO T VALUES ({i})")
        assert len(db.tracer.traces()) == 5
        # Newest retained trace is the most recent statement's.
        assert db.tracer.last().trace_id == db.statement_history[-1].trace_id

    def test_error_span_on_fault_injection(self):
        """An injected link fault marks its interconnect span ERROR.

        The commit-time auto-drain retries then abandons the batch
        without failing the committed statement, so the fault surfaces
        only in the trace (and in the drain's monitoring row).
        """
        db = make_db()
        conn = accelerated_items(db)
        with db.faults.forced("interconnect"):
            conn.execute("INSERT INTO ITEMS VALUES (100, 0, 1.0)")
        trace = db.tracer.last()
        (drain,) = trace.find_spans("replication.drain")
        assert drain.attributes["outcome"] == "failed"
        error_spans = [
            span
            for trace in db.tracer.traces()
            for span in trace.spans
            if span.status == "ERROR"
        ]
        assert error_spans
        assert any("injected link error" in s.attributes.get("error", "")
                   for s in error_spans)

    def test_failback_span_and_counter(self):
        db = make_db()
        conn = accelerated_items(db)
        conn.set_acceleration("ENABLE WITH FAILBACK")
        with db.faults.forced("accelerator", kind="crash"):
            result = conn.execute("SELECT COUNT(*) FROM ITEMS")
        assert result.engine == "DB2"
        trace = db.tracer.last()
        failbacks = trace.find_spans("failback")
        assert failbacks
        assert "crash" in failbacks[0].attributes["reason"]
        assert db.metrics.counter("statement.failbacks").value >= 1

    def test_replication_drain_annotations(self):
        db = make_db(auto_replicate=False)
        conn = accelerated_items(db)
        conn.execute("INSERT INTO ITEMS VALUES (50, 0, 5.0)")
        assert db.replication.backlog > 0
        applied = db.replication.drain()
        assert applied == 1
        trace = db.tracer.last()
        assert trace.root.name == "replication.drain"
        attrs = trace.root.attributes
        assert attrs["outcome"] == "ok"
        assert attrs["applied"] == 1
        assert attrs["batches"] == 1

    def test_nested_traces_under_explicit_txn(self):
        db = make_db()
        conn = accelerated_items(db)
        conn.execute("BEGIN")
        conn.execute("INSERT INTO ITEMS VALUES (7, 1, 7.0)")
        conn.execute("COMMIT")
        # COMMIT's trace contains the commit-time replication drain.
        trace = db.tracer.last()
        assert trace.root.attributes["statement"] == "Commit"
        assert "replication.drain" in trace.span_names()


class TestMonitoringViews:
    def test_mon_spans_select(self):
        db = make_db()
        conn = accelerated_items(db)
        conn.execute("SELECT G, COUNT(*) FROM ITEMS GROUP BY G")
        trace_id = db.tracer.last().trace_id
        rows = conn.query(
            "SELECT NAME, STATUS FROM SYSACCEL.MON_SPANS "
            "WHERE TRACE_ID = ? ORDER BY SPAN_ID",
            [trace_id],
        )
        names = [name for name, _ in rows]
        assert names[0] == "statement"
        assert "accelerator.execute" in names
        assert all(status == "OK" for _, status in rows)

    def test_mon_spans_group_by(self):
        db = make_db()
        conn = accelerated_items(db)
        conn.execute("SELECT COUNT(*) FROM ITEMS")
        rows = conn.query(
            "SELECT NAME, COUNT(*) AS N FROM SYSACCEL.MON_SPANS "
            "GROUP BY NAME ORDER BY NAME"
        )
        counts = dict(rows)
        assert counts["statement"] >= 1
        assert counts["parse"] >= 1

    def test_mon_statements_links_to_trace(self):
        db = make_db()
        conn = accelerated_items(db)
        conn.execute("SELECT COUNT(*) FROM ITEMS")
        rows = conn.query(
            "SELECT TRACE_ID, ENGINE, ROW_COUNT FROM SYSACCEL.MON_STATEMENTS "
            "WHERE STATEMENT_TYPE = 'Select'"
        )
        assert rows
        trace_id, engine, row_count = rows[-1]
        assert engine == "ACCELERATOR"
        assert row_count == 1
        assert db.tracer.find(trace_id) is not None

    def test_mon_replication_rows(self):
        db = make_db(auto_replicate=False)
        conn = accelerated_items(db)
        conn.execute("INSERT INTO ITEMS VALUES (60, 0, 6.0)")
        db.replication.drain()
        rows = conn.query(
            "SELECT OUTCOME, RECORDS_APPLIED, BACKLOG_BEFORE, BACKLOG_AFTER "
            "FROM SYSACCEL.MON_REPLICATION WHERE OUTCOME = 'ok'"
        )
        assert ("ok", 1, 1, 0) in rows

    def test_monitoring_query_is_traced_and_recorded(self):
        db = make_db()
        conn = db.connect()
        conn.execute("SELECT COUNT(*) FROM SYSACCEL.MON_SPANS")
        assert conn.last_decision == "monitoring view"
        assert db.statement_history[-1].engine == "DB2"
        assert "monitor.query" in db.tracer.last().span_names()

    def test_monitoring_views_need_no_grant(self):
        db = make_db()
        conn = accelerated_items(db)
        conn.execute("SELECT COUNT(*) FROM ITEMS")
        db.create_user("BOB")
        bob = db.connect("BOB")
        rows = bob.query("SELECT COUNT(*) FROM SYSACCEL.MON_STATEMENTS")
        assert rows[0][0] >= 1

    def test_mixing_with_base_tables_rejected(self):
        db = make_db()
        conn = accelerated_items(db)
        with pytest.raises(SqlError, match="monitoring views"):
            conn.query("SELECT * FROM SYSACCEL.MON_SPANS, ITEMS")

    def test_explain_monitoring_view(self):
        db = make_db()
        conn = db.connect()
        plan = conn.explain("SELECT * FROM SYSACCEL.MON_REPLICATION")
        assert plan["engine"] == "DB2"
        assert plan["tables"] == {
            "SYSACCEL.MON_REPLICATION": "MONITORING VIEW"
        }


class TestAdminProcedures:
    def test_accel_get_trace_renders_tree(self):
        db = make_db()
        conn = accelerated_items(db)
        conn.execute("SELECT COUNT(*) FROM ITEMS")
        trace_id = db.tracer.last().trace_id
        result = conn.execute(
            f"CALL SYSPROC.ACCEL_GET_TRACE('trace={trace_id}')"
        )
        text = "\n".join(row[0] for row in result.rows)
        assert trace_id in text
        assert "accelerator.execute" in text

    def test_accel_get_trace_unknown_id(self):
        db = make_db()
        conn = db.connect()
        with pytest.raises(ProcedureError, match="no retained trace"):
            conn.execute("CALL SYSPROC.ACCEL_GET_TRACE('trace=T999999')")

    def test_accel_get_metrics_prefix_filter(self):
        db = make_db()
        conn = accelerated_items(db)
        conn.execute("SELECT COUNT(*) FROM ITEMS")
        result = conn.execute(
            "CALL SYSPROC.ACCEL_GET_METRICS('prefix=statement.engine')"
        )
        lines = [row[0] for row in result.rows]
        assert any(line.startswith("statement.engine.accelerator")
                   for line in lines)
        assert all(line.startswith("statement.engine")
                   for line in lines if "=" in line)


class TestMetricsPrimitives:
    def test_counter_gauge(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set(2.5)
        collected = registry.collect()
        assert collected["c"] == 5
        assert collected["g"] == 2.5

    def test_histogram_percentiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for value in range(1, 101):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 100
        assert summary["min"] == 1.0
        assert summary["max"] == 100.0
        assert summary["p50"] == pytest.approx(50.5)
        assert summary["p99"] == pytest.approx(99.01)

    @pytest.mark.parametrize(
        "values, window, expected_p50",
        [
            ([], 1024, 0.0),
            ([7.0], 1024, 7.0),
            ([4.0, 2.0], 1024, 3.0),
            ([9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0], 1024, 5.0),
            # Only the last four survive the window: 6, 7, 8, 9.
            (list(range(10)), 4, 7.5),
        ],
        ids=["empty", "one", "two", "unsorted", "wrapped"],
    )
    def test_summary_percentiles_are_percentile(
        self, values, window, expected_p50
    ):
        hist = MetricsRegistry().histogram("h", window=window)
        for value in values:
            hist.observe(value)
        summary = hist.summary()
        assert summary["p50"] == expected_p50
        for q in (50, 95, 99):
            assert summary[f"p{q}"] == hist.percentile(q)

    def test_histogram_window_bound(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", window=10)
        for value in range(1000):
            hist.observe(value)
        # Exact totals survive; percentiles only see the window.
        assert hist.count == 1000
        assert hist.percentile(0) == 990.0

    def test_sources_flattened(self):
        registry = MetricsRegistry()
        registry.register_source("src", lambda: {"a": 1, "b": "text"})
        collected = registry.collect()
        assert collected["src.a"] == 1
        assert collected["src.b"] == "text"
        assert registry.source_names() == ["src"]

    def test_system_registers_sources(self):
        db = make_db()
        names = db.metrics.source_names()
        for expected in (
            "accelerator",
            "health",
            "interconnect",
            "replication",
        ):
            assert expected in names
        collected = db.metrics.collect()
        assert collected["health.state"] == "ONLINE"
        assert collected["replication.backlog"] == 0


class TestExport:
    def test_trace_round_trip(self, tmp_path):
        db = make_db()
        conn = accelerated_items(db)
        conn.execute("SELECT COUNT(*) FROM ITEMS")
        trace = db.tracer.last()
        payload = trace_to_dict(trace)
        assert payload["trace_id"] == trace.trace_id
        assert len(payload["spans"]) == len(trace.spans)
        phases = trace_phase_breakdown(trace)
        assert phases["interconnect.send"]["bytes"] > 0
        merged = statement_breakdown(db)
        assert merged["statement"]["count"] >= 1
        assert "mean_ms" in merged["statement"]
        metrics = collect_metrics(db)
        assert metrics["traces.retained"] == len(db.tracer.traces())
        target = export_json(tmp_path / "out" / "obs.json", payload)
        assert target.exists()
        assert trace.trace_id in target.read_text()
