"""The statement-plan cache keys by shape: literals become parameters.

A statement's numeric and string literals are lifted out of its cache
key and bound as parameters, so a fresh key, amount or note reuses the
plan of its shape. These tests hold the lift to its contract: a
statement runs exactly as it does from its own literal AST (the
uncached oracle), warm or cold, on either engine; constants estimate and
prune alike as literals or parameters; and feedback stays per binding.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from repro import AcceleratedDatabase
from repro.federation.router import _REFUSED, scan_statement
from repro.sql import parse_statement
from tests.test_query_fuzz import FUZZ_EXAMPLES, _corpus, _maybe_seed, random_query

# -- the scanner ------------------------------------------------------------------


@pytest.mark.parametrize(
    "sql, key, values",
    [
        (
            "select a from t where id = 12  and s = 'x'",
            "SELECT A FROM T WHERE ID = ? AND S = ?",
            (12, "x"),
        ),
        ("SELECT 1.5, .5, 2e3, 007", "SELECT ? , ? , ? , ?", (1.5, 0.5, 2000.0, 7)),
        ("SELECT 'it''s', ''", "SELECT ? , ?", ("it's", "")),
        # Digits inside identifiers, comments and row counts stay put.
        ("SELECT t1.x2 FROM t1 -- 5\n", "SELECT T1.X2 FROM T1", ()),
        ("SELECT a /* 5 */ FROM t LIMIT 5", "SELECT A FROM T LIMIT 5", ()),
        (
            "SELECT a FROM t OFFSET 2 ROWS FETCH FIRST 3 ROWS ONLY",
            "SELECT A FROM T OFFSET 2 ROWS FETCH FIRST 3 ROWS ONLY",
            (),
        ),
        # Beyond int64 only the literal folds (-9223372036854775808).
        (
            "SELECT -9223372036854775808",
            "SELECT -9223372036854775808",
            (),
        ),
        ("SELECT COALESCE(s, '?') FROM t", "SELECT COALESCE(S, ? ) FROM T", ("?",)),
        ("DELETE FROM t WHERE k = -5", "DELETE FROM T WHERE K = - ?", (5,)),
        # Leading comments are skipped.
        ("-- note\nSELECT a FROM t WHERE k = 5", "SELECT A FROM T WHERE K = ?", (5,)),
        ("/* hint */ UPDATE t SET s = 'x'", "UPDATE T SET S = ?", ("x",)),
    ],
)
def test_scanner_lifts_literals(sql, key, values):
    shape = scan_statement(sql)
    assert shape.key == key
    assert shape.values == values
    assert shape.lifted == bool(values)


def test_scanner_values_match_the_parser():
    sql = "SELECT 3, 3.0, 1e2, 'a''b', '2015-01-02' FROM t"
    parsed = [item.expression.value for item in parse_statement(sql).select_items]
    values = scan_statement(sql).values
    assert values == tuple(parsed)
    assert [type(v) for v in values] == [type(v) for v in parsed]


def test_caller_markers_interleave_with_lifted_literals():
    shape = scan_statement("SELECT a FROM t WHERE k = ? AND v > 5 AND s = ?")
    assert shape.key == "SELECT A FROM T WHERE K = ? AND V > ? AND S = ?"
    assert shape.params(["x", "y"]) == ("x", 5, "y")
    assert shape.text == "SELECT A FROM T WHERE K = ? AND V > 5 AND S = ?"


def test_uncached_statements_have_no_shape():
    for sql in (
        "CREATE TABLE x (a INT)",
        "CALL SYSPROC.ACCEL_GET_HEALTH()",
        "SET CURRENT QUERY ACCELERATION = ALL",
        "GRANT SELECT ON t TO u",
        "EXPLAIN SELECT 1",
        "COMMIT",
    ):
        assert scan_statement(sql) is None


def test_bulk_values_batches_are_not_cached():
    db = AcceleratedDatabase()
    conn = db.connect()
    conn.execute("CREATE TABLE T (ID INT NOT NULL PRIMARY KEY, V DOUBLE)")
    batch = "INSERT INTO T VALUES " + ", ".join(f"({i}, 0.5)" for i in range(200))
    assert scan_statement(batch) is None
    assert conn.execute(batch).rowcount == 200
    assert len(db.plan_cache) == 0


def test_quoted_identifiers_are_keyed_verbatim():
    shape = scan_statement('SELECT "a  B" FROM t WHERE x = 1')
    assert shape.key == 'SELECT "a  B" FROM t WHERE x = 1'
    assert not shape.lifted


# -- shape-cached ≡ uncached ------------------------------------------------------


def _database():
    db = AcceleratedDatabase(slice_count=2, chunk_rows=16)
    conn = db.connect()
    for name, schema, rows in _corpus():
        columns = ", ".join(
            f"{c.name} {c.sql_type.render()}"
            + ("" if c.nullable else " NOT NULL")
            for c in schema.columns
        )
        conn.execute(f"CREATE TABLE {name} ({columns})")
        marks = ", ".join("?" for _ in schema.columns)
        for row in rows:
            conn.execute(f"INSERT INTO {name} VALUES ({marks})", row)
        db.add_table_to_accelerator(name)
    db.replication.drain()
    return db


_DB = _database()


def _typed(rows):
    """Rows compared by type as well as value; floats by their repr
    (NaN equals itself, -0.0 differs from 0.0)."""

    def cell(value):
        if isinstance(value, float):
            return ("float", repr(value))
        return (type(value).__name__, value)

    return [tuple(cell(v) for v in row) for row in rows]


def _outcome(conn, statement, params=()):
    try:
        result = conn.execute(statement, params)
    except Exception as exc:  # the oracle must fail the same way
        return ("error", type(exc).__name__)
    return ("ok", result.engine, _typed(result.rows))


def _assert_shape_cached_matches_uncached(sql, params=()):
    for mode in ("NONE", "ALL"):
        conn = _DB.connect()
        conn.set_acceleration(mode)
        oracle = _outcome(conn, parse_statement(sql), params)
        _DB.plan_cache.clear()
        cold = _outcome(conn, sql, params)
        warm = _outcome(conn, sql, params)
        assert cold == oracle, (mode, sql)
        assert warm == oracle, (mode, sql)


#: Literals where lifting could change meaning or typing.
EDGE_QUERIES = [
    "SELECT ID FROM ORD WHERE B = 9223372036854775807 ORDER BY ID",
    "SELECT ID FROM ORD WHERE B = -9223372036854775808 ORDER BY ID",
    "SELECT ID FROM ORD WHERE B >= 9007199254740993 ORDER BY ID",
    "SELECT -9223372036854775808, 9223372036854775807 FROM DIM",
    "SELECT ID, K FROM MAIN WHERE K > -5 ORDER BY ID",
    "SELECT ID, V * -5 FROM MAIN WHERE V BETWEEN -10 AND -2.5 ORDER BY ID",
    "SELECT K, 'it''s' FROM DIM WHERE NAME <> 'it''s' ORDER BY K",
    "SELECT ID, COALESCE(S, '?') FROM MAIN WHERE COALESCE(S, '?') = '?' ORDER BY ID",
    "SELECT ID FROM ORD WHERE D >= '2015-01-03' ORDER BY ID",
    "SELECT ID FROM ORD WHERE D = '2015-01-02' ORDER BY ID",
    "SELECT ID FROM ORD WHERE D BETWEEN '2015-01-02' AND '2015-01-04' ORDER BY ID",
    "SELECT ID FROM MAIN WHERE K = NULL",
    "SELECT ID, COALESCE(K, NULL, 7) FROM MAIN ORDER BY ID",
    "SELECT ID, V FROM MAIN ORDER BY 1",
    "SELECT ID, V FROM MAIN ORDER BY 2 DESC, 1 LIMIT 5",
    "SELECT ID FROM MAIN ORDER BY ID LIMIT 5",
    "SELECT ID, CAST(V AS VARCHAR(16)) FROM MAIN ORDER BY ID",
    "SELECT ID FROM MAIN WHERE K IN (1) ORDER BY ID",
    "SELECT ID FROM MAIN WHERE K IN (1, 2) ORDER BY ID",
    "SELECT ID FROM MAIN WHERE K IN (1, 2, 3, 4) ORDER BY ID",
    "SELECT ID / 2, ID / 2.0 FROM MAIN ORDER BY ID",
    "SELECT ID FROM MAIN WHERE ID / 2 = 3 ORDER BY ID",
    "SELECT ID FROM MAIN WHERE ID / 2.0 = 3 ORDER BY ID",
    "SELECT K % 2 AS G, COUNT(*) FROM MAIN GROUP BY K % 2 ORDER BY 1",
    "SELECT ID % 4 + 1 AS G, SUM(V) FROM MAIN GROUP BY ID % 4 ORDER BY 1",
    "SELECT Z * 1, COUNT(*) FROM MAIN GROUP BY Z * 1 ORDER BY 2",
    "SELECT CASE WHEN ID < 20 THEN 'lo' ELSE 'hi' END AS B, COUNT(*) FROM MAIN "
    "GROUP BY CASE WHEN ID < 20 THEN 'lo' ELSE 'hi' END ORDER BY B",
    "SELECT K, SUM(V * 2) FROM MAIN GROUP BY K HAVING SUM(V * 2) > 10 ORDER BY 1",
    "SELECT ID FROM MAIN m WHERE V > (SELECT AVG(V) FROM MAIN "
    "WHERE K = m.K AND ID > 5) ORDER BY ID",
    "SELECT ID FROM MAIN WHERE K = 1 UNION SELECT ID FROM MAIN WHERE K = 2 ORDER BY 1",
    "SELECT s.ID FROM (SELECT ID, V FROM MAIN WHERE V > 1 ORDER BY 1) AS s "
    "WHERE s.ID > 3 ORDER BY s.ID",
    "SELECT ID FROM MAIN WHERE S LIKE 'a%' AND ID > 10 ORDER BY ID",
    "SELECT 1 FROM DIM WHERE 1 = 1",
    "SELECT ID, 2 + 3 * 2 FROM MAIN WHERE ID = 2 + 3 OR -ID < -50 ORDER BY ID",
]


@pytest.mark.parametrize("sql", EDGE_QUERIES)
def test_edge_literals_shape_cached_match_uncached(sql):
    _assert_shape_cached_matches_uncached(sql)


def test_caller_parameters_mixed_with_literals():
    _assert_shape_cached_matches_uncached(
        "SELECT ID FROM MAIN WHERE K = ? AND V > 0 ORDER BY ID", (2,)
    )


def test_one_shape_serves_int_and_float_literals():
    conn = _DB.connect()
    conn.set_acceleration("ALL")
    _DB.plan_cache.clear()
    truncating = conn.query("SELECT COUNT(*) FROM MAIN WHERE ID / 2 = 3")
    exact = conn.query("SELECT COUNT(*) FROM MAIN WHERE ID / 2.0 = 3")
    assert (truncating, exact) == ([(2,)], [(1,)])


@_maybe_seed
@settings(max_examples=FUZZ_EXAMPLES, deadline=None)
@given(sql=random_query())
def test_fuzzed_queries_shape_cached_match_uncached(sql):
    _assert_shape_cached_matches_uncached(sql)


@pytest.mark.parametrize("target", ["DB2", "AOT"])
def test_dml_shape_cached_matches_uncached(target):
    """INSERT VALUES of 1 and 3 rows, UPDATE and DELETE run the same from
    their shapes (warm and cold) as from their own literal ASTs."""
    db = AcceleratedDatabase(slice_count=2, chunk_rows=16)
    conn = db.connect()
    placement = " IN ACCELERATOR" if target == "AOT" else ""
    for name in ("VIA_TEXT", "VIA_AST"):
        conn.execute(
            f"CREATE TABLE {name} (ID INTEGER NOT NULL, S VARCHAR(8), "
            f"V DOUBLE, D DATE){placement}"
        )
    script = [
        "INSERT INTO {t} VALUES (1, 'it''s', -5, '2016-01-01')",
        "INSERT INTO {t} VALUES (2, 'a', 1.5, '2016-01-02'), "
        "(3, '?', NULL, '2016-01-03'), (4, 'A', 2e3, NULL)",
        "INSERT INTO {t} VALUES (5, 'b', 7, '2016-02-01')",
        "UPDATE {t} SET V = V * 2, S = 'x' WHERE ID >= 2 AND D < '2016-01-03'",
        "UPDATE {t} SET V = 0 WHERE S = 'A'",
        "DELETE FROM {t} WHERE ID = 1",
        "DELETE FROM {t} WHERE V > 1000",
    ]
    for template in script:
        db.plan_cache.clear()
        for __ in range(2):  # cold, then warm
            conn.execute(template.format(t="VIA_TEXT"))
            conn.execute(parse_statement(template.format(t="VIA_AST")))
    conn.set_acceleration("ALL" if target == "AOT" else "NONE")
    assert _typed(conn.query("SELECT * FROM VIA_TEXT ORDER BY ID, S")) == _typed(
        conn.query("SELECT * FROM VIA_AST ORDER BY ID, S")
    )
    assert db.plan_cache.hits > 0


# -- one plan per shape ---------------------------------------------------------------


def test_fresh_literals_hit_the_plan_of_their_shape():
    db = AcceleratedDatabase()
    conn = db.connect()
    conn.execute("CREATE TABLE T (ID INT NOT NULL PRIMARY KEY, S VARCHAR(8))")
    for i in range(5):
        conn.execute(f"INSERT INTO T VALUES ({i}, 'n{i}')")
    for i in range(5):
        assert conn.query(f"SELECT S FROM T WHERE ID = {i}") == [(f"n{i}",)]
        conn.execute(f"UPDATE T SET S = 'u{i}' WHERE ID = {i}")
    snapshot = db.plan_cache.snapshot()
    # INSERT, SELECT and UPDATE: one plan each (CREATE is never cached).
    assert snapshot["size"] == 3
    assert snapshot["hits"] == 12 and snapshot["misses"] == 3
    assert conn.query("SELECT COUNT(*) FROM T WHERE S LIKE 'u%'") == [(5,)]


def test_refused_shapes_parse_once_then_key_by_text():
    db = AcceleratedDatabase()
    conn = db.connect()
    conn.execute("CREATE TABLE T (ID INT NOT NULL PRIMARY KEY, V DOUBLE)")
    conn.execute("INSERT INTO T VALUES (1, 2.0), (2, 1.0)")
    entries = db.plan_cache._entries
    assert conn.query("SELECT ID, V FROM T ORDER BY 2") == [(2, 1.0), (1, 2.0)]
    assert conn.query("SELECT ID, V FROM T ORDER BY 1") == [(1, 2.0), (2, 1.0)]
    assert entries["SELECT ID, V FROM T ORDER BY ?"] is _REFUSED
    assert "SELECT ID, V FROM T ORDER BY 1" in entries
    assert conn.query("SELECT ID FROM T WHERE ID = 1 + 1") == [(2,)]
    assert entries["SELECT ID FROM T WHERE ID = ? + ?"] is _REFUSED


def test_caller_markers_of_a_refused_shape_run_unkeyed():
    """A text whose own ``?`` sits where a literal would change meaning
    shares no plan with the texts of its shape, in either order."""
    db = AcceleratedDatabase()
    conn = db.connect()
    conn.execute("CREATE TABLE T (ID INT NOT NULL PRIMARY KEY, V DOUBLE)")
    conn.execute("INSERT INTO T VALUES (1, 2.0), (2, 1.0)")
    by_marker = "SELECT ID FROM T WHERE ID = ? + ?"
    for __ in range(2):
        assert conn.query(by_marker, [1, 1]) == [(2,)]
    assert db.plan_cache._entries[by_marker] is _REFUSED
    assert conn.query("SELECT ID FROM T WHERE ID = 0 + 1") == [(1,)]
    assert conn.query(by_marker, [0, 2]) == [(2,)]
    by_position = "SELECT ID, V FROM T ORDER BY 2"
    assert conn.query("SELECT ID, V FROM T ORDER BY ?", [2]) == [(1, 2.0), (2, 1.0)]
    assert conn.query(by_position) == [(2, 1.0), (1, 2.0)]


def test_comment_led_statements_are_shaped():
    db = AcceleratedDatabase()
    conn = db.connect()
    conn.execute("CREATE TABLE T (ID INT NOT NULL PRIMARY KEY, V DOUBLE)")
    conn.execute("/* load */ INSERT INTO T VALUES (1, 2.0)")
    conn.execute("-- load\nINSERT INTO T VALUES (2, 1.0)")
    for key in (1, 2, 1):
        assert conn.query(f"-- note\nSELECT V FROM T WHERE ID = {key}") == [
            (3.0 - key,)
        ]
        assert conn.query(f"/* hint */ SELECT V FROM T WHERE ID = {key}") == [
            (3.0 - key,)
        ]
    snapshot = db.plan_cache.snapshot()
    assert (snapshot["size"], snapshot["misses"], snapshot["hits"]) == (2, 2, 6)


def test_long_queries_are_shaped():
    """Long IN-lists, by literals or by the caller's ``?``, and wide
    select lists of numbered names run and are cached."""
    db = AcceleratedDatabase()
    conn = db.connect()
    conn.execute("CREATE TABLE T (ID INT NOT NULL PRIMARY KEY, V DOUBLE)")
    conn.execute(
        "INSERT INTO T VALUES " + ", ".join(f"({i}, {i}.5)" for i in range(400))
    )
    ids = range(0, 600, 2)
    literals = f"SELECT COUNT(*) FROM T WHERE ID IN ({', '.join(map(str, ids))})"
    markers = f"SELECT COUNT(*) FROM T WHERE ID IN ({', '.join('?' for _ in ids)})"
    wide = "SELECT " + ", ".join(f"ID AS C{i}" for i in range(300)) + " FROM T"
    for __ in range(2):
        assert conn.query(literals) == [(200,)]
        assert conn.query(markers, list(ids)) == [(200,)]
        rows = conn.query(wide + " WHERE ID = 7")
        assert rows == [(7,) * 300]
    # The literal and the marker IN-list share one shape.
    snapshot = db.plan_cache.snapshot()
    assert (snapshot["misses"], snapshot["hits"]) == (2, 4)


def test_route_facts_are_computed_once_per_plan(monkeypatch):
    db = AcceleratedDatabase()
    conn = db.connect()
    conn.execute("CREATE TABLE T (ID INT NOT NULL PRIMARY KEY, V DOUBLE)")
    conn.execute("INSERT INTO T VALUES (1, 2.0), (2, 1.0)")
    db.add_table_to_accelerator("T")
    db.replication.drain()
    calls = []
    classify = db.router.classify
    monkeypatch.setattr(
        db.router, "classify", lambda stmt: calls.append(stmt) or classify(stmt)
    )
    for key in (1, 2, 1):
        conn.query(f"SELECT V FROM T WHERE ID = {key}")
        assert conn.last_decision == "primary-key point lookup"
    assert len(calls) == 1
    # A placement change bumps the catalog generation: re-bound, re-classified.
    db.remove_table_from_accelerator("T")
    conn.query("SELECT V FROM T WHERE ID = 2")
    assert conn.last_decision == "references non-accelerated tables"
    assert len(calls) == 2


# -- constants estimate and prune alike as literals or parameters -----------------------


@pytest.fixture(scope="module")
def wide():
    db = AcceleratedDatabase(slice_count=2, chunk_rows=1000)
    conn = db.connect()
    conn.execute("CREATE TABLE W (ID INTEGER NOT NULL PRIMARY KEY, V DOUBLE)")
    conn.execute(
        "INSERT INTO W VALUES "
        + ", ".join(f"({i}, {float(i % 97)})" for i in range(20_000))
    )
    db.add_table_to_accelerator("W")
    db.replication.drain()
    db.run_statistics(["W"])
    return db


def _rows_scanned(db, sql, params=()):
    conn = db.connect()
    conn.set_acceleration("ALL")
    before = db.accelerator.rows_scanned
    result = conn.execute(sql, params)
    return result.rows, db.accelerator.rows_scanned - before


def test_parameters_prune_zone_maps_like_literals(wide):
    literal = _rows_scanned(
        wide, parse_statement("SELECT COUNT(*) FROM W WHERE ID > 19500")
    )
    marker = _rows_scanned(wide, "SELECT COUNT(*) FROM W WHERE ID > ?", [19500])
    negated = _rows_scanned(wide, "SELECT COUNT(*) FROM W WHERE ID > -?", [-19500])
    folded = _rows_scanned(wide, "SELECT COUNT(*) FROM W WHERE ID > 19000 + 500")
    assert literal == marker == negated == folded
    assert literal[0] == [(499,)]
    # One chunk per shard, its last: the only one holding ids past 19,500.
    parts = wide.accelerator.storage_for("W").parts
    assert literal[1] == sum(len(list(p.iter_chunks())[-1]) for p in parts)


def test_parameters_cost_like_literals(wide):
    conn = wide.connect()
    conn.execute(parse_statement("SELECT V FROM W WHERE ID > 19500"))
    literal = conn.last_decision
    conn.execute("SELECT V FROM W WHERE ID > ?", [19500])
    assert conn.last_decision == literal
    assert literal.startswith("cost accelerator=")


# -- feedback stays per binding -------------------------------------------------------------


def _amounts_db():
    db = AcceleratedDatabase(slice_count=2, chunk_rows=256)
    conn = db.connect()
    conn.execute(
        "CREATE TABLE TX (T_ID INTEGER NOT NULL PRIMARY KEY, T_AMOUNT DOUBLE)"
    )
    rng = random.Random(5)
    conn.execute(
        "INSERT INTO TX VALUES "
        + ", ".join(f"({i}, {rng.uniform(1.5, 7200.0):.2f})" for i in range(6000))
    )
    db.add_table_to_accelerator("TX")
    db.replication.drain()
    db.run_statistics(["TX"])
    return db, conn


def test_feedback_for_one_literal_does_not_route_another():
    probe = "SELECT COUNT(*), SUM(T_AMOUNT) FROM TX WHERE T_AMOUNT > 6000"
    fresh_db, fresh = _amounts_db()
    fresh.execute(probe)
    expected = fresh.last_decision

    db, conn = _amounts_db()
    for __ in range(3):
        conn.execute("SELECT COUNT(*), SUM(T_AMOUNT) FROM TX WHERE T_AMOUNT > 500")
    assert db.profiler.feedback.worst(5)  # feedback was recorded
    conn.execute(probe)
    assert conn.last_decision == expected
