"""Randomised query fuzzing: both engines must always agree.

A bounded random SELECT generator (hypothesis-driven) produces queries
over a fixed two-table schema; every generated query is executed on the
DB2 row engine and the accelerator and the results compared. This is the
strongest transparency check in the suite: any divergence in NULL
semantics, join behaviour, aggregation, or ordering shows up here.
"""

from __future__ import annotations

import datetime
import math
import os

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro import AcceleratedDatabase
from repro.accelerator import AcceleratorEngine
from repro.catalog import Catalog, Column, TableLocation, TableSchema
from repro.catalog.schema import pack_rows
from repro.db2 import Db2Engine
from repro.errors import ReproError
from repro.federation import accelerator_shards
from repro.federation.commands import _schema_from_columns
from repro.sql import ast, parse_statement
from repro.sql.types import BIGINT, DATE, DOUBLE, INTEGER, VarcharType

# ---------------------------------------------------------------------------
# Fixed engines + data (module scope: built once)
# ---------------------------------------------------------------------------


def _corpus():
    """(table name, schema, raw rows) of the fixed fuzzing data."""
    main_schema = TableSchema(
        [
            Column("ID", INTEGER, nullable=False),
            Column("K", INTEGER),
            Column("V", DOUBLE),
            Column("S", VarcharType(4)),
            Column("Z", DOUBLE),
        ]
    )
    dim_schema = TableSchema(
        [Column("K", INTEGER, nullable=False), Column("NAME", VarcharType(8))]
    )
    import random

    rng = random.Random(123)
    main_rows = []
    for i in range(60):
        main_rows.append(
            (
                i,
                None if i % 11 == 0 else rng.randint(0, 6),
                None if i % 7 == 0 else round(rng.uniform(-50, 50), 2),
                None if i % 13 == 0 else rng.choice(["aa", "bb", "cc"]),
                # A NaN per row (each its own object, as computed values
                # are), and zeros of both signs.
                (None, float("nan"), 0.0, -0.0, 2.5, float("nan"), -0.0)[i % 7],
            )
        )
    dim_rows = [(k, f"name{k}") for k in range(0, 5)]
    # ORDER BY corpus: every key column has heavy ties and NULLs; B walks
    # the int64 edges (and neighbours float64 cannot tell apart), F is
    # exact in binary (sums do not depend on order), N also holds NaN.
    ord_schema = TableSchema(
        [
            Column("ID", INTEGER, nullable=False),
            Column("G", INTEGER),
            Column("B", BIGINT),
            Column("F", DOUBLE),
            Column("N", DOUBLE),
            Column("D", DATE),
            Column("S", VarcharType(4)),
        ]
    )
    bigs = [-(2**63), 2**63 - 1, 2**53, 2**53 + 1, -1, 0, None, 2**53 + 1]
    ord_rows = [
        (
            i,
            None if i % 9 == 0 else rng.randint(0, 3),
            bigs[rng.randrange(len(bigs))],
            None if i % 8 == 0 else rng.randint(-6, 6) * 0.25,
            rng.choice([None, float("nan"), 1.5, -2.0, 0.0, 1.5]),
            None
            if i % 10 == 0
            else datetime.date(2015, 1, 1) + datetime.timedelta(rng.randint(0, 5)),
            None if i % 6 == 0 else rng.choice(["aa", "ab", "b", "zz"]),
        )
        for i in range(48)
    ]
    return (
        ("MAIN", main_schema, main_rows),
        ("DIM", dim_schema, dim_rows),
        ("ORD", ord_schema, ord_rows),
    )


def _build_engines():
    catalog = Catalog()
    db2 = Db2Engine(catalog)
    accelerator = AcceleratorEngine(catalog, accelerator_shards(), slice_count=2, chunk_rows=16)
    pool = AcceleratorEngine(catalog, accelerator_shards(3), slice_count=2, chunk_rows=16)
    for name, schema, rows in _corpus():
        descriptor = catalog.create_table(
            name, schema, location=TableLocation.ACCELERATED
        )
        db2.create_storage(descriptor)
        accelerator.create_storage(descriptor)
        coerced = [schema.coerce_row(r) for r in rows]
        txn = db2.txn_manager.begin()
        db2.insert_rows(txn, name, coerced, already_coerced=True)
        db2.commit(txn)
        accelerator.bulk_insert(name, coerced)
        pool.create_storage(descriptor)
        pool.bulk_insert(name, coerced)
    return db2, accelerator, pool


_DB2, _ACCEL, _POOL = _build_engines()
_COLUMNS = {name: schema.column_names for name, schema, __ in _corpus()}


def _table_columns(name):
    return _COLUMNS.get(name.upper())


# Differential-testing knobs: CI's differential job sweeps several seeds
# at elevated volume (FUZZ_SEED=n FUZZ_EXAMPLES=m); local runs default to
# hypothesis' own randomness at a quick 150 examples.
FUZZ_EXAMPLES = int(os.environ.get("FUZZ_EXAMPLES", "150"))
_FUZZ_SEED = os.environ.get("FUZZ_SEED")


def _maybe_seed(fn):
    return seed(int(_FUZZ_SEED))(fn) if _FUZZ_SEED else fn

# ---------------------------------------------------------------------------
# Random query generator
# ---------------------------------------------------------------------------

_NUMERIC = ["ID", "K", "V"]
_PREDICATES = st.sampled_from(
    [
        None,
        "V > 0",
        "V IS NULL",
        "V IS NOT NULL",
        "K IN (1, 2, 3)",
        "K NOT IN (0)",
        "S = 'aa'",
        "S LIKE 'a%'",
        "V BETWEEN -10 AND 25",
        "K = 2 OR V < -20",
        "NOT (K = 1)",
        "COALESCE(K, -1) >= 0",
        "ABS(V) > 10",
        "ID % 3 = 1",
        "V > 0 AND S IS NOT NULL",
    ]
)
_AGGREGATES = st.sampled_from(
    [
        "COUNT(*)",
        "COUNT(V)",
        "COUNT(DISTINCT K)",
        "COUNT(DISTINCT Z)",
        "SUM(V)",
        "AVG(V)",
        "MIN(V)",
        "MAX(ID)",
        "MIN(S)",
        "MAX(S)",
        "STDDEV(V)",
        "SUM(V * 2 + 1)",
    ]
)
_GROUP_KEYS = st.sampled_from(["K", "S", "K % 2", "ID % 4"])
_PROJECTIONS = st.sampled_from(
    [
        "ID, K, V, S",
        "ID, V * 2",
        "ID, COALESCE(S, '?')",
        "ID, CASE WHEN V > 0 THEN 'pos' ELSE 'neg' END",
        "*",
    ]
)


@st.composite
def random_query(draw) -> str:
    shape = draw(
        st.sampled_from(
            ["plain", "agg", "group", "join", "using", "derived"]
        )
    )
    where = draw(_PREDICATES)
    where_sql = f" WHERE {where}" if where else ""
    if shape == "using":
        join_type = draw(st.sampled_from(["JOIN", "LEFT JOIN"]))
        using_where = draw(
            st.sampled_from(
                ["", " WHERE m.V > 0", " WHERE d.NAME LIKE 'name%'"]
            )
        )
        return (
            f"SELECT m.ID, d.NAME FROM main m {join_type} dim d USING (k)"
            f"{using_where} ORDER BY m.ID LIMIT 15"
        )
    if shape == "derived":
        outer = draw(
            st.sampled_from(
                [
                    "sub.V > 0",
                    "sub.V IS NULL",
                    "sub.ID % 2 = 0",
                    "sub.W > 10",
                ]
            )
        )
        return (
            "SELECT sub.ID, sub.W FROM (SELECT ID, V, V * 2 AS W "
            f"FROM main{where_sql}) AS sub WHERE {outer} ORDER BY sub.ID"
        )
    if shape == "plain":
        projection = draw(_PROJECTIONS)
        order = " ORDER BY ID" if projection != "*" else " ORDER BY 1"
        limit = draw(st.sampled_from(["", " LIMIT 7", " LIMIT 3 OFFSET 2"]))
        distinct = ""
        if projection not in ("*",) and draw(st.booleans()):
            distinct = "DISTINCT "
            order = ""
        return f"SELECT {distinct}{projection} FROM main{where_sql}{order}{limit}"
    if shape == "agg":
        aggregate = draw(_AGGREGATES)
        return f"SELECT {aggregate} FROM main{where_sql}"
    if shape == "group":
        key = draw(_GROUP_KEYS)
        aggregate = draw(_AGGREGATES)
        having = draw(st.sampled_from(["", " HAVING COUNT(*) > 2"]))
        return (
            f"SELECT {key} AS G, {aggregate} AS A FROM main{where_sql} "
            f"GROUP BY {key}{having} ORDER BY 1"
        )
    join_type = draw(st.sampled_from(["JOIN", "LEFT JOIN"]))
    aggregate = draw(
        st.sampled_from(
            [
                "COUNT(*)",
                "COUNT(m.V)",
                "SUM(m.V)",
                "AVG(m.V)",
                "MIN(m.ID)",
                "MAX(m.V)",
            ]
        )
    )
    # INTEGER, VARCHAR and two-column keys; each target lists WHERE
    # conjuncts whose unqualified names exactly one of its tables owns.
    target, on, key, unqualified = draw(
        st.sampled_from(
            [
                ("dim d", "m.k = d.k", "d.name", ["V > 0", "NAME <> 'name2'", "S = 'aa'"]),
                ("ord o", "m.s = o.s", "o.g", ["V > 0", "K IN (1, 2, 3)", "F > 0"]),
                (
                    "ord o",
                    "m.k = o.g AND m.s = o.s",
                    "o.d",
                    ["V > 0 AND G > 0", "K < 3", "D IS NOT NULL"],
                ),
            ]
        )
    )
    join_where = draw(
        st.sampled_from(
            [
                "",
                " WHERE m.V > 0",
                " WHERE m.V IS NOT NULL",
                " WHERE m.S = 'aa'",
                " WHERE m.ID % 2 = 0",
                *(f" WHERE {conjunct}" for conjunct in unqualified),
                f" WHERE m.ID % 3 > 0 AND {unqualified[0]}",
            ]
        )
    )
    return (
        f"SELECT {key}, {aggregate} "
        f"FROM main m {join_type} {target} ON {on}"
        f"{join_where} GROUP BY {key} ORDER BY 1"
    )


def _normalise(value):
    if value is None:
        return None
    if isinstance(value, bool):
        return bool(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return round(value, 6)
    if hasattr(value, "item"):
        return _normalise(value.item())
    return value


def _run_db2(sql):
    txn = _DB2.txn_manager.begin()
    try:
        __, rows = _DB2.execute_select(txn, parse_statement(sql))
    finally:
        _DB2.commit(txn)
    return rows


@_maybe_seed
@settings(max_examples=FUZZ_EXAMPLES, deadline=None)
@given(sql=random_query())
def test_random_queries_agree(sql):
    stmt = parse_statement(sql)
    db2_rows = [
        tuple(_normalise(v) for v in row) for row in _run_db2(sql)
    ]
    __, accel_raw = _ACCEL.execute_select(parse_statement(sql))
    accel_rows = [tuple(_normalise(v) for v in row) for row in accel_raw]
    # Scale-out transparency: a 3-shard pool over the same data must be
    # byte-identical (raw, pre-normalisation) to the single instance
    # (repr, not ==: NaN is unequal to itself).
    __, pool_raw = _POOL.execute_select(parse_statement(sql))
    assert repr(pool_raw) == repr(accel_raw), sql
    if getattr(stmt, "order_by", None):
        assert accel_rows == db2_rows, sql
    else:
        assert sorted(map(repr, accel_rows)) == sorted(
            map(repr, db2_rows)
        ), sql


# ---------------------------------------------------------------------------
# ORDER BY / LIMIT / OFFSET differential: the accelerator ranks and slices
# an index vector; the row engine sorts boxed rows. Same bytes, same order.
# ---------------------------------------------------------------------------

_DIRECTIONS = st.sampled_from(["", " ASC", " DESC"])
_WINDOWS = st.sampled_from(
    ["", " LIMIT 0", " LIMIT 5", " LIMIT 7 OFFSET 3", " LIMIT 4 OFFSET 100",
     " LIMIT 100 OFFSET 40"]
)


@st.composite
def _order_clause(draw, keys) -> str:
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3))
    return " ORDER BY " + ", ".join(key + draw(_DIRECTIONS) for key in chosen)


@st.composite
def random_order_query(draw) -> str:
    shape = draw(
        st.sampled_from(["plain", "distinct", "agg", "derived", "setop"])
    )
    window = draw(_WINDOWS)
    where = draw(st.sampled_from(["", " WHERE G > 0", " WHERE S IS NOT NULL"]))
    if shape == "plain":
        # Columns, expressions, 1-based positions, and the alias GG.
        keys = ["G", "B", "F", "N", "D", "S", "ID", "G % 2", "2", "4", "7", "GG"]
        return (
            "SELECT ID, G AS GG, B, F, N, D, S FROM ord"
            f"{where}{draw(_order_clause(keys))}{window}"
        )
    if shape == "distinct":
        return (
            "SELECT DISTINCT G, S, D FROM ord"
            f"{where}{draw(_order_clause(['G', 'S', 'D', '1', '2']))}{window}"
        )
    if shape == "agg":
        keys = ["GG", "C", "SF", "MD", "LB", "HB", "SB", "1", "2", "COUNT(*)", "MAX(D)"]
        group = draw(st.sampled_from(["G", "S"]))
        return (
            f"SELECT {group} AS GG, COUNT(*) AS C, SUM(F) AS SF, MAX(D) AS MD, "
            f"MIN(B) AS LB, MAX(B) AS HB, SUM(B) AS SB FROM ord{where} GROUP BY {group}"
            f"{draw(_order_clause(keys))}{window}"
        )
    if shape == "derived":
        keys = ["sub.G", "sub.S", "sub.F", "sub.B", "sub.D", "1", "3"]
        return (
            "SELECT sub.G, sub.S, sub.F, sub.B, sub.D FROM "
            f"(SELECT G, S, F, B, D FROM ord{where}) AS sub"
            f"{draw(_order_clause(keys))}{window}"
        )
    op = draw(st.sampled_from(["UNION", "UNION ALL", "EXCEPT", "INTERSECT"]))
    return (
        f"SELECT G, S, B FROM ord WHERE ID < 30 {op} "
        "SELECT G, S, B FROM ord WHERE ID >= 12"
        f"{draw(_order_clause(['G', 'S', 'B', '1', '2']))}{window}"
    )


@_maybe_seed
@settings(max_examples=FUZZ_EXAMPLES, deadline=None)
@given(sql=random_order_query())
def test_order_limit_queries_agree(sql):
    """Ties keep scan order (stable), NULLs sort high, DESC is a stable
    reverse, and LIMIT/OFFSET cut the same rows on all three engines."""
    db2_rows = [tuple(_normalise(v) for v in row) for row in _run_db2(sql)]
    __, accel_raw = _ACCEL.execute_select(parse_statement(sql))
    __, pool_raw = _POOL.execute_select(parse_statement(sql))
    # repr, not ==: NaN is unequal to itself.
    assert repr(pool_raw) == repr(accel_raw), sql
    assert [tuple(_normalise(v) for v in row) for row in accel_raw] == db2_rows, sql


@_maybe_seed
@settings(max_examples=max(20, FUZZ_EXAMPLES // 4), deadline=None)
@given(
    sql=random_query(),
    limit=st.integers(min_value=0, max_value=10),
)
def test_limit_is_prefix_of_full_result(sql, limit):
    """LIMIT n must be a prefix of the unlimited ordered result."""
    if " ORDER BY" not in sql or " LIMIT" in sql:
        return
    full = _run_db2(sql)
    limited = _run_db2(sql + f" LIMIT {limit}")
    assert limited == full[:limit], sql


@_maybe_seed
@settings(max_examples=max(25, FUZZ_EXAMPLES // 3), deadline=None)
@given(sql=random_query())
def test_rewrites_preserve_results(sql):
    """The logical rewriter (fold/pushdown/prune) never changes answers.

    Each generated query runs on both engines twice — once from the raw
    bound plan, once from the rewritten plan (schema-aware, as the system
    plans) — and all four row sets must agree.
    """
    from repro.sql.logical import plan_statement

    stmt = parse_statement(sql)
    plan_off = plan_statement(stmt, rewrite=False)
    plan_on = plan_statement(stmt, rewrite=True, table_columns=_table_columns)

    def run(plan):
        txn = _DB2.txn_manager.begin()
        try:
            __, db2_rows = _DB2.execute_select(txn, stmt, plan=plan)
        finally:
            _DB2.commit(txn)
        __, accel_rows = _ACCEL.execute_select(stmt, plan=plan)
        norm = lambda rows: [  # noqa: E731
            tuple(_normalise(v) for v in row) for row in rows
        ]
        return norm(db2_rows), norm(accel_rows)

    db2_off, accel_off = run(plan_off)
    db2_on, accel_on = run(plan_on)
    if getattr(stmt, "order_by", None):
        assert db2_on == db2_off == accel_on == accel_off, sql
    else:
        expected = sorted(map(repr, db2_off))
        for rows in (db2_on, accel_off, accel_on):
            assert sorted(map(repr, rows)) == expected, sql


# ---------------------------------------------------------------------------
# Landing differential: a SELECT's result landed in an accelerator-only
# table — by CTAS and by INSERT ... SELECT, both columnar end to end — is
# what coerce_row makes of the rows DB2 computes for the same SELECT.
# ---------------------------------------------------------------------------


def _build_systems():
    systems = {}
    for shards in (1, 2, 4):
        db = AcceleratedDatabase(shards=shards, slice_count=2, chunk_rows=16)
        for name, schema, rows in _corpus():
            descriptor = db.catalog.create_table(name, schema)
            db.db2.create_storage(descriptor)
            txn = db.db2.txn_manager.begin()
            db.db2.insert_rows(txn, name, rows)
            db.db2.commit(txn)
            db.add_table_to_accelerator(name)
        systems[shards] = (db, db.connect())
    return systems


_SYSTEMS = _build_systems()


def _landed(db, name, ordered):
    rows = [
        tuple(_normalise(v) for v in row)
        for row in db.accelerator.snapshot_rows(name)
    ]
    return rows if ordered else sorted(rows, key=repr)


def _outcome(action):
    """``action()``'s value, or the type and text of what it raised."""
    try:
        return action()
    except ReproError as error:
        return type(error), str(error)


@_maybe_seed
@settings(max_examples=max(25, FUZZ_EXAMPLES // 3), deadline=None)
@given(sql=st.one_of(random_query(), random_order_query()))
def test_selects_land_what_db2_computes(sql):
    stmt = parse_statement(sql)
    is_set_op = isinstance(stmt, ast.SetOperation)
    ordered = bool(getattr(stmt, "order_by", None))
    for shards, (db, conn) in _SYSTEMS.items():
        conn.set_acceleration("NONE")
        source = conn.execute(sql)
        conn.set_acceleration("ALL")
        if len(set(source.columns)) < len(source.columns):
            return  # no table can take two columns of one name
        for name in ("FZ_CTAS", "FZ_INS"):
            conn.execute(f"DROP TABLE IF EXISTS {name}")

        def expected(schema):
            rows = [
                tuple(_normalise(v) for v in schema.coerce_row(row))
                for row in source.rows
            ]
            return rows if ordered else sorted(rows, key=repr)

        if is_set_op:  # CREATE TABLE AS takes no set operation
            schema = _schema_from_columns(
                source.columns, pack_rows(source.rows, len(source.columns))
            )
        else:
            created = _outcome(
                lambda: conn.execute(
                    f"CREATE TABLE FZ_CTAS AS ({sql}) IN ACCELERATOR"
                )
            )
            schema = db.catalog.table("FZ_CTAS").schema
            want = _outcome(lambda: expected(schema))
            if isinstance(created, tuple):
                assert created == want, (shards, sql)
            else:
                assert created.engine == "ACCELERATOR"
                assert _landed(db, "FZ_CTAS", ordered) == want, (shards, sql)
        target = db.catalog.create_table(
            "FZ_INS",
            TableSchema(schema.columns),
            location=TableLocation.ACCELERATOR_ONLY,
            owner=conn.user.name,
        )
        db.accelerator.create_storage(target)
        inserted = _outcome(lambda: conn.execute(f"INSERT INTO FZ_INS {sql}"))
        want = _outcome(lambda: expected(schema))
        if isinstance(inserted, tuple):
            assert inserted == want, (shards, sql)
        else:
            assert inserted.rowcount == len(source.rows)
            assert _landed(db, "FZ_INS", ordered) == want, (shards, sql)


# ---------------------------------------------------------------------------
# Join-reorder differential: re-associated plans must be byte-identical
# ---------------------------------------------------------------------------

_REORDER_SIZES = {"MAIN": 60, "DIM": 5}


def _reorder_table_rows(name):
    return _REORDER_SIZES.get(name.upper())


@st.composite
def random_join_chain(draw) -> str:
    """Three-leaf INNER/CROSS join chains (the re-association region)."""
    second = draw(
        st.sampled_from(
            [
                "JOIN dim b ON a.K = b.K",
                "CROSS JOIN dim b",
            ]
        )
    )
    third = draw(
        st.sampled_from(
            [
                "JOIN main c ON b.K = c.K",
                "JOIN dim c ON a.K = c.K",
                "JOIN main c ON a.ID = c.ID",
                "CROSS JOIN dim c",
            ]
        )
    )
    where = draw(
        st.sampled_from(
            ["", " WHERE a.V > 0", " WHERE a.ID % 3 = 1", " WHERE b.K IN (1, 2)"]
        )
    )
    projection = draw(
        st.sampled_from(["a.ID, b.K, c.K", "a.ID, a.V", "COUNT(*), SUM(a.V)"])
    )
    return f"SELECT {projection} FROM main a {second} {third}{where}"


@_maybe_seed
@settings(max_examples=max(25, FUZZ_EXAMPLES // 3), deadline=None)
@given(sql=random_join_chain())
def test_join_reorder_is_byte_identical(sql):
    """Cost-based re-association must not change row ORDER, not just the
    row set: the federation promises transparent offload, and E14 pins
    byte-identity between plans. Runs each chain with and without the
    reorder stage on both engines and compares exact row sequences."""
    from repro.sql.logical import plan_statement

    stmt = parse_statement(sql)
    plan_plain = plan_statement(stmt, rewrite=True)
    plan_reordered = plan_statement(
        stmt, rewrite=True, table_rows=_reorder_table_rows
    )

    def run(plan):
        txn = _DB2.txn_manager.begin()
        try:
            __, db2_rows = _DB2.execute_select(txn, stmt, plan=plan)
        finally:
            _DB2.commit(txn)
        __, accel_rows = _ACCEL.execute_select(stmt, plan=plan)
        norm = lambda rows: [  # noqa: E731
            tuple(_normalise(v) for v in row) for row in rows
        ]
        return norm(db2_rows), norm(accel_rows)

    db2_plain, accel_plain = run(plan_plain)
    db2_reordered, accel_reordered = run(plan_reordered)
    assert db2_reordered == db2_plain, sql
    assert accel_reordered == accel_plain, sql
    assert accel_reordered == db2_reordered, sql
