"""Both engines must return identical results for the same query.

The federation's transparency promise only holds if offloading never
changes answers. These tests run a battery of queries against the same
data through the DB2 row executor and the accelerator's vectorised
executor and compare (order-insensitively unless ORDER BY is present).
"""

import math

import pytest

from repro.accelerator import AcceleratorEngine
from repro.catalog import Catalog, Column, TableLocation, TableSchema
from repro.db2 import Db2Engine
from repro.sql import parse_statement
from repro.sql.types import DATE, DOUBLE, INTEGER, VarcharType


@pytest.fixture(scope="module")
def engines():
    catalog = Catalog()
    db2 = Db2Engine(catalog)
    accelerator = AcceleratorEngine(catalog, slice_count=3, chunk_rows=64)

    orders_schema = TableSchema(
        [
            Column("O_ID", INTEGER, nullable=False),
            Column("O_CUST", INTEGER, nullable=False),
            Column("O_AMOUNT", DOUBLE),
            Column("O_REGION", VarcharType(4)),
            Column("O_DATE", DATE),
        ]
    )
    customers_schema = TableSchema(
        [
            Column("C_ID", INTEGER, nullable=False),
            Column("C_NAME", VarcharType(20), nullable=False),
            Column("C_TIER", VarcharType(8)),
        ]
    )
    for name, schema in (
        ("ORDERS", orders_schema),
        ("CUST", customers_schema),
    ):
        descriptor = catalog.create_table(
            name, schema, location=TableLocation.ACCELERATED
        )
        db2.create_storage(descriptor)
        accelerator.create_storage(descriptor)

    import random

    rng = random.Random(99)
    orders = []
    for oid in range(1, 301):
        orders.append(
            (
                oid,
                rng.randint(1, 40),
                None if rng.random() < 0.05 else round(rng.uniform(5, 500), 2),
                rng.choice(["EU", "US", "AP"]),
                f"2015-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
            )
        )
    customers = [
        (
            cid,
            f"Cust{cid}",
            None if cid % 11 == 0 else rng.choice(["GOLD", "SILVER"]),
        )
        for cid in range(1, 36)  # some orders have no matching customer
    ]
    for name, rows, schema in (
        ("ORDERS", orders, orders_schema),
        ("CUST", customers, customers_schema),
    ):
        coerced = [schema.coerce_row(row) for row in rows]
        txn = db2.txn_manager.begin()
        db2.insert_rows(txn, name, coerced, already_coerced=True)
        db2.commit(txn)
        accelerator.bulk_insert(name, coerced)
    return db2, accelerator


QUERIES = [
    "SELECT COUNT(*) FROM orders",
    "SELECT COUNT(o_amount) FROM orders",
    "SELECT COUNT(DISTINCT o_region) FROM orders",
    "SELECT SUM(o_amount), AVG(o_amount), MIN(o_amount), MAX(o_amount) FROM orders",
    "SELECT STDDEV(o_amount), VARIANCE(o_amount) FROM orders",
    "SELECT o_region, COUNT(*) FROM orders GROUP BY o_region ORDER BY o_region",
    "SELECT o_region, SUM(o_amount) AS total FROM orders GROUP BY o_region "
    "HAVING SUM(o_amount) > 1000 ORDER BY total DESC",
    "SELECT o_id, o_amount FROM orders WHERE o_amount > 400 ORDER BY o_id",
    "SELECT o_id FROM orders WHERE o_amount BETWEEN 100 AND 110 ORDER BY o_id",
    "SELECT o_id FROM orders WHERE o_region IN ('EU', 'AP') AND o_amount > 450 "
    "ORDER BY o_id",
    "SELECT o_id FROM orders WHERE o_amount IS NULL ORDER BY o_id",
    "SELECT o_id, COALESCE(o_amount, 0) FROM orders ORDER BY o_id LIMIT 10",
    "SELECT o_id, CASE WHEN o_amount > 250 THEN 'hi' WHEN o_amount > 100 "
    "THEN 'mid' ELSE 'lo' END FROM orders WHERE o_amount IS NOT NULL "
    "ORDER BY o_id LIMIT 20",
    "SELECT DISTINCT o_region FROM orders ORDER BY o_region",
    "SELECT o_region, o_cust, COUNT(*) FROM orders GROUP BY o_region, o_cust "
    "ORDER BY o_region, o_cust",
    "SELECT c.c_tier, COUNT(*) FROM orders o JOIN cust c ON o.o_cust = c.c_id "
    "GROUP BY c.c_tier ORDER BY c.c_tier",
    "SELECT c.c_name, SUM(o.o_amount) AS spent FROM cust c "
    "JOIN orders o ON c.c_id = o.o_cust GROUP BY c.c_name "
    "ORDER BY spent DESC LIMIT 5",
    "SELECT c.c_name FROM cust c LEFT JOIN orders o ON c.c_id = o.o_cust "
    "AND o.o_amount > 490 WHERE o.o_id IS NULL ORDER BY c.c_name LIMIT 8",
    "SELECT o.o_id FROM orders o RIGHT JOIN cust c ON o.o_cust = c.c_id "
    "WHERE c.c_tier = 'GOLD' AND o.o_amount > 480 ORDER BY o.o_id",
    "SELECT COUNT(*) FROM orders o CROSS JOIN cust c WHERE o.o_id = c.c_id",
    "SELECT o_region FROM orders WHERE o_amount > "
    "(SELECT AVG(o_amount) FROM orders) GROUP BY o_region ORDER BY o_region",
    "SELECT o_id FROM orders WHERE o_cust IN (SELECT c_id FROM cust "
    "WHERE c_tier = 'GOLD') AND o_amount > 450 ORDER BY o_id",
    "SELECT x.o_region, x.n FROM (SELECT o_region, COUNT(*) AS n FROM orders "
    "GROUP BY o_region) AS x WHERE x.n > 50 ORDER BY x.o_region",
    "SELECT o_region FROM orders WHERE o_amount > 480 UNION "
    "SELECT c_tier FROM cust WHERE c_tier = 'GOLD' ORDER BY 1",
    "SELECT o_region FROM orders UNION ALL SELECT o_region FROM orders "
    "WHERE o_amount > 499 ORDER BY 1 LIMIT 5",
    "SELECT o_region FROM orders EXCEPT SELECT 'EU' FROM cust ORDER BY 1",
    "SELECT o_region FROM orders INTERSECT SELECT 'EU' FROM cust",
    "SELECT UPPER(o_region) || '-' || CAST(o_cust AS VARCHAR(8)) FROM orders "
    "ORDER BY o_id LIMIT 5",
    "SELECT ABS(o_amount - 250), SQRT(o_amount) FROM orders "
    "WHERE o_amount IS NOT NULL ORDER BY o_id LIMIT 5",
    "SELECT o_cust % 7, COUNT(*) FROM orders GROUP BY o_cust % 7 ORDER BY 1",
    "SELECT o_id FROM orders WHERE o_region LIKE 'E%' AND o_amount > 470 "
    "ORDER BY o_id",
    "SELECT o_id FROM orders WHERE NOT (o_amount < 495) ORDER BY o_id",
    "SELECT COUNT(*) FROM orders WHERE o_date >= '2015-07-01'",
    "SELECT AVG(o_amount) FROM orders WHERE o_region = 'EU' "
    "AND o_amount IS NOT NULL",
    "SELECT o_region, AVG(o_amount) FROM orders GROUP BY o_region "
    "ORDER BY 2 DESC",
    # USING joins (the parser desugars USING into ON equality).
    "SELECT COUNT(*) FROM cust a JOIN cust b USING (c_id) "
    "WHERE a.c_tier = 'GOLD'",
    "SELECT a.c_id FROM cust a LEFT JOIN cust b USING (c_id, c_tier) "
    "ORDER BY a.c_id LIMIT 6",
    # Derived tables: predicate-pushdown targets.
    "SELECT s.o_id FROM (SELECT o_id, o_amount FROM orders) AS s "
    "WHERE s.o_amount > 450 ORDER BY s.o_id",
    "SELECT s.r, s.n FROM (SELECT o_region AS r, COUNT(*) AS n FROM orders "
    "GROUP BY o_region) AS s WHERE s.n > 50 ORDER BY s.r",
    # Correlated subqueries.
    "SELECT c_id FROM cust WHERE EXISTS (SELECT 1 FROM orders "
    "WHERE o_cust = c_id AND o_amount > 480) ORDER BY c_id",
    "SELECT o_id FROM orders o WHERE o_amount > (SELECT AVG(i.o_amount) "
    "FROM orders i WHERE i.o_region = o.o_region) AND o_amount > 490 "
    "ORDER BY o_id",
]


def _normalise(value):
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return round(value, 6)
    if hasattr(value, "item"):
        inner = value.item()
        return _normalise(inner)
    return value


def _run_db2(db2, sql):
    txn = db2.txn_manager.begin()
    try:
        __, rows = db2.execute_select(txn, parse_statement(sql))
    finally:
        db2.commit(txn)
    return rows


@pytest.mark.parametrize("sql", QUERIES, ids=lambda q: q[:60])
def test_same_answer_on_both_engines(engines, sql):
    db2, accelerator = engines
    stmt = parse_statement(sql)
    db2_rows = [_normalise_row(r) for r in _run_db2(db2, sql)]
    __, acc_rows = accelerator.execute_select(parse_statement(sql))
    acc_rows = [_normalise_row(r) for r in acc_rows]
    has_order = getattr(stmt, "order_by", None)
    if has_order:
        assert acc_rows == db2_rows
    else:
        assert sorted(map(repr, acc_rows)) == sorted(map(repr, db2_rows))


def _normalise_row(row):
    return tuple(_normalise(value) for value in row)


# ---------------------------------------------------------------------------
# Shared logical plan: one bound plan, two executors, identical bytes
# ---------------------------------------------------------------------------

# Ordered queries without floating-point aggregation, so results must be
# byte-identical (same values, same Python types, same order) — not just
# equal after normalisation.
SHARED_PLAN_QUERIES = [
    "SELECT o_id, o_cust, o_region FROM orders WHERE o_amount > 300 "
    "ORDER BY o_id",
    "SELECT o_region, COUNT(*) FROM orders GROUP BY o_region ORDER BY 1",
    "SELECT c.c_name, COUNT(*) FROM cust c JOIN orders o "
    "ON c.c_id = o.o_cust GROUP BY c.c_name ORDER BY 1 LIMIT 10",
    "SELECT s.o_id FROM (SELECT o_id, o_amount FROM orders) AS s "
    "WHERE s.o_amount > 450 ORDER BY 1",
    "SELECT o_region FROM orders WHERE o_amount > 480 UNION "
    "SELECT c_tier FROM cust WHERE c_tier = 'GOLD' ORDER BY 1",
    "SELECT a.c_id, b.c_tier FROM cust a JOIN cust b USING (c_id) "
    "ORDER BY 1 LIMIT 12",
]


@pytest.mark.parametrize("sql", SHARED_PLAN_QUERIES, ids=lambda q: q[:60])
def test_shared_logical_plan_byte_identical(engines, sql):
    """Both executors lower the SAME bound plan to identical output."""
    from repro.sql.logical import plan_statement

    db2, accelerator = engines
    plan = plan_statement(parse_statement(sql))
    txn = db2.txn_manager.begin()
    try:
        db2_cols, db2_rows = db2.execute_select(
            txn, parse_statement(sql), plan=plan
        )
    finally:
        db2.commit(txn)
    acc_cols, acc_rows = accelerator.execute_select(
        parse_statement(sql), plan=plan
    )
    assert acc_cols == db2_cols
    assert repr(acc_rows) == repr(db2_rows)


# ---------------------------------------------------------------------------
# Equi-join keys float64 cannot represent
# ---------------------------------------------------------------------------


def _both_engines(conn, sql):
    conn.set_acceleration("NONE")
    db2 = conn.execute(sql)
    conn.set_acceleration("ALL")
    accelerated = conn.execute(sql)
    assert (db2.engine, accelerated.engine) == ("DB2", "ACCELERATOR")
    return db2.rows, accelerated.rows


@pytest.mark.parametrize("filler", [0, 12], ids=["cross-filter", "pairing-kernel"])
def test_bigint_double_equi_join_above_2_53(filler):
    """BIGINT = DOUBLE compares exactly: 2**53 + 1 is not 2.0**53, though
    casting the integer keys to float64 (as ``searchsorted`` did) says so.
    Unmatched filler rows lift the estimate past the nested-loop cutover,
    so both join strategies are pinned."""
    from repro import AcceleratedDatabase

    db = AcceleratedDatabase()
    conn = db.connect()
    conn.execute("CREATE TABLE C (ID INTEGER NOT NULL PRIMARY KEY, K BIGINT)")
    conn.execute("CREATE TABLE D (ID INTEGER NOT NULL PRIMARY KEY, K DOUBLE)")
    conn.execute(
        "INSERT INTO C VALUES (1, 9007199254740993), (2, 9007199254740992)"
    )
    conn.execute("INSERT INTO D VALUES (1, 9007199254740992.0)")
    for i in range(filler):
        conn.execute(f"INSERT INTO C VALUES ({10 + i}, {100 + i})")
        conn.execute(f"INSERT INTO D VALUES ({10 + i}, {200 + i}.5)")
    for table in ("C", "D"):
        db.add_table_to_accelerator(table)
    for sql in (
        "SELECT c.id, d.id FROM c JOIN d ON c.k = d.k",
        "SELECT c.id, d.id FROM d JOIN c ON d.k = c.k",
    ):
        db2_rows, accel_rows = _both_engines(conn, sql)
        assert db2_rows == accel_rows == [(2, 1)]


def test_bigint_equi_join_at_int64_edges():
    from repro import AcceleratedDatabase

    low, high = -(2**63), 2**63 - 1
    db = AcceleratedDatabase()
    conn = db.connect()
    conn.execute("CREATE TABLE C (ID INTEGER NOT NULL PRIMARY KEY, K BIGINT)")
    conn.execute("CREATE TABLE D (ID INTEGER NOT NULL PRIMARY KEY, K BIGINT)")
    conn.execute(
        f"INSERT INTO C VALUES (1, {high}), (2, {low}), (3, {high - 1}), "
        f"(4, {low + 1}), (5, NULL), (6, {high})"
    )
    conn.execute(
        f"INSERT INTO D VALUES (1, {low}), (2, {high}), (3, {low + 1}), "
        f"(4, NULL), (5, {low})"
    )
    for table in ("C", "D"):
        db.add_table_to_accelerator(table)
    db2_rows, accel_rows = _both_engines(
        conn, "SELECT c.id, d.id FROM c JOIN d ON c.k = d.k"
    )
    assert db2_rows == accel_rows == [(1, 2), (2, 1), (2, 5), (4, 3), (6, 2)]
    db2_rows, accel_rows = _both_engines(
        conn, "SELECT MIN(c.k), MAX(c.k), SUM(c.k) FROM c JOIN d ON c.k = d.k"
    )
    assert db2_rows == accel_rows == [(low, high, 2 * high + 3 * low + 1)]


def test_min_max_of_infinities():
    """The extremum kernel's fill is ±inf itself, not the largest finite."""
    from repro import AcceleratedDatabase

    db = AcceleratedDatabase()
    conn = db.connect()
    conn.execute("CREATE TABLE T (G INTEGER, F DOUBLE)")
    conn.execute(
        "INSERT INTO T VALUES (1, 1e999), (1, 1e999), (2, -1e999), (3, NULL)"
    )
    db.add_table_to_accelerator("T")
    db2_rows, accel_rows = _both_engines(
        conn, "SELECT g, MIN(f), MAX(f) FROM t GROUP BY g ORDER BY g"
    )
    inf = float("inf")
    assert db2_rows == accel_rows == [(1, inf, inf), (2, -inf, -inf), (3, None, None)]
