"""The shared logical-plan layer: binder, rewriter, and shared helpers.

Three groups of tests:

* plan-shape unit tests — the binder produces the documented operator
  tree and each rewrite rule does (only) what it claims: constant
  folding stays runtime-faithful, predicate pushdown respects outer-join
  preserved sides and never moves subquery-bearing conjuncts, projection
  pruning records the referenced column set on each Scan;
* shared-helper unit tests — the row-shaping helpers both executors now
  delegate to (dedup, slicing, set-op combination, output-scope ORDER
  BY) including the single positional-ORDER-BY range error;
* differential tests — a fixed corpus (NULL-heavy predicates, correlated
  subqueries, USING joins, derived tables) must return identical rows on
  both engines with rewrites on and off, and pushdown must measurably
  reduce the accelerator's ``rows_scanned``.
"""

import dataclasses

import pytest

from repro.accelerator import AcceleratorEngine
from repro.catalog import Catalog, Column, TableLocation, TableSchema
from repro.db2 import Db2Engine
from repro.errors import ParseError, SqlError
from repro.federation import accelerator_shards
from repro.sql import ast, parse_statement
from repro.sql.logical import (
    Aggregate,
    Filter,
    Join,
    Limit,
    PlanNode,
    Project,
    Scan,
    Sort,
    SubqueryBind,
    combine_set_rows,
    dedup_rows,
    order_rows_by_output,
    plan_shape,
    plan_statement,
    slice_rows,
)

# ---------------------------------------------------------------------------
# Plan inspection helpers
# ---------------------------------------------------------------------------


def _plan(sql, rewrite=True):
    return plan_statement(parse_statement(sql), rewrite=rewrite)


def _walk(node):
    if not isinstance(node, PlanNode):
        return
    yield node
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        if isinstance(value, PlanNode):
            yield from _walk(value)


def _find(plan, cls):
    return [node for node in _walk(plan) if isinstance(node, cls)]


# ---------------------------------------------------------------------------
# Binder shapes
# ---------------------------------------------------------------------------


class TestBinder:
    def test_select_order_limit_shape(self):
        shape = plan_shape(
            _plan(
                "SELECT a FROM t WHERE b > 1 ORDER BY a LIMIT 2",
                rewrite=False,
            )
        )
        assert shape == "Limit(Sort(Project(Filter(Scan[T]))))"

    def test_constant_select_binds_bare_project(self):
        plan = _plan("SELECT 1, 'x'")
        assert isinstance(plan, Project) and plan.child is None

    def test_aggregate_replaces_project(self):
        plan = _plan("SELECT k, COUNT(*) FROM t GROUP BY k", rewrite=False)
        assert isinstance(plan, Aggregate)
        assert not _find(plan, Project)

    def test_having_without_aggregate_rejected_at_bind(self):
        with pytest.raises(ParseError):
            _plan("SELECT a FROM t HAVING a > 1")

    def test_set_operation_shape(self):
        shape = plan_shape(
            _plan(
                "SELECT a FROM t UNION SELECT b FROM u ORDER BY 1",
                rewrite=False,
            )
        )
        assert shape.startswith("Sort(SetOp[UNION]")


# ---------------------------------------------------------------------------
# Rewrite rules
# ---------------------------------------------------------------------------


class TestRewriter:
    def test_rewrites_enabled_by_default(self):
        plan = plan_statement(parse_statement("SELECT a FROM t WHERE b > 1"))
        assert plan_shape(plan) == "Project(Scan[T(A,B)*])"

    def test_pushdown_absorbs_filter_into_scan(self):
        plan = _plan("SELECT a FROM t WHERE b > 1")
        assert not _find(plan, Filter)
        (scan,) = _find(plan, Scan)
        assert scan.predicate is not None

    def test_no_rewrite_keeps_filter(self):
        plan = _plan("SELECT a FROM t WHERE b > 1", rewrite=False)
        assert _find(plan, Filter)
        (scan,) = _find(plan, Scan)
        assert scan.predicate is None and scan.columns is None

    def test_pushdown_through_derived_table(self):
        plan = _plan(
            "SELECT s.a FROM (SELECT a, b FROM t) AS s WHERE s.b > 1"
        )
        assert not _find(plan, Filter)
        (scan,) = _find(plan, Scan)
        assert scan.predicate is not None

    def test_subquery_conjunct_never_pushed(self):
        plan = _plan("SELECT a FROM t WHERE a IN (SELECT x FROM u)")
        assert _find(plan, Filter)
        scan = next(s for s in _find(plan, Scan) if s.table == "T")
        assert scan.predicate is None

    def test_left_join_pushes_only_preserved_side(self):
        null_side = _plan(
            "SELECT * FROM a LEFT JOIN b ON a.id = b.id WHERE b.x > 1"
        )
        assert _find(null_side, Filter)  # stays above the join
        preserved = _plan(
            "SELECT * FROM a LEFT JOIN b ON a.id = b.id WHERE a.x > 1"
        )
        assert not _find(preserved, Filter)
        scan_a = next(s for s in _find(preserved, Scan) if s.table == "A")
        assert scan_a.predicate is not None

    def test_right_join_mirrors_preserved_side(self):
        plan = _plan(
            "SELECT * FROM a RIGHT JOIN b ON a.id = b.id WHERE b.x > 1"
        )
        assert not _find(plan, Filter)
        scan_b = next(s for s in _find(plan, Scan) if s.table == "B")
        assert scan_b.predicate is not None

    def test_using_join_predicate_pushdown(self):
        plan = _plan(
            "SELECT t.id FROM t JOIN d USING (k) WHERE t.v > 0"
        )
        assert not _find(plan, Filter)
        scan_t = next(s for s in _find(plan, Scan) if s.table == "T")
        assert scan_t.predicate is not None

    def test_projection_pruning_records_referenced_columns(self):
        (scan,) = _find(_plan("SELECT a FROM t WHERE b > 1"), Scan)
        assert scan.columns is not None
        assert set(scan.columns) == {"A", "B"}

    def test_wildcard_disables_pruning(self):
        (scan,) = _find(_plan("SELECT * FROM t WHERE b > 1"), Scan)
        assert scan.columns is None

    def test_count_star_prunes_to_empty_column_set(self):
        (scan,) = _find(_plan("SELECT COUNT(*) FROM t"), Scan)
        assert scan.columns == ()

    def test_constant_false_conjunct_folds(self):
        (scan,) = _find(_plan("SELECT a FROM t WHERE 1 = 0 AND a > 1"), Scan)
        assert isinstance(scan.predicate, ast.Literal)
        assert scan.predicate.value is False

    def test_select_list_constant_folds(self):
        plan = _plan("SELECT 1 + 2 * 3 FROM t")
        project = _find(plan, Project)[0]
        expr = project.select_items[0].expression
        assert isinstance(expr, ast.Literal) and expr.value == 7

    def test_order_by_expression_never_folds_to_positional(self):
        # Folding ORDER BY 1+1 to the literal 2 would silently turn an
        # expression key into a positional reference.
        plan = _plan("SELECT a, b FROM t ORDER BY 1 + 1")
        (sort,) = _find(plan, Sort)
        assert not isinstance(sort.order_by[0].expression, ast.Literal)

    def test_limit_offset_survive_rewrites(self):
        (limit,) = _find(
            _plan("SELECT a FROM t ORDER BY a LIMIT 3 OFFSET 2"), Limit
        )
        assert (limit.offset, limit.limit) == (2, 3)


# ---------------------------------------------------------------------------
# Schema-aware pushdown: unqualified names resolve against the join tree
# ---------------------------------------------------------------------------

_SCHEMAS = {"T": ["ID", "K", "V"], "D": ["K", "NAME"], "U": ["ID", "X"]}


def _plan_with_schema(sql, schemas=_SCHEMAS):
    return plan_statement(parse_statement(sql), table_columns=schemas.get)


def _scan(plan, table):
    return next(s for s in _find(plan, Scan) if s.table == table)


def _column_refs(expr):
    return [n for n in expr.walk() if isinstance(n, ast.ColumnRef)]


class TestSchemaAwarePushdown:
    def test_unique_owner_pushes_a_qualified_copy(self):
        sql = "SELECT id, name FROM t JOIN d ON t.k = d.k WHERE v > 0 AND name <> 'x'"
        plan = _plan_with_schema(sql)
        assert not _find(plan, Filter)
        assert [(r.table, r.name) for r in _column_refs(_scan(plan, "T").predicate)] == [
            ("T", "V")
        ]
        assert [(r.table, r.name) for r in _column_refs(_scan(plan, "D").predicate)] == [
            ("D", "NAME")
        ]
        # Only the pushed copy is qualified: select items keep their text.
        (project,) = _find(plan, Project)
        assert [i.expression.table for i in project.select_items] == [None, None]
        # ... and it is the plan the qualified spelling always got.
        qualified = _plan_with_schema(
            "SELECT id, name FROM t JOIN d ON t.k = d.k "
            "WHERE t.v > 0 AND d.name <> 'x'"
        )
        assert plan_shape(plan) == plan_shape(qualified)

    def test_schema_blind_planning_leaves_the_filter(self):
        plan = _plan("SELECT id FROM t JOIN d ON t.k = d.k WHERE v > 0")
        assert _find(plan, Filter)

    def test_ambiguous_and_unknown_names_stay_above_the_join(self):
        for where in ("k > 1", "nope > 1", "v > 0 AND k > 1"):
            plan = _plan_with_schema(
                f"SELECT t.id FROM t JOIN d ON t.k = d.k WHERE {where}"
            )
            (kept,) = _find(plan, Filter)
            assert isinstance(kept.child, Join)
            assert all(r.table is None for r in _column_refs(kept.predicate))

    def test_mixed_conjunct_pushes_only_when_every_name_resolves(self):
        plan = _plan_with_schema(
            "SELECT t.id FROM t JOIN d ON t.k = d.k WHERE v > id AND v > k"
        )
        (kept,) = _find(plan, Filter)  # v > k: K has two owners
        assert [r.name for r in _column_refs(kept.predicate)] == ["V", "K"]
        assert _scan(plan, "T").predicate is not None  # v > id went down

    def test_binding_with_unknown_columns_blocks_resolution(self):
        plan = _plan_with_schema(
            "SELECT id FROM t JOIN d ON t.k = d.k WHERE v > 0", {"T": _SCHEMAS["T"]}
        )
        assert _find(plan, Filter)  # D might own a V too

    def test_null_padded_side_of_outer_join_is_not_pushed(self):
        padded = _plan_with_schema(
            "SELECT id FROM t LEFT JOIN d ON t.k = d.k WHERE name = 'n'"
        )
        assert _find(padded, Filter) and _scan(padded, "D").predicate is None
        preserved = _plan_with_schema(
            "SELECT id FROM t LEFT JOIN d ON t.k = d.k WHERE v > 0"
        )
        assert not _find(preserved, Filter)
        assert _scan(preserved, "T").predicate is not None
        mirrored = _plan_with_schema(
            "SELECT id FROM t RIGHT JOIN d ON t.k = d.k WHERE v > 0"
        )
        assert _find(mirrored, Filter) and _scan(mirrored, "T").predicate is None

    def test_derived_table_resolves_by_output_label(self):
        plan = _plan_with_schema(
            "SELECT name FROM (SELECT id, v * 2 AS w FROM t) AS s "
            "JOIN d ON s.id = d.k WHERE w > 10"
        )
        assert not _find(plan, Filter)  # through the join, then the derived table
        assert _scan(plan, "T").predicate is not None
        # A label is not the column under it: V is not visible outside S.
        hidden = _plan_with_schema(
            "SELECT name FROM (SELECT id, v * 2 AS w FROM t) AS s "
            "JOIN d ON s.id = d.k WHERE v > 10"
        )
        assert isinstance(_find(hidden, Filter)[0].child, Join)

    def test_star_and_duplicate_labels_in_a_derived_table(self):
        star = _plan_with_schema(
            "SELECT name FROM (SELECT * FROM t) AS s JOIN d ON s.k = d.k WHERE v > 0"
        )
        (join,) = _find(star, Join)  # sinks to S; `*` has no label map to go deeper
        assert isinstance(join.left, Filter)
        assert isinstance(join.left.child, SubqueryBind)
        twice = _plan_with_schema(
            "SELECT name FROM (SELECT id, v, v FROM t) AS s "
            "JOIN d ON s.id = d.k WHERE v > 0"
        )
        assert isinstance(_find(twice, Filter)[0].child, Join)  # S exposes V twice

    def test_correlated_outer_reference_stays_put(self):
        # The body of a correlated subquery: V belongs to no leaf here.
        plan = _plan_with_schema(
            "SELECT 1 FROM d JOIN u ON d.k = u.id WHERE name = 'n' AND v > x"
        )
        (kept,) = _find(plan, Filter)
        assert [r.name for r in _column_refs(kept.predicate)] == ["V", "X"]
        assert _scan(plan, "D").predicate is not None

    def test_pruning_credits_a_name_only_to_scans_that_own_it(self):
        plan = _plan_with_schema(
            "SELECT id, name FROM t JOIN d ON t.k = d.k WHERE v > 0"
        )
        assert _scan(plan, "T").columns == ("ID", "K", "V")
        assert _scan(plan, "D").columns == ("K", "NAME")
        blind = _plan("SELECT id, name FROM t JOIN d ON t.k = d.k WHERE v > 0")
        assert _scan(blind, "D").columns == ("ID", "K", "NAME", "V")


# ---------------------------------------------------------------------------
# Shared row-shaping helpers
# ---------------------------------------------------------------------------


class TestSharedHelpers:
    def test_dedup_rows_keeps_first_occurrence_order(self):
        assert dedup_rows([(2,), (1,), (2,), (3,), (1,)]) == [
            (2,),
            (1,),
            (3,),
        ]

    def test_slice_rows(self):
        rows = [(i,) for i in range(6)]
        assert slice_rows(rows, None, None) == rows
        assert slice_rows(rows, 2, None) == rows[2:]
        assert slice_rows(rows, None, 3) == rows[:3]
        assert slice_rows(rows, 4, 10) == rows[4:]

    def test_combine_set_rows_semantics(self):
        left = [(1,), (2,), (2,), (3,)]
        right = [(2,), (4,)]
        assert combine_set_rows("UNION ALL", ["A"], left, ["B"], right) == (
            left + right
        )
        assert combine_set_rows("UNION", ["A"], left, ["B"], right) == [
            (1,),
            (2,),
            (3,),
            (4,),
        ]
        assert combine_set_rows("EXCEPT", ["A"], left, ["B"], right) == [
            (1,),
            (3,),
        ]
        assert combine_set_rows("INTERSECT", ["A"], left, ["B"], right) == [
            (2,)
        ]

    def test_combine_set_rows_width_mismatch(self):
        with pytest.raises(SqlError, match="different widths"):
            combine_set_rows("UNION", ["A", "B"], [], ["C"], [])

    def test_order_rows_by_output_positional(self):
        rows = [(2, "b"), (1, "a"), (3, "c")]
        ordered = order_rows_by_output(
            ["N", "S"],
            rows,
            [ast.OrderItem(expression=ast.Literal(1), ascending=False)],
        )
        assert ordered == [(3, "c"), (2, "b"), (1, "a")]

    def test_positional_range_error_message(self):
        with pytest.raises(
            ParseError, match=r"ORDER BY position 4 is out of range"
        ):
            order_rows_by_output(
                ["N"],
                [(1,)],
                [ast.OrderItem(expression=ast.Literal(4), ascending=True)],
            )


# ---------------------------------------------------------------------------
# Differential: rewrites on vs off on both engines
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def engines():
    catalog = Catalog()
    db2 = Db2Engine(catalog)
    accelerator = AcceleratorEngine(catalog, accelerator_shards(), slice_count=2, chunk_rows=32)
    from repro.sql.types import DOUBLE, INTEGER, VarcharType

    t_schema = TableSchema(
        [
            Column("ID", INTEGER, nullable=False),
            Column("K", INTEGER),
            Column("V", DOUBLE),
        ]
    )
    d_schema = TableSchema(
        [Column("K", INTEGER, nullable=False), Column("NAME", VarcharType(8))]
    )
    import random

    rng = random.Random(5)
    t_rows = [
        (
            i,
            None if i % 9 == 0 else rng.randint(0, 5),
            None if i % 6 == 0 else round(rng.uniform(-40, 40), 2),
        )
        for i in range(320)
    ]
    d_rows = [(k, f"name{k}") for k in range(4)]
    for name, schema, rows in (
        ("T", t_schema, t_rows),
        ("D", d_schema, d_rows),
    ):
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
    return db2, accelerator


REWRITE_CORPUS = [
    # NULL-heavy predicates (3VL must survive pushdown).
    "SELECT id FROM t WHERE v IS NULL ORDER BY id",
    "SELECT id FROM t WHERE NOT (v > 0) ORDER BY id",
    "SELECT id FROM t WHERE v > 0 OR v IS NULL ORDER BY id LIMIT 20",
    "SELECT COUNT(*) FROM t WHERE COALESCE(v, -1) < 0",
    # Constant folding.
    "SELECT id FROM t WHERE 1 = 1 AND id < 5 ORDER BY id",
    "SELECT id FROM t WHERE 1 = 0 AND id < 5",
    "SELECT id, 1 + 2 * 3 FROM t ORDER BY 2, 1 LIMIT 3",
    "SELECT id FROM t ORDER BY 1 + 0 LIMIT 3",
    # Pushdown through joins, including USING columns.
    "SELECT t.id, d.name FROM t JOIN d USING (k) "
    "WHERE t.v > 0 AND d.name LIKE 'n%' ORDER BY t.id LIMIT 25",
    "SELECT t.id FROM t LEFT JOIN d ON t.k = d.k "
    "WHERE t.v > 0 ORDER BY t.id LIMIT 25",
    "SELECT t.id FROM t RIGHT JOIN d ON t.k = d.k "
    "WHERE d.name = 'name2' ORDER BY t.id LIMIT 25",
    # Derived tables (pushdown + pruning through SubqueryBind).
    "SELECT sub.id FROM (SELECT id, v FROM t) AS sub "
    "WHERE sub.v > 0 ORDER BY sub.id LIMIT 25",
    "SELECT sub.id, sub.w FROM (SELECT id, v * 2 AS w FROM t) AS sub "
    "WHERE sub.w > 10 ORDER BY sub.id LIMIT 25",
    # Correlated subqueries (never pushed, must stay correct).
    "SELECT id FROM t WHERE EXISTS (SELECT 1 FROM d WHERE d.k = t.k) "
    "ORDER BY id LIMIT 25",
    "SELECT id FROM t o WHERE v > (SELECT AVG(i.v) FROM t i "
    "WHERE i.k = o.k) ORDER BY id LIMIT 25",
    # Set operations over rewritten operands.
    "SELECT k FROM t WHERE v > 0 UNION SELECT k FROM d ORDER BY 1",
    "SELECT k FROM t EXCEPT SELECT k FROM d ORDER BY 1",
    "SELECT k FROM t INTERSECT SELECT k FROM d ORDER BY 1",
]


def _run_both(db2, accelerator, stmt, plan):
    txn = db2.txn_manager.begin()
    try:
        __, db2_rows = db2.execute_select(txn, stmt, plan=plan)
    finally:
        db2.commit(txn)
    __, accel_rows = accelerator.execute_select(stmt, plan=plan)
    return db2_rows, accel_rows


@pytest.mark.parametrize("sql", REWRITE_CORPUS, ids=lambda q: q[:60])
def test_rewrites_preserve_results_on_corpus(engines, sql):
    db2, accelerator = engines
    stmt = parse_statement(sql)
    results = {}
    for label, rewrite in (("off", False), ("on", True)):
        plan = plan_statement(stmt, rewrite=rewrite)
        results[label] = _run_both(db2, accelerator, stmt, plan)
    db2_off, accel_off = results["off"]
    db2_on, accel_on = results["on"]
    if getattr(stmt, "order_by", None):
        assert repr(db2_on) == repr(db2_off) == repr(accel_on) == repr(
            accel_off
        ), sql
    else:
        expected = sorted(map(repr, db2_off))
        for rows in (db2_on, accel_off, accel_on):
            assert sorted(map(repr, rows)) == expected, sql


def test_positional_order_error_identical_on_both_engines(engines):
    db2, accelerator = engines
    sql = "SELECT id FROM t ORDER BY 3"
    message = r"ORDER BY position 3 is out of range"
    txn = db2.txn_manager.begin()
    try:
        with pytest.raises(ParseError, match=message):
            db2.execute_select(txn, parse_statement(sql))
    finally:
        db2.commit(txn)
    with pytest.raises(ParseError, match=message):
        accelerator.execute_select(parse_statement(sql))


def test_set_op_width_error_identical_on_both_engines(engines):
    db2, accelerator = engines
    sql = "SELECT id, k FROM t UNION SELECT k FROM d"
    message = r"set operation operands have different widths"
    txn = db2.txn_manager.begin()
    try:
        with pytest.raises(SqlError, match=message):
            db2.execute_select(txn, parse_statement(sql))
    finally:
        db2.commit(txn)
    with pytest.raises(SqlError, match=message):
        accelerator.execute_select(parse_statement(sql))


def test_pushdown_reduces_rows_scanned(engines):
    """Pushing the outer predicate into the derived table's scan lets the
    zone maps skip chunks: fewer rows materialised for the same answer."""
    __, accelerator = engines
    sql = (
        "SELECT sub.id FROM (SELECT id, v FROM t) AS sub "
        "WHERE sub.id > 280 ORDER BY sub.id"
    )
    stmt = parse_statement(sql)

    def scanned(rewrite):
        before = accelerator.rows_scanned
        __, rows = accelerator.execute_select(
            stmt, plan=plan_statement(stmt, rewrite=rewrite)
        )
        assert [r[0] for r in rows] == list(range(281, 320))
        return accelerator.rows_scanned - before

    full = scanned(False)
    pruned = scanned(True)
    assert pruned < full
    assert full == 320  # rewrite off: the inner scan reads every row


# ---------------------------------------------------------------------------
# Differential: schema-aware pushdown on vs off, both engines
# ---------------------------------------------------------------------------

_ENGINE_SCHEMAS = {"T": ["ID", "K", "V"], "D": ["K", "NAME"]}

UNQUALIFIED_CORPUS = [
    "SELECT id, name FROM t JOIN d ON t.k = d.k WHERE v > 0",
    "SELECT name, COUNT(*), SUM(v) FROM t JOIN d ON t.k = d.k "
    "WHERE v > 0 AND name <> 'name1' GROUP BY name ORDER BY name",
    "SELECT id, name FROM t LEFT JOIN d ON t.k = d.k WHERE v > 0 AND id < 90",
    "SELECT id, name FROM t LEFT JOIN d ON t.k = d.k WHERE name IS NULL AND id < 60",
    "SELECT id, name FROM t RIGHT JOIN d ON t.k = d.k WHERE name = 'name2' AND id < 90",
    "SELECT name, w FROM (SELECT k, v * 2 AS w FROM t) AS s JOIN d ON s.k = d.k "
    "WHERE w > 60",
    "SELECT name FROM (SELECT * FROM t) AS s JOIN d ON s.k = d.k WHERE v > 35",
    "SELECT a.id, b.id FROM t a JOIN t b ON a.id = b.id + 300 JOIN d ON a.k = d.k "
    "WHERE name = 'name3'",
    # Correlated: the subquery's unqualified V is the outer row's.
    "SELECT id FROM t WHERE EXISTS (SELECT 1 FROM d JOIN d e ON d.k = e.k "
    "WHERE d.k = t.k AND v > 30) ORDER BY id",
]


@pytest.mark.parametrize("sql", UNQUALIFIED_CORPUS, ids=lambda q: q[:60])
def test_schema_aware_rewrites_preserve_rows_and_order(engines, sql):
    db2, accelerator = engines
    stmt = parse_statement(sql)
    plan_off = plan_statement(stmt, rewrite=False)
    plan_blind = plan_statement(stmt)
    plan_on = plan_statement(stmt, table_columns=_ENGINE_SCHEMAS.get)
    expected, accel_off = _run_both(db2, accelerator, stmt, plan_off)
    assert expected, sql  # every corpus query returns rows
    assert repr(accel_off) == repr(expected), sql
    for plan in (plan_blind, plan_on):
        db2_rows, accel_rows = _run_both(db2, accelerator, stmt, plan)
        assert repr(db2_rows) == repr(accel_rows) == repr(expected), sql


@pytest.mark.parametrize(
    "where, message",
    [
        ("k > 1", "ambiguous column reference K"),
        ("v > 0 AND k > 1", "ambiguous column reference K"),
        ("nope > 1", "unknown column NOPE"),
        ("t.nope > 1", "unknown column T.NOPE"),
    ],
)
def test_unresolvable_names_raise_the_same_error_either_way(engines, where, message):
    db2, accelerator = engines
    stmt = parse_statement(f"SELECT t.id FROM t JOIN d ON t.k = d.k WHERE {where}")
    for plan in (
        plan_statement(stmt, rewrite=False),
        plan_statement(stmt),
        plan_statement(stmt, table_columns=_ENGINE_SCHEMAS.get),
    ):
        txn = db2.txn_manager.begin()
        try:
            with pytest.raises(ParseError, match=message):
                db2.execute_select(txn, stmt, plan=plan)
        finally:
            db2.commit(txn)
        with pytest.raises(ParseError, match=message):
            accelerator.execute_select(stmt, plan=plan)


def test_explain_shows_the_pushed_predicate_and_honest_column_counts():
    """The system hands the catalog to the planner: the star templates'
    unqualified WHERE sinks into the fact scan, views included, and a
    scan is charged only for columns it owns."""
    from repro import AcceleratedDatabase
    from repro.workloads import create_star_schema

    db = AcceleratedDatabase()
    conn = db.connect()
    create_star_schema(conn, customers=40, products=8, transactions=300)
    conn.execute(
        "CREATE VIEW big_spenders AS SELECT c_id, c_segment FROM customers "
        "WHERE c_income > 0"
    )

    def plan_lines(sql):
        rows = conn.execute("EXPLAIN " + sql).rows
        return [str(r[1]).strip() for r in rows if r[0] == "PLAN"]

    lines = plan_lines(
        "SELECT c_segment, p_category, COUNT(*), SUM(t_amount) "
        "FROM transactions t JOIN customers c ON t.t_customer = c.c_id "
        "JOIN products p ON t.t_product = p.p_id WHERE t_amount > 50 "
        "GROUP BY c_segment, p_category ORDER BY c_segment, p_category"
    )
    assert not any(line.startswith("Filter") for line in lines), lines
    assert "Scan [TRANSACTIONS AS T cols=3 pushed-predicate]" in lines
    assert "Scan [CUSTOMERS AS C cols=2]" in lines
    assert "Scan [PRODUCTS AS P cols=2]" in lines
    lines = plan_lines(
        "SELECT c_segment, COUNT(*) FROM transactions t JOIN big_spenders b "
        "ON t.t_customer = b.c_id WHERE t_amount > 50 AND c_segment <> 'x' "
        "GROUP BY c_segment"
    )
    assert not any(line.startswith("Filter") for line in lines), lines
    assert sum("pushed-predicate" in line for line in lines) == 2, lines
