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
from repro.sql import ast, parse_statement
from repro.sql.logical import (
    Aggregate,
    Filter,
    Limit,
    PlanNode,
    Project,
    Scan,
    Sort,
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
    accelerator = AcceleratorEngine(catalog, slice_count=2, chunk_rows=32)
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
