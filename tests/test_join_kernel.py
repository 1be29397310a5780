"""The accelerator's one pairing kernel against the row engine's hash join.

Every equi-join on the accelerator goes through ``_equi_pairs``: keys are
coded over both sides at once (small-span integers by ``key - min``,
everything else ranked or hashed) and matched by direct addressing. The
row engine's dict-of-tuples hash join is the contract: same rows, same
*order* (left-major, right matches ascending), no ORDER BY needed. Each
query here runs on both engines from the rewritten plan and from the raw
bound plan; all four results must be byte-identical.
"""

from __future__ import annotations

import datetime
import decimal
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accelerator import AcceleratorEngine
from repro.accelerator.executor import _SLOTS_PER_ROW, _equi_pairs, _joint_codes
from repro.catalog import Catalog, Column, TableLocation, TableSchema
from repro.db2 import Db2Engine
from repro.federation import accelerator_shards
from repro.sql import parse_statement
from repro.sql.expressions import VColumn
from repro.sql.logical import plan_statement
from repro.sql.types import BIGINT, DATE, DOUBLE, INTEGER, DecimalType, VarcharType

DAY = datetime.date(2016, 3, 15)


def _nan():
    """A NaN of its own: the row engine's dict join finds one NaN *object*
    equal to itself (identity), which no two stored rows ever share."""
    return float("nan")



def _day(offset):
    return None if offset is None else DAY + datetime.timedelta(days=offset)


def _dec(text):
    return None if text is None else decimal.Decimal(text)


_KEYS = [
    Column("KI", INTEGER),
    Column("KB", BIGINT),
    Column("KF", DOUBLE),
    Column("KS", VarcharType(8)),
    Column("KD", DATE),
    Column("KN", DecimalType(9, 2)),
]
_L = TableSchema([Column("ID", INTEGER, nullable=False), *_KEYS, Column("TAG", VarcharType(4))])
_R = TableSchema([Column("ID", INTEGER, nullable=False), *_KEYS, Column("W", INTEGER)])

# KI: small span with gaps, duplicates on both sides and NULLs. KB: the
# int64 edges and the neighbours float64 cannot tell apart (span too wide
# to address directly, so the ranking coder runs). KF: NaN, signed zeros,
# infinity, and 2**53 as a float.
_L_ROWS = [
    (1, 3, 2**53, 1.5, "aa", _day(0), _dec("1.50"), "x"),
    (2, 3, 2**53 + 1, _nan(), "bb", _day(1), _dec("2.00"), "y"),
    (3, None, -(2**63), 0.0, None, _day(1), None, "x"),
    (4, 7, 2**63 - 1, -0.0, "aa", None, _dec("2.00"), None),
    (5, 0, None, float(2**53), "zz", _day(9), _dec("7.25"), "y"),
    (6, 9, -1, float("inf"), "b", _day(2), _dec("3.00"), "x"),
    (7, 3, 0, None, "bb", _day(0), _dec("1.50"), "y"),
    (8, 12, 2**53, 2.0, "", _day(3), _dec("0.00"), "x"),
]
_R_ROWS = [
    (10, 3, 2**53 + 1, 1.5, "bb", _day(1), _dec("2.00"), 1),
    (11, 7, 2**53, _nan(), "aa", _day(0), _dec("1.50"), 2),
    (12, 3, -(2**63), -0.0, "aa", None, _dec("2.00"), 3),
    (13, None, 2**63 - 1, float(2**53), None, _day(2), None, 4),
    (14, 0, None, 2.0, "zz", _day(1), _dec("7.25"), None),
    (15, 4, 0, None, "", _day(9), _dec("0.00"), 6),
    (16, 3, -1, float("inf"), "bb", _day(1), _dec("3.00"), 7),
    (17, 12, 2**53, 3.0, "q", _day(3), _dec("1.50"), 8),
    (18, 7, 2**53, 0.0, "aa", _day(0), _dec("9.99"), 9),
]
_TINY = TableSchema([Column("ID", INTEGER, nullable=False), Column("K", INTEGER)])

_TABLES = {
    "L": (_L, _L_ROWS),
    "R": (_R, _R_ROWS),
    "E": (_R, []),
    "T1": (_TINY, [(1, 1), (2, 2), (3, None), (4, 2)]),
    "T2": (_TINY, [(7, 2), (8, 1), (9, 2)]),
}


@pytest.fixture(scope="module")
def engines():
    catalog = Catalog()
    db2 = Db2Engine(catalog)
    accelerator = AcceleratorEngine(catalog, accelerator_shards(), slice_count=2, chunk_rows=4)
    for name, (schema, rows) in _TABLES.items():
        descriptor = catalog.create_table(
            name, schema, location=TableLocation.ACCELERATED
        )
        db2.create_storage(descriptor)
        accelerator.create_storage(descriptor)
        coerced = [schema.coerce_row(row) for row in rows]
        txn = db2.txn_manager.begin()
        db2.insert_rows(txn, name, coerced, already_coerced=True)
        db2.commit(txn)
        accelerator.bulk_insert(name, coerced)
    return db2, accelerator


def _table_columns(name):
    return _TABLES[name.upper()][0].column_names


def _table_rows(name):
    return len(_TABLES[name.upper()][1])


def _run(engines, sql, plan):
    db2, accelerator = engines
    stmt = parse_statement(sql)
    txn = db2.txn_manager.begin()
    try:
        __, db2_rows = db2.execute_select(txn, stmt, plan=plan)
    finally:
        db2.commit(txn)
    __, accel_rows = accelerator.execute_select(stmt, plan=plan)
    return list(db2_rows), list(accel_rows)


def _assert_four_way(engines, sql):
    """DB2 ≡ accelerator, rewritten ≡ raw plan; returns the rows."""
    stmt = parse_statement(sql)
    plan_on = plan_statement(
        stmt, table_rows=_table_rows, table_columns=_table_columns
    )
    db2_on, accel_on = _run(engines, sql, plan_on)
    db2_off, accel_off = _run(engines, sql, plan_statement(stmt, rewrite=False))
    # repr, not ==: NaN is unequal to itself, and 1 == 1.0 == True.
    assert repr(accel_on) == repr(db2_on), sql
    assert repr(accel_off) == repr(db2_on), sql
    assert repr(db2_off) == repr(db2_on), sql
    return db2_on


_JOINS = ["JOIN", "LEFT JOIN", "RIGHT JOIN"]
_ON = [
    # one key column of every type
    "l.ki = r.ki",
    "l.kb = r.kb",
    "l.kf = r.kf",
    "l.ks = r.ks",
    "l.kd = r.kd",
    "l.kn = r.kn",
    # mixed kinds compare as Python does: exactly, or not at all
    "l.ki = r.kf",
    "l.kf = r.kb",
    "l.kb = r.kf",
    "l.ki = r.kn",
    "l.kn = r.kf",
    "l.ks = r.kd",
    # key expressions, either way round
    "l.ki + 4 = r.ki",
    "r.ki = l.ki * 1",
    # several columns, with NULL parts
    "l.ki = r.ki AND l.ks = r.ks",
    "l.kb = r.kb AND l.kf = r.kf",
    "l.kd = r.kd AND l.kn = r.kn AND l.ki = r.ki",
    "l.ks = r.ks AND l.kb = r.kb AND l.kd = r.kd",
]
_RESIDUALS = ["", " AND l.id + r.id > 14", " AND r.w <> 3", " AND l.tag = 'x'"]


@pytest.mark.parametrize("on", _ON)
@pytest.mark.parametrize("join", _JOINS)
def test_join_matrix_rows_and_order(engines, join, on):
    for residual in _RESIDUALS:
        _assert_four_way(
            engines, f"SELECT l.id, r.id FROM l {join} r ON {on}{residual}"
        )


def test_matrix_is_not_vacuous(engines):
    """The corpus really has matches, duplicates, NULLs and misses."""
    rows = _assert_four_way(engines, "SELECT l.id, r.id FROM l JOIN r ON l.ki = r.ki")
    assert rows[:3] == [(1, 10), (1, 12), (1, 16)]  # left-major, right ascending
    assert len(rows) == 13
    rows = _assert_four_way(
        engines, "SELECT l.id, r.id FROM l LEFT JOIN r ON l.ks = r.ks"
    )
    assert (3, None) in rows and (6, None) in rows and (8, 15) in rows


def test_nan_null_and_signed_zero_keys(engines):
    rows = _assert_four_way(engines, "SELECT l.id, r.id FROM l JOIN r ON l.kf = r.kf")
    assert rows == [
        (1, 10), (3, 12), (3, 18), (4, 12), (4, 18), (5, 13), (6, 16), (8, 14),
    ]  # NaN = NaN and NULL = NULL match nothing; 0.0 = -0.0 does


def test_bigint_edges_and_span_too_wide(engines):
    rows = _assert_four_way(engines, "SELECT l.id, r.id FROM l JOIN r ON l.kb = r.kb")
    assert rows == [
        (1, 11), (1, 17), (1, 18), (2, 10), (3, 12), (4, 13), (6, 16), (7, 15),
        (8, 11), (8, 17), (8, 18),
    ]


def test_integer_double_keys_compare_exactly(engines):
    """2**53 + 1 (BIGINT) is not 2**53 (DOUBLE), whatever float64 thinks."""
    rows = _assert_four_way(engines, "SELECT l.id, r.id FROM l JOIN r ON l.kb = r.kf")
    assert rows == [(1, 13), (7, 12), (7, 18), (8, 13)]
    rows = _assert_four_way(engines, "SELECT l.id, r.id FROM l JOIN r ON l.kf = r.kb")
    assert rows == [(3, 15), (4, 15), (5, 11), (5, 17), (5, 18)]


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT l.id, e.id FROM l JOIN e ON l.ki = e.ki",
        "SELECT l.id, e.id FROM e JOIN l ON l.ks = e.ks",
        "SELECT l.id, e.id FROM l LEFT JOIN e ON l.ki = e.ki AND e.w > 1",
        "SELECT l.id, e.id FROM e RIGHT JOIN l ON l.kd = e.kd",
        "SELECT l.id, e.id FROM e LEFT JOIN l ON l.kb = e.kb",
        "SELECT a.id, b.id FROM e a JOIN e b ON a.ki = b.ki AND a.ks = b.ks",
    ],
)
def test_empty_sides(engines, sql):
    _assert_four_way(engines, sql)


def test_group_by_over_joined_dimension_columns(engines):
    """Codes computed on the dimension ride the gather into GROUP BY and
    ORDER BY; the answer is the row engine's."""
    for sql in (
        "SELECT r.ks, l.tag, COUNT(*), MIN(l.kb), MAX(l.kb) FROM l JOIN r "
        "ON l.ki = r.ki GROUP BY r.ks, l.tag",
        "SELECT r.ks, COUNT(*) FROM l LEFT JOIN r ON l.ki = r.ki "
        "GROUP BY r.ks ORDER BY r.ks DESC",
        "SELECT r.kd, r.ks FROM l JOIN r ON l.ki = r.ki ORDER BY r.kd, r.ks DESC",
    ):
        _assert_four_way(engines, sql)


@pytest.mark.parametrize("join", _JOINS)
def test_nested_loop_cutover_is_byte_identical(engines, join):
    """No estimate cuts a tiny join over to a nested loop: two tiny
    tables run the pairing kernel like any other equi-join, and its rows
    and their order are the row engine's."""
    sql = f"SELECT a.id, b.id FROM t1 a {join} t2 b ON a.k = b.k"
    stmt = parse_statement(sql)
    plan = plan_statement(stmt, table_rows=_table_rows, table_columns=_table_columns)
    db2_rows, accel_rows = _run(engines, sql, plan)
    assert accel_rows == db2_rows
    if join == "JOIN":
        assert accel_rows == [(1, 8), (2, 7), (2, 9), (4, 7), (4, 9)]


@pytest.mark.parametrize("join", _JOINS)
def test_joins_without_an_equi_key_are_nested_loops(engines, join):
    """A condition with no equi-key conjunct (a range, or an OR over
    equalities) runs each engine's nested loop; rows and order agree."""
    rows = _assert_four_way(
        engines, f"SELECT a.id, b.id FROM t1 a {join} t2 b ON a.k < b.k"
    )
    if join == "JOIN":
        assert rows == [(1, 7), (1, 9)]
    rows = _assert_four_way(
        engines,
        f"SELECT a.id, b.id FROM t1 a {join} t2 b ON a.k = b.k OR a.id = 3",
    )
    if join == "JOIN":
        assert rows == [(1, 8), (2, 7), (2, 9), (3, 7), (3, 8), (3, 9), (4, 7), (4, 9)]


# ---------------------------------------------------------------------------
# The kernel itself against the per-row loop it replaced
# ---------------------------------------------------------------------------


def _reference_pairs(left_keys, right_keys):
    """The build-right dict join over boxed key tuples."""
    def tuples(columns):
        rows = zip(*(column.to_objects() for column in columns))
        return [None if any(p is None for p in row) else row for row in rows]

    build: dict[tuple, list[int]] = {}
    for index, key in enumerate(tuples(right_keys)):
        if key is not None:
            build.setdefault(key, []).append(index)
    pairs = []
    for index, key in enumerate(tuples(left_keys)):
        for match in build.get(key, ()) if key is not None else ():
            pairs.append((index, match))
    return pairs


_INTS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([2**53, 2**53 + 1, 2**63 - 1, -(2**63), 2**62]),
)
_FLOATS = st.sampled_from(
    [_nan(), 0.0, -0.0, 1.0, 2.5, -3.0, float(2**53), 2.0**63, -(2.0**63), float("inf")]
)
_TEXTS = st.sampled_from(["a", "b", "", "zz", DAY, _dec("1.0"), 1, 2.5])


@st.composite
def _key_pair(draw, left_len, right_len):
    """One key column for each side; kinds may differ across the sides."""
    def column(length):
        values = draw(
            st.one_of(
                st.lists(_INTS, min_size=length, max_size=length),
                st.lists(_FLOATS, min_size=length, max_size=length),
                st.lists(_TEXTS, min_size=length, max_size=length),
                st.lists(st.booleans(), min_size=length, max_size=length),
            )
        )
        nulls = draw(st.lists(st.booleans(), min_size=length, max_size=length))
        if draw(st.booleans()):
            values = [None if null else v for v, null in zip(values, nulls)]
        col = VColumn.from_objects(values)
        if col.values.dtype != object and draw(st.booleans()) and length:
            # An object carrier of numbers, as DECIMAL arithmetic yields.
            col = VColumn(np.array(col.to_objects(), dtype=object), col.mask)
        return col

    return column(left_len), column(right_len)


@st.composite
def _key_columns(draw):
    left_len = draw(st.integers(0, 9))
    right_len = draw(st.integers(0, 9))
    width = draw(st.sampled_from([1, 1, 2, 3, 12]))
    pairs = [draw(_key_pair(left_len, right_len)) for _ in range(width)]
    return [p[0] for p in pairs], [p[1] for p in pairs]


@settings(max_examples=400, deadline=None)
@given(keys=_key_columns())
def test_equi_pairs_matches_reference_loop(keys):
    left_keys, right_keys = keys
    left, right = _equi_pairs(left_keys, right_keys)
    assert left.dtype == right.dtype == np.int64
    assert list(zip(left.tolist(), right.tolist())) == _reference_pairs(
        left_keys, right_keys
    )


def test_equi_pairs_reranks_before_the_radix_overflows():
    """Twelve wide columns: the mixed radix passes 2**62 and is re-ranked,
    not wrapped."""
    rng = np.random.default_rng(7)
    base = rng.integers(-(2**62), 2**62, size=40)
    left_keys = [VColumn(base[rng.integers(0, 40, 60)]) for _ in range(12)]
    right_keys = [VColumn(col.values[::-1].copy()) for col in left_keys]
    left, right = _equi_pairs(left_keys, right_keys)
    assert list(zip(left.tolist(), right.tolist())) == _reference_pairs(
        left_keys, right_keys
    )
    assert len(left) >= 60  # every row meets at least its mirror image


def test_joint_codes_switches_coder_on_span():
    dense = VColumn(np.array([5, 7, 5, 9], dtype=np.int64))
    codes, cardinality = _joint_codes(dense, VColumn(np.array([9, 6], dtype=np.int64)))
    assert codes.tolist() == [0, 2, 0, 4, 4, 1] and cardinality == 5  # key - min
    wide = VColumn(np.array([5, 7 + _SLOTS_PER_ROW * 6, 5], dtype=np.int64))
    codes, cardinality = _joint_codes(wide, VColumn(np.array([5, 6, 7], dtype=np.int64)))
    assert codes.tolist() == [0, 3, 0, 0, 1, 2] and cardinality == 4  # ranked
    masked = VColumn(np.array([1, 0], dtype=np.int64), np.array([False, True]))
    codes, __ = _joint_codes(masked, VColumn(np.array([_nan(), 1.0, 1.5])))
    assert codes.tolist() == [0, -1, -1, 0, -1]  # NULL, NaN, 1.5: no code


def test_expanding_gather_orders_like_every_permutation(engines):
    """All orders of a three-leaf star agree (codes ride whichever gather)."""
    leaves = ["l", "r", "t2"]
    expected = None
    for a, b, c in itertools.permutations(leaves):
        on = {("l", "r"): "l.ki = r.ki", ("l", "t2"): "l.ki = t2.k", ("r", "t2"): "r.ki = t2.k"}
        first = on.get((a, b)) or on[(b, a)]
        second = " AND ".join(
            cond for pair, cond in on.items() if c in pair and cond != first
        )
        sql = (
            f"SELECT r.ks, l.tag, COUNT(*) FROM {a} JOIN {b} ON {first} "
            f"JOIN {c} ON {second} GROUP BY r.ks, l.tag ORDER BY r.ks, l.tag"
        )
        rows = _assert_four_way(engines, sql)
        expected = expected or rows
        assert rows == expected
