"""Columnar landing: every bulk write appends columns, never coerced rows.

Three differentials, each against the row-at-a-time path it replaced:

* storage — ``ColumnStoreTable.append_columns`` builds the same table,
  array for array, as the former row loop (kept in ``tests/oracles``);
* types — ``TableSchema.coerce_columns`` / ``coerce_rows`` return what
  packing ``[coerce_row(r) …]`` returns and raise what it raises;
* statements — ``INSERT … SELECT``, CTAS, procedure output and the loader
  land the rows DB2 computes, move the bytes they moved before, and never
  call ``coerce_row`` when the source is already columnar.
"""

from __future__ import annotations

import datetime
import decimal
import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import AcceleratedDatabase, IdaaLoader
from repro.catalog import Column, TableSchema
from repro.catalog.schema import columns_from_rows, pack_rows
from repro.errors import InjectedCrashError, ReproError, TypeError_
from repro.federation.network import STATEMENT_OVERHEAD_BYTES
from repro.loader.sources import IterableSource
from repro.shard.placement import PartitionSpec
from repro.sql.expressions import VColumn
from repro.sql.types import (
    BIGINT,
    BOOLEAN,
    DATE,
    DOUBLE,
    INTEGER,
    SMALLINT,
    TIMESTAMP,
    CharType,
    DecimalType,
    VarcharType,
)
from repro.shard.placement import distinct_keys
from repro.storage.column_store import NEVER_DELETED, ColumnStoreTable
from tests.oracles.row_append import append_rows, append_rows_reference

# ---------------------------------------------------------------------------
# Generators: a schema over every SQL type, and coerced rows for it
# ---------------------------------------------------------------------------

_DAY = datetime.date(2015, 1, 1)
_COERCED_VALUES = {
    SMALLINT: st.integers(-(2**15), 2**15 - 1),
    INTEGER: st.integers(-5, 5),
    BIGINT: st.sampled_from([-(2**63), 2**63 - 1, 2**53 + 1, 0, 7]),
    DOUBLE: st.sampled_from([0.0, -0.0, 1.5, -2.25, float("nan"), float("inf")]),
    DecimalType(9, 2): st.sampled_from(
        [decimal.Decimal("1.50"), decimal.Decimal("-0.25"), decimal.Decimal("0.00")]
    ),
    VarcharType(8): st.sampled_from(["", "a", "bb", "abcdefgh"]),
    CharType(3): st.sampled_from(["a  ", "xyz"]),
    BOOLEAN: st.booleans(),
    DATE: st.integers(0, 3).map(lambda d: _DAY + datetime.timedelta(d)),
    TIMESTAMP: st.integers(0, 3).map(
        lambda h: datetime.datetime(2015, 1, 1, h, 30)
    ),
}
_TYPES = list(_COERCED_VALUES)


@st.composite
def schemas(draw) -> TableSchema:
    types = draw(st.lists(st.sampled_from(_TYPES), min_size=1, max_size=5))
    return TableSchema(
        [
            Column(f"C{i}", sql_type, nullable=draw(st.booleans()))
            for i, sql_type in enumerate(types)
        ]
    )


def coerced_rows(draw, schema: TableSchema, max_size: int = 24) -> list[tuple]:
    null_rate = draw(st.sampled_from([0.0, 0.3, 1.0]))
    cells = [
        st.one_of(
            st.floats(0, 1).flatmap(
                lambda p, t=column.sql_type: st.none()
                if p < null_rate
                else _COERCED_VALUES[t]
            )
        )
        if column.nullable
        else _COERCED_VALUES[column.sql_type]
        for column in schema.columns
    ]
    return draw(st.lists(st.tuples(*cells), max_size=max_size))


# ---------------------------------------------------------------------------
# Storage differential: append_columns == the former row loop
# ---------------------------------------------------------------------------


def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype.kind == "f":
        # Bit for bit: tells -0.0 from 0.0, and NaN equals NaN.
        return a.tobytes() == b.tobytes()
    return a.tolist() == b.tolist()


def assert_same_table(new: ColumnStoreTable, old: ColumnStoreTable) -> None:
    assert new.row_count == old.row_count
    assert new._next_row_id == old._next_row_id
    assert new.stored_rows == old.stored_rows
    # Same chunk count and the same ids in every chunk: each row lives
    # at the same (chunk, offset) in both tables.
    assert new.total_chunk_count == old.total_chunk_count
    for a, b in zip(new.iter_chunks(), old.iter_chunks()):
        assert _same_array(a.row_ids, b.row_ids)
        assert _same_array(a.insert_epochs, b.insert_epochs)
        assert _same_array(a.delete_epochs, b.delete_epochs)
        assert a.zone_maps == b.zone_maps
        assert list(a.columns) == list(b.columns)
        for name in a.columns:
            assert _same_array(a.columns[name], b.columns[name]), name
            if b.masks[name] is None:
                assert a.masks[name] is None, name
            else:
                assert _same_array(a.masks[name], b.masks[name]), name


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_append_columns_builds_the_table_the_row_loop_built(data):
    schema = data.draw(schemas())
    names = schema.column_names
    chunk_rows = data.draw(st.sampled_from([1, 7, 65536]))
    tables = [ColumnStoreTable(schema, chunk_rows=chunk_rows) for _ in range(3)]
    columnar, wrapper, reference = tables
    for epoch in range(1, data.draw(st.integers(1, 3)) + 1):
        rows = coerced_rows(data.draw, schema)
        # The oracle also sees numpy scalars where a value is an integer:
        # np.int64(5) and 5 must land as the same cell.
        as_numpy = data.draw(st.booleans())
        oracle_rows = [
            tuple(
                np.int64(v) if as_numpy and type(v) is int and abs(v) < 2**62 else v
                for v in row
            )
            for row in rows
        ]
        packed = list(columns_from_rows(schema, rows).values())
        ids = (
            columnar.append_columns(packed, epoch) if rows
            else np.empty(0, dtype=np.int64)
        )
        assert append_rows(wrapper, rows, epoch).tolist() == ids.tolist()
        assert (
            append_rows_reference(reference, oracle_rows, epoch).tolist()
            == ids.tolist()
        )
    assert_same_table(columnar, reference)
    assert_same_table(wrapper, reference)
    # A rewrite under preserved row ids (what GROOM does) is equal too.
    row_ids, visible = reference.read_visible(10)
    if len(row_ids):
        ordered = [visible[name] for name in names]
        boxed = list(zip(*(column.to_objects() for column in ordered)))
        fresh = [ColumnStoreTable(schema, chunk_rows=chunk_rows) for _ in range(2)]
        fresh[0].append_columns(ordered, 0, row_ids=row_ids)
        append_rows_reference(fresh[1], boxed, 0, row_ids=row_ids)
        assert_same_table(fresh[0], fresh[1])


def test_null_slots_hold_the_fill_whatever_the_source_held():
    schema = TableSchema(
        [Column("I", INTEGER), Column("F", DOUBLE), Column("S", VarcharType(4)),
         Column("B", BOOLEAN)]
    )
    mask = np.array([False, True])
    strings = np.empty(2, dtype=object)
    strings[:] = ["a", "junk"]
    table = ColumnStoreTable(schema)
    table.append_columns(
        [
            VColumn(np.array([1, 99]), mask),
            VColumn(np.array([1.0, 99.0]), mask),
            VColumn(strings, mask),
            VColumn(np.array([True, True]), mask),
        ],
        epoch=1,
    )
    (chunk,) = table.iter_chunks()
    assert chunk.columns["I"].tolist() == [1, 0]
    assert chunk.columns["F"][0] == 1.0 and np.isnan(chunk.columns["F"][1])
    assert chunk.columns["S"].tolist() == ["a", None]
    assert chunk.columns["B"].tolist() == [True, False]


def test_distinct_keys_tells_apart_what_repr_tells_apart():
    keys, inverse = distinct_keys(
        [
            VColumn(np.array([0.0, -0.0, 0.0, np.nan])),
            VColumn(np.array([1, 1, 1, 2]), np.array([False, False, True, False])),
        ]
    )
    assert [repr(k) for k in keys] == [
        "(0.0, 1)", "(-0.0, 1)", "(0.0, None)", "(nan, 2)"
    ]
    assert inverse.tolist() == [0, 1, 2, 3]
    keys, inverse = distinct_keys([VColumn(np.array([5, 7, 5, 5]))])
    assert keys == [(5,), (7,)] and inverse.tolist() == [0, 1, 0, 0]
    assert all(type(k[0]) is int for k in keys)


@pytest.mark.parametrize(
    "spec",
    [
        PartitionSpec("HASH", ("A", "S")),
        PartitionSpec("RANGE", ("A",), boundaries=(2, 5)),
        PartitionSpec("RANDOM"),
    ],
)
def test_shard_routing_of_a_batch_is_shard_for_row(spec):
    rows = [(i % 7 if i % 5 else None, "ab"[i % 2]) for i in range(40)]
    columns = pack_rows(rows)
    row_ids = np.arange(100, 140)
    positions = {"A": 0, "S": 1}
    key_positions = [positions[c] for c in spec.columns]
    for shards in (1, 2, 4):
        routed = spec.shards_for_columns(
            [columns[p] for p in key_positions], row_ids, shards
        )
        assert routed.tolist() == [
            spec.shard_for_row(row, int(row_id), key_positions, shards)
            for row, row_id in zip(rows, row_ids)
        ]


# ---------------------------------------------------------------------------
# Type differential: coerce_columns == [coerce_row(r) ...], errors included
# ---------------------------------------------------------------------------

_RAW_VALUES = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.sampled_from([2**15, 2**31, -(2**31) - 1, 2**63, 2**70]),
    st.sampled_from([1.0, -2.0, 2.5, float("nan"), float("inf"), 1e300]),
    st.booleans(),
    st.sampled_from(["1", " 7 ", "x", "", "abcdefghi", "2015-02-03", "true",
                     "2015-02-03 04:05:06", "1.25"]),
    st.sampled_from([decimal.Decimal("1.005"), decimal.Decimal("12345678.9")]),
    st.just(_DAY),
    st.just(datetime.datetime(2015, 1, 1, 2, 3)),
)


def _row_path(schema, rows, names):
    if names is None:
        return [schema.coerce_row(row) for row in rows]
    return [schema.coerce_partial(names, row) for row in rows]


def _assert_same_outcome(schema, rows, names, coerce) -> None:
    """``coerce()`` gives what packing the row path's rows gives, or
    raises the row path's exception."""
    try:
        expected = _row_path(schema, rows, names)
    except Exception as error:  # DECIMAL lets a raw TypeError out on NaN
        with pytest.raises(type(error)) as raised:
            coerce()
        assert str(raised.value) == str(error)
        return
    got = coerce()
    want = list(columns_from_rows(schema, expected).values())
    assert len(got) == len(want)
    for column, a, b in zip(schema.columns, got, want):
        assert _same_array(a.values, b.values), column.name
        assert (a.mask is None) == (b.mask is None), column.name
        if a.mask is not None:
            assert a.mask.tolist() == b.mask.tolist(), column.name


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_coerce_columns_is_coerce_row_a_column_at_a_time(data):
    schema = data.draw(schemas())
    width = data.draw(
        st.sampled_from([len(schema), len(schema), len(schema) + 1, 1])
    )
    rows = data.draw(
        st.lists(st.tuples(*[_RAW_VALUES] * width), min_size=1, max_size=6)
    )
    names = None
    if data.draw(st.booleans()):
        pool = schema.column_names + ["NOPE"]
        names = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=width + 1))
    _assert_same_outcome(
        schema, rows, names, lambda: schema.coerce_rows(rows, names)
    )
    _assert_same_outcome(
        schema, rows, names, lambda: schema.coerce_columns(pack_rows(rows), names)
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_typed_sources_take_the_exact_fast_paths(data):
    """What the executor hands over: typed arrays with a NULL mask."""
    target = data.draw(st.sampled_from([SMALLINT, INTEGER, BIGINT, DOUBLE, BOOLEAN,
                                        VarcharType(8), DecimalType(9, 2)]))
    schema = TableSchema([Column("X", target, nullable=data.draw(st.booleans()))])
    size = data.draw(st.integers(1, 8))
    source = data.draw(
        st.sampled_from(
            [
                st.integers(-(2**63), 2**63 - 1),
                st.integers(-3, 3),
                st.sampled_from([0.0, 1.0, -3.0, 2.5, 2.0**40, 2.0**63,
                                 float("nan"), float("inf")]),
                st.sampled_from([0.0, 1.0, -3.0]),
                st.booleans(),
            ]
        )
    )
    values = np.array(data.draw(st.lists(source, min_size=size, max_size=size)))
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    column = VColumn(values, mask if data.draw(st.booleans()) else None)
    rows = list(zip(column.to_objects()))
    _assert_same_outcome(
        schema, rows, None, lambda: schema.coerce_columns([column])
    )


_T3 = TableSchema(
    [
        Column("A", INTEGER, nullable=False),
        Column("B", VarcharType(3)),
        Column("C", DOUBLE),
    ]
)


@pytest.mark.parametrize(
    "rows, names, message",
    [
        ([(1, "a", 1.0), (None, "b", 2.0)], None, "column A does not accept NULL"),
        ([(2**31, "a", 1.0)], None, "value 2147483648 out of range for INTEGER"),
        ([(2.5, "a", 1.0)], None, "value 2.5 is not valid for type INTEGER"),
        ([(float("nan"), "a", 1.0)], None, "value nan is not valid for type INTEGER"),
        ([(float("inf"), "a", 1.0)], None, "value inf is not valid for type INTEGER"),
        ([(1, "abcd", 1.0)], None, "string of length 4 exceeds VARCHAR(3)"),
        ([(1, "a")], None, "expected 3 values, got 2"),
        ([(1, "a", 1.0), (2,)], None, "expected 3 values, got 1"),
        ([(1, "a")], ["A", "NOPE"], "unknown column NOPE"),
        ([(1, "a")], ["A"], "column list and value list lengths differ"),
        ([("a",)], ["B"], "column A does not accept NULL"),
        # First bad row wins, not first bad column.
        ([(1, "abcd", 1.0), (None, "a", 1.0)], None,
         "string of length 4 exceeds VARCHAR(3)"),
    ],
)
def test_violations_raise_the_row_paths_exception(rows, names, message):
    with pytest.raises(ReproError) as expected:
        _row_path(_T3, rows, names)
    assert str(expected.value) == message
    with pytest.raises(type(expected.value)) as raised:
        _T3.coerce_rows(rows, names)
    assert str(raised.value) == message
    if len({len(row) for row in rows}) == 1:
        with pytest.raises(type(expected.value)) as raised:
            _T3.coerce_columns(pack_rows(rows), names)
        assert str(raised.value) == message


def test_duplicate_names_keep_the_last_value_and_empty_batches_check_nothing():
    (a, b, c) = _T3.coerce_rows([(1, 2, "x")], ["A", "A", "B"])
    assert (a.values.tolist(), b.values.tolist(), c.mask.tolist()) == (
        [2], ["x"], [True],
    )
    assert _T3.coerce_partial(["A", "A", "B"], (1, 2, "x")) == (2, "x", None)
    # No row, no check — exactly as a loop over zero rows.
    for empty in (_T3.coerce_rows([], ["NOPE"]),
                  _T3.coerce_columns([VColumn(np.empty(0))])):
        assert [len(column) for column in empty] == [0, 0, 0]
        assert [column.values.dtype.kind for column in empty] == ["i", "O", "f"]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_columns_byte_size_is_the_sum_of_row_byte_sizes(data):
    schema = data.draw(schemas())
    rows = coerced_rows(data.draw, schema)
    columns = list(columns_from_rows(schema, rows).values())
    assert schema.columns_byte_size(columns) == sum(
        schema.row_byte_size(row) for row in rows
    )


# ---------------------------------------------------------------------------
# Statement differential
# ---------------------------------------------------------------------------

SHARD_COUNTS = [1, 2, 4]


def _system(shards: int):
    db = AcceleratedDatabase(shards=shards, slice_count=2, chunk_rows=8)
    conn = db.connect()
    conn.execute(
        "CREATE TABLE SRC (ID INTEGER NOT NULL PRIMARY KEY, G INTEGER, "
        "V DOUBLE, S VARCHAR(8), D DATE)"
    )
    conn.execute(
        "INSERT INTO SRC VALUES "
        + ", ".join(
            f"({i}, {'NULL' if i % 7 == 0 else i % 4}, {i}.5, "
            f"{'NULL' if i % 5 == 0 else repr('s' + str(i % 3))}, "
            f"'2015-01-{1 + i % 9:02d}')"
            for i in range(40)
        )
    )
    db.add_table_to_accelerator("SRC")
    conn.execute(
        "CREATE TABLE AOT (ID INTEGER NOT NULL, G INTEGER, V DOUBLE, "
        "S VARCHAR(8), D DATE) IN ACCELERATOR"
    )
    return db, conn


def _table_rows(db, name: str) -> list[tuple]:
    return sorted(db.accelerator.snapshot_rows(name), key=repr)


def _movement(db):
    snapshot = db.interconnect.snapshot()
    return (snapshot.bytes_to_accelerator, snapshot.bytes_from_accelerator,
            snapshot.messages)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
class TestStatementsLandWhatDb2Computes:
    def test_insert_select_with_a_column_list(self, shards):
        db, conn = _system(shards)
        select = "SELECT v * 2, id, s FROM src WHERE g IS NOT NULL"
        conn.set_acceleration("NONE")
        db2_rows = conn.execute(select).rows
        conn.set_acceleration("ENABLE")
        result = conn.execute(f"INSERT INTO AOT (V, ID, S) {select}")
        schema = db.catalog.table("AOT").schema
        expected = [schema.coerce_partial(["V", "ID", "S"], r) for r in db2_rows]
        assert result.rowcount == len(expected) == 34
        assert _table_rows(db, "AOT") == sorted(expected, key=repr)

    def test_zero_row_sub_select_moves_only_the_statement(self, shards):
        db, conn = _system(shards)
        before = _movement(db)
        result = conn.execute("INSERT INTO AOT SELECT * FROM src WHERE id < 0")
        sent, received, messages = (
            b - a for a, b in zip(before, _movement(db))
        )
        assert result.rowcount == 0 and _table_rows(db, "AOT") == []
        assert (sent, received, messages) == (STATEMENT_OVERHEAD_BYTES, 0, 1)

    def test_db2_side_sub_select_pays_the_crossing(self, shards):
        db, conn = _system(shards)
        conn.execute("CREATE TABLE LOCAL (ID INTEGER NOT NULL, S VARCHAR(8))")
        conn.execute("INSERT INTO LOCAL VALUES (1, 'ab'), (2, NULL), (3, 'xyz')")
        before = _movement(db)
        conn.execute("INSERT INTO AOT (ID, S) SELECT id, s FROM local")
        sent, received, messages = (
            b - a for a, b in zip(before, _movement(db))
        )
        schema = db.catalog.table("AOT").schema
        rows = [schema.coerce_partial(["ID", "S"], r)
                for r in [(1, "ab"), (2, None), (3, "xyz")]]
        payload = sum(schema.row_byte_size(row) for row in rows)
        assert conn.execute("SELECT COUNT(*) FROM aot").scalar() == 3
        assert _table_rows(db, "AOT") == sorted(rows, key=repr)
        assert (sent, received, messages) == (
            payload + STATEMENT_OVERHEAD_BYTES, 0, 1
        )

    def test_rollback_lands_nothing_and_own_writes_are_visible_before(self, shards):
        db, conn = _system(shards)
        conn.execute("BEGIN")
        conn.execute("INSERT INTO AOT SELECT * FROM src WHERE id < 10")
        assert conn.execute("SELECT COUNT(*), SUM(v) FROM aot").rows == [(10, 50.0)]
        other = db.connect()
        assert other.execute("SELECT COUNT(*) FROM aot").scalar() == 0
        conn.execute("ROLLBACK")
        assert _table_rows(db, "AOT") == []
        conn.execute("BEGIN")
        conn.execute("INSERT INTO AOT SELECT * FROM src WHERE id < 10")
        conn.execute("COMMIT")
        assert len(_table_rows(db, "AOT")) == 10

    def test_fault_mid_build_leaves_nothing_durable(self, shards):
        db, conn = _system(shards)
        db.faults.arm_crash_point("aot.mid_build")
        epoch = db.accelerator.current_epoch
        with pytest.raises(InjectedCrashError):
            conn.execute("INSERT INTO AOT SELECT * FROM src")
        assert _table_rows(db, "AOT") == []
        assert db.accelerator.current_epoch == epoch
        db.faults.clear_crash_points()
        conn.execute("INSERT INTO AOT SELECT * FROM src")
        assert len(_table_rows(db, "AOT")) == 40

    def test_coercion_failure_is_the_row_paths_and_lands_nothing(self, shards):
        db, conn = _system(shards)
        conn.execute("CREATE TABLE NARROW (ID SMALLINT NOT NULL, S VARCHAR(2)) IN ACCELERATOR")
        with pytest.raises(TypeError_) as raised:
            conn.execute("INSERT INTO NARROW SELECT id * 1000, s FROM src")
        assert str(raised.value) == "value 33000 out of range for SMALLINT"
        assert _table_rows(db, "NARROW") == []


def _forbid_coerce_row(monkeypatch):
    def forbidden(self, values):
        raise AssertionError("coerce_row ran on a columnar landing")

    monkeypatch.setattr(TableSchema, "coerce_row", forbidden)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_columnar_sources_never_reach_coerce_row(shards, monkeypatch):
    db, conn = _system(shards)
    conn.execute("GRANT SELECT ON SRC TO SYSADM")
    _forbid_coerce_row(monkeypatch)
    conn.execute("INSERT INTO AOT SELECT * FROM src")
    conn.execute("CREATE TABLE COPY AS (SELECT id, v FROM aot) IN ACCELERATOR")
    conn.execute(
        "CALL INZA.SPLIT_DATA('intable=AOT, traintable=TR, testtable=TE, "
        "fraction=0.5, randseed=3')"
    )
    report = IdaaLoader(db, batch_size=16).load(
        IterableSource(
            [(i, None, 1.5, "x", "2015-03-04") for i in range(40)],
            ["ID", "G", "V", "S", "D"],
        ),
        "AOT",
        conn,
    )
    assert report.rows == 40 and report.batches == 3
    assert conn.execute("SELECT COUNT(*) FROM aot").scalar() == 80
    assert conn.execute("SELECT COUNT(*) FROM copy").scalar() == 40
    train = conn.execute("SELECT COUNT(*) FROM tr").scalar()
    assert train == 20 and conn.execute("SELECT COUNT(*) FROM te").scalar() == 20


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_insert_select_boxes_no_rows(shards, monkeypatch):
    from repro.accelerator.vtable import VTable

    boxed: list[int] = []
    original = VTable.to_rows

    def counting(self):
        rows = original(self)
        boxed.append(len(rows))
        return rows

    monkeypatch.setattr(VTable, "to_rows", counting)
    db, conn = _system(shards)
    conn.execute("INSERT INTO AOT SELECT * FROM src")
    conn.execute("CREATE TABLE COPY AS (SELECT id, v FROM aot) IN ACCELERATOR")
    assert boxed == []
    assert conn.execute("SELECT COUNT(*) FROM copy").rows == [(40,)]
    assert boxed == [1]


def test_a_landing_keeps_only_the_rows_columns():
    """An ``INSERT INTO aot SELECT`` keeps its rows' arrays and nothing per
    row beside them: ID, V, row id and the two epochs are 40 bytes."""
    rows = 20_000
    db = AcceleratedDatabase(shards=1)
    conn = db.connect()
    for name in ("SRC", "DST"):
        conn.execute(f"CREATE TABLE {name} (ID INTEGER, V DOUBLE) IN ACCELERATOR")
    for low in range(0, rows, 5_000):
        conn.execute(
            "INSERT INTO SRC VALUES "
            + ", ".join(f"({i}, {i * 0.5})" for i in range(low, low + 5_000))
        )
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        conn.execute("INSERT INTO DST SELECT id, v FROM src")
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert db.accelerator.storage_for("DST").row_count == rows
    assert retained / rows <= 64


# ---------------------------------------------------------------------------
# GROOM: one body, columns in, columns out
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_groom_rewrites_the_visible_columns_under_their_row_ids(shards):
    db, conn = _system(shards)
    conn.execute("INSERT INTO AOT SELECT * FROM src")
    for i in range(5):
        conn.execute(f"INSERT INTO AOT VALUES ({100 + i}, 1, 0.5, NULL, NULL)")
    conn.execute("DELETE FROM aot WHERE id % 3 = 0")
    conn.execute("UPDATE aot SET v = v + 1 WHERE g = 2")
    table = db.accelerator.storage_for("AOT")
    epoch = db.accelerator.current_epoch
    ids_before, columns_before = table.read_visible(epoch)
    names = table.schema.column_names
    rows_before = list(zip(*(columns_before[n].to_objects() for n in names)))
    # One chunk sequence in row-id order, for the table and every part.
    assert np.all(np.diff(ids_before) > 0)
    stores = table.parts
    stored = sum(len(chunk) for chunk in table.iter_chunks())
    chunks_before = table.total_chunk_count
    # What the former implementation built, store by store: the same
    # rows, boxed and appended one by one under their ids — and, with no
    # transaction open, under the insert epochs they had.
    expected = []
    for store in stores:
        ids, columns = store.read_visible(epoch)
        reference = ColumnStoreTable(store.schema, chunk_rows=store.chunk_rows)
        inserts = np.concatenate(
            [c.insert_epochs[c.visible_mask(epoch)] for c in store.iter_chunks()]
        )
        append_rows_reference(
            reference,
            list(zip(*(columns[n].to_objects() for n in names))),
            0,
            row_ids=ids,
            versions=(inserts, np.full(len(inserts), NEVER_DELETED)),
        )
        expected.append(reference)

    stats = db.accelerator.groom("AOT")

    groomed = db.accelerator.storage_for("AOT")
    assert groomed is not table
    assert (stats.rows_reclaimed, stats.chunks_before, stats.chunks_after) == (
        stored - len(ids_before),
        chunks_before,
        sum(reference.total_chunk_count for reference in expected),
    )
    ids_after, columns_after = groomed.read_visible(db.accelerator.current_epoch)
    assert ids_after.tolist() == ids_before.tolist()
    assert list(zip(*(columns_after[n].to_objects() for n in names))) == rows_before
    assert groomed._next_row_id == table._next_row_id
    for store, reference in zip(groomed.parts, expected):
        assert_same_table(store, reference)
