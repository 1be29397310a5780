"""The accelerator executor is columnar up to the result edge.

Differentials against the DB2 row engine (the oracle) for the three paths
that used to run row-at-a-time — GROUP BY group ids, ORDER BY/top-N, and
DATE/TIMESTAMP columns compared with string constants — plus the contract
itself: one ``VTable.to_rows`` per statement, seeing only the rows returned.
"""

from __future__ import annotations

import datetime

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import AcceleratedDatabase
from repro.accelerator.executor import _group_inverse
from repro.accelerator.vtable import VTable, column_codes, order_indexes
from repro.errors import TypeError_
from repro.metrics.counters import (
    SizedRows,
    estimate_columns_bytes,
    estimate_rows_bytes,
    estimate_value_bytes,
)
from repro.sql import parse_statement
from repro.sql.expressions import Scope, VColumn
from repro.sql.planning import sort_rows_with_keys


def _system(shards: int, setup: list[str], tables: list[str]):
    db = AcceleratedDatabase(shards=shards, slice_count=2, chunk_rows=4)
    conn = db.connect()
    for sql in setup:
        conn.execute(sql)
    for table in tables:
        db.add_table_to_accelerator(table)
    db.replication.drain()
    return db, conn


def _three_way(setup: list[str], tables: list[str], sql: str, params=()):
    """DB2, one accelerator and a 3-shard pool must return the same rows."""
    __, conn = _system(1, setup, tables)
    conn.set_acceleration("NONE")
    expected = conn.execute(sql, params)
    assert expected.engine == "DB2"
    for shards in (1, 3):
        __, conn = _system(shards, setup, tables)
        conn.set_acceleration("ALL")
        result = conn.execute(sql, params)
        assert result.engine == "ACCELERATOR"
        assert result.rows == expected.rows, (shards, sql)
    return expected.rows


# ---------------------------------------------------------------------------
# GROUP BY: group ids come from the values themselves, never from float64
# ---------------------------------------------------------------------------

BIG = 2**53

GROUP_SETUP = [
    "CREATE TABLE T (K BIGINT, S VARCHAR(4), V INTEGER)",
    f"INSERT INTO T VALUES ({BIG}, 'a', 1), ({BIG + 1}, 'a', 2), "
    f"({BIG + 1}, 'b', 3), (NULL, 'a', 4), ({BIG}, NULL, 5), "
    f"(NULL, 'a', 6), ({BIG + 1}, 'a', 7), (NULL, NULL, 8)",
]


class TestExactGroupKeys:
    def test_bigint_keys_beyond_float_precision(self):
        rows = _three_way(
            [
                "CREATE TABLE T (K BIGINT, V INTEGER)",
                f"INSERT INTO T VALUES ({BIG}, 1), ({BIG + 1}, 2), ({BIG + 1}, 3)",
            ],
            ["T"],
            "SELECT K, COUNT(*), SUM(V) FROM T GROUP BY K ORDER BY K",
        )
        assert rows == [(BIG, 1, 1), (BIG + 1, 2, 5)]

    def test_two_column_bigint_varchar_key(self):
        rows = _three_way(
            GROUP_SETUP,
            ["T"],
            "SELECT K, S, COUNT(*), SUM(V) FROM T GROUP BY K, S ORDER BY K, S",
        )
        assert rows == [
            (BIG, "a", 1, 1),
            (BIG, None, 1, 5),
            (BIG + 1, "a", 2, 9),
            (BIG + 1, "b", 1, 3),
            (None, "a", 2, 10),
            (None, None, 1, 8),
        ]

    def test_null_key_is_one_group_in_first_appearance_order(self):
        # No ORDER BY: groups come out in the order their first row was
        # scanned, on every engine.
        rows = _three_way(
            GROUP_SETUP, ["T"], "SELECT S, COUNT(*), MIN(V) FROM T GROUP BY S"
        )
        assert rows == [("a", 5, 1), ("b", 1, 3), (None, 2, 5)]

    def test_distinct_on_bigint(self):
        rows = _three_way(
            GROUP_SETUP, ["T"], "SELECT DISTINCT K FROM T ORDER BY K DESC"
        )
        assert rows == [(None,), (BIG + 1,), (BIG,)]


# ---------------------------------------------------------------------------
# Temporal columns against string constants: coerced once, same answers
# ---------------------------------------------------------------------------

TEMPORAL_SETUP = [
    "CREATE TABLE T (ID INTEGER NOT NULL PRIMARY KEY, D DATE, TS TIMESTAMP)",
    "CREATE TABLE E (ID INTEGER NOT NULL PRIMARY KEY, D DATE)",
    "CREATE TABLE N (ID INTEGER NOT NULL PRIMARY KEY, D DATE)",
    "INSERT INTO T VALUES (1, '2015-05-01', '2015-05-01 10:00:00'), "
    "(2, '2015-06-01', '2015-06-01 00:00:00'), (3, NULL, NULL), "
    "(4, '2015-07-15', '2015-07-15 23:59:59')",
    "INSERT INTO N VALUES (1, NULL), (2, NULL)",
]
TEMPORAL_TABLES = ["T", "E", "N"]


class TestTemporalConstants:
    @pytest.mark.parametrize(
        "predicate, params, expected",
        [
            ("D >= '2015-06-01'", (), [2, 4]),
            ("D = '2015-06-01'", (), [2]),
            ("D <> '2015-06-01'", (), [1, 4]),
            ("D < '2015-06-01'", (), [1]),
            ("'2015-06-01' <= D", (), [2, 4]),
            ("'2015-06-01' = D", (), [2]),
            ("NOT (D >= '2015-06-01')", (), [1]),
            ("TS >= '2015-06-01'", (), [2, 4]),
            ("TS = '2015-06-01'", (), [2]),
            ("TS > '2015-05-01 09:59:59'", (), [1, 2, 4]),
            ("D >= ?", ("2015-06-01",), [2, 4]),
            ("? < D", ("2015-06-01",), [4]),
            ("D >= ?", (datetime.date(2015, 6, 1),), [2, 4]),
            ("D BETWEEN '2015-05-15' AND '2015-07-01'", (), [2]),
            ("D NOT BETWEEN '2015-05-15' AND '2015-07-01'", (), [1, 4]),
            # IN compares without coercion on both engines: no match.
            ("D IN ('2015-06-01', '2015-07-15')", (), []),
            ("D NOT IN ('2015-06-01')", (), [1, 2, 4]),
        ],
    )
    def test_matches_db2(self, predicate, params, expected):
        rows = _three_way(
            TEMPORAL_SETUP,
            TEMPORAL_TABLES,
            f"SELECT ID FROM T WHERE {predicate} ORDER BY ID",
            params,
        )
        assert rows == [(i,) for i in expected]

    @pytest.mark.parametrize(
        "predicate, message",
        [
            ("D >= 'garbage'", "value 'garbage' is not valid for type DATE"),
            ("'garbage' < TS", "value 'garbage' is not valid for type TIMESTAMP"),
            (
                "D >= '2015-06-01 00:00:00'",
                "value '2015-06-01 00:00:00' is not valid for type DATE",
            ),
        ],
    )
    def test_invalid_constant_raises_the_same_error(self, predicate, message):
        __, conn = _system(1, TEMPORAL_SETUP, TEMPORAL_TABLES)
        for mode in ("NONE", "ALL"):
            conn.set_acceleration(mode)
            with pytest.raises(TypeError_) as raised:
                conn.execute(f"SELECT ID FROM T WHERE {predicate}")
            assert str(raised.value) == message

    @pytest.mark.parametrize("table", ["E", "N"])
    def test_nothing_to_compare_raises_nothing(self, table):
        """DB2 never reaches the constant on an empty table or on NULL
        dates; the hoisted coercion must not reach it either."""
        rows = _three_way(
            TEMPORAL_SETUP,
            TEMPORAL_TABLES,
            f"SELECT ID FROM {table} WHERE D >= 'garbage' OR D = 'garbage'",
        )
        assert rows == []


# ---------------------------------------------------------------------------
# ORDER BY: one lexsort over codes; DB2's NullsHighKey sort is the oracle
# ---------------------------------------------------------------------------

_KEYS = st.one_of(
    st.lists(st.one_of(st.none(), st.integers(-3, 3)), max_size=30),
    st.lists(
        st.one_of(st.none(), st.sampled_from([-(2**63), 2**63 - 1, BIG, BIG + 1])),
        max_size=30,
    ),
    st.lists(st.one_of(st.none(), st.sampled_from([0.5, -0.0, 0.0, 2.5])), max_size=30),
    st.lists(st.one_of(st.none(), st.sampled_from([1.5, float("nan")])), max_size=30),
    st.lists(st.one_of(st.none(), st.sampled_from(["a", "ab", "b", ""])), max_size=30),
    st.lists(
        st.one_of(
            st.none(),
            st.sampled_from([datetime.date(2015, 1, d) for d in (1, 2, 3)]),
        ),
        max_size=30,
    ),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_order_indexes_matches_the_row_sort(data):
    width = data.draw(st.integers(1, 3))
    first = data.draw(_KEYS)
    length = len(first)
    lists = [first] + [
        (data.draw(_KEYS) * length)[:length] or [None] * length
        for __ in range(width - 1)
    ]
    ascending = [data.draw(st.booleans()) for __ in range(width)]
    expected = sort_rows_with_keys(
        list(range(length)), list(zip(*lists)), ascending
    )
    columns = [VColumn.from_objects(items) for items in lists]
    assert order_indexes(columns, ascending).tolist() == expected


def test_column_codes_put_null_last_and_keep_int64_exact():
    codes, count = column_codes(
        VColumn.from_objects([BIG + 1, None, BIG, -(2**63), BIG + 1])
    )
    assert codes.tolist() == [2, 3, 1, 0, 2] and count == 4
    codes, count = column_codes(VColumn.from_objects(["b", "a", None, "b"]))
    assert codes.tolist() == [1, 0, 2, 1] and count == 3


def _plain(col: VColumn) -> VColumn:
    """``col`` materialised: the same values and mask, no carried codes."""
    return VColumn(col.values, col.mask)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_carried_codes_order_as_the_materialised_column(data):
    """Codes ranked before an expanding gather ride ``gather`` → ``filter``
    → ``take`` and stay what ``column_codes`` would compute afterwards:
    equal where the values are, ordered as they are, NULL highest."""
    texts = data.draw(
        st.lists(st.one_of(st.none(), st.sampled_from(["a", "ab", "b", "", "zz"])),
                 min_size=1, max_size=8)
    )
    numbers = [None if t is None else len(t) for t in texts]
    table = VTable(
        Scope([(None, "S"), (None, "N")]),
        [VColumn.from_objects(texts), VColumn.from_objects(numbers)],
        len(texts),
    )
    indexes = data.draw(
        st.lists(st.integers(0, len(texts) - 1), min_size=len(texts) + 1, max_size=30)
    )
    expanded = table.take(np.array(indexes))
    assert expanded.columns[0].codes is not None or expanded.columns[0].values.dtype != object
    assert expanded.columns[1].codes is None  # packed columns rank fast enough
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=len(indexes), max_size=len(indexes))))
    filtered = expanded.filter(keep)
    shuffled = filtered.take(
        np.array(data.draw(st.permutations(range(filtered.length))), dtype=np.int64)
    )
    for stage in (expanded, filtered, shuffled):
        for col in stage.columns:
            carried, bound = column_codes(col)
            fresh, count = column_codes(_plain(col))
            assert len(carried) == stage.length
            assert bound >= count and (not len(carried) or carried.max() < bound)
            # Dense-ranking the carried codes gives the fresh ones.
            assert np.unique(carried, return_inverse=True)[1].tolist() == fresh.tolist()
        plain = [_plain(col) for col in stage.columns]
        assert (
            order_indexes(stage.columns, [True, False]).tolist()
            == order_indexes(plain, [True, False]).tolist()
        )
        for got, want in zip(
            _group_inverse(stage.columns, stage.length), _group_inverse(plain, stage.length)
        ):
            assert np.array_equal(got, want)


def test_group_inverse_numbers_groups_by_first_appearance():
    """Direct addressing and the wide-radix re-rank agree with the
    definition: group ids in order of first appearance, each group's
    first row, one id per distinct key tuple."""
    small = VColumn.from_objects([3, 1, 3, None, 1, 2, None])
    wide = VColumn.from_objects([2**62, -(2**62), 2**62, 5, -(2**62), 0, 5])
    for keys in ([small], [wide], [small, wide], [wide] * 5):
        inverse, groups, first_rows = _group_inverse(keys, 7)
        tuples = list(zip(*(col.to_objects() for col in keys)))
        seen = list(dict.fromkeys(tuples))
        assert groups == len(seen)
        assert inverse.tolist() == [seen.index(t) for t in tuples]
        assert first_rows.tolist() == [tuples.index(t) for t in seen]


# ---------------------------------------------------------------------------
# The contract: columns until the result, boxed once, top-N boxes N rows
# ---------------------------------------------------------------------------


@pytest.fixture
def boxed(monkeypatch):
    """Row counts of every ``VTable.to_rows`` call."""
    calls: list[int] = []
    original = VTable.to_rows

    def counting(self):
        rows = original(self)
        calls.append(len(rows))
        return rows

    monkeypatch.setattr(VTable, "to_rows", counting)
    return calls


ITEMS_SETUP = [
    "CREATE TABLE ITEMS (ID INTEGER NOT NULL PRIMARY KEY, G INTEGER, V DOUBLE)",
    "INSERT INTO ITEMS VALUES "
    + ", ".join(f"({i}, {i % 5}, {(i * 37) % 101}.5)" for i in range(200)),
]


class TestOneBoxingSite:
    @pytest.mark.parametrize(
        "sql, returned",
        [
            ("SELECT ID, V FROM ITEMS ORDER BY V DESC, ID LIMIT 10", 10),
            ("SELECT ID, V FROM ITEMS ORDER BY V LIMIT 10 OFFSET 25", 10),
            ("SELECT ID FROM ITEMS ORDER BY ID LIMIT 10 OFFSET 195", 5),
            ("SELECT ID FROM ITEMS ORDER BY G, ID LIMIT 0", 0),
            ("SELECT ID FROM ITEMS WHERE V > 50 LIMIT 7", 7),
            ("SELECT G, COUNT(*) FROM ITEMS GROUP BY G ORDER BY 2 DESC, G LIMIT 2", 2),
            ("SELECT G, SUM(V) FROM ITEMS GROUP BY G", 5),
            ("SELECT COUNT(*) FROM ITEMS", 1),
            ("SELECT DISTINCT G FROM ITEMS ORDER BY G", 5),
            ("SELECT G FROM ITEMS WHERE ID < 3 UNION SELECT G FROM ITEMS ORDER BY 1", 5),
            (
                "SELECT s.G, s.N FROM (SELECT G, COUNT(*) AS N FROM ITEMS "
                "GROUP BY G) AS s WHERE s.N > 1 ORDER BY s.G DESC LIMIT 3",
                3,
            ),
        ],
    )
    def test_statement_boxes_only_the_rows_it_returns(self, boxed, sql, returned):
        __, conn = _system(1, ITEMS_SETUP, ["ITEMS"])
        conn.set_acceleration("NONE")
        expected = conn.execute(sql).rows
        conn.set_acceleration("ALL")
        del boxed[:]
        result = conn.execute(sql)
        assert result.engine == "ACCELERATOR"
        assert result.rows == expected
        assert boxed == [returned]

    def test_top_n_gathers_only_the_window(self, monkeypatch):
        """LIMIT/OFFSET cut the sort's index vector, so the one gather of
        the statement moves ``limit`` rows, not the 200 that were ranked."""
        taken: list[int] = []
        original = VTable.take

        def recording(self, indexes):
            taken.append(len(indexes))
            return original(self, indexes)

        monkeypatch.setattr(VTable, "take", recording)
        __, conn = _system(1, ITEMS_SETUP, ["ITEMS"])
        conn.set_acceleration("ALL")
        conn.execute("SELECT ID, V FROM ITEMS ORDER BY V DESC, ID LIMIT 10 OFFSET 25")
        assert taken == [10]

    def test_result_size_is_taken_from_the_columns(self):
        __, conn = _system(
            1,
            [
                "CREATE TABLE M (ID INTEGER NOT NULL PRIMARY KEY, B BOOLEAN, "
                "F DOUBLE, S VARCHAR(8), D DATE, TS TIMESTAMP, X DECIMAL(9, 2))",
                "INSERT INTO M VALUES (1, TRUE, 1.5, 'abc', '2015-01-01', "
                "'2015-01-01 10:00:00', 12.50), (2, NULL, NULL, NULL, NULL, NULL, NULL), "
                "(3, FALSE, -2.0, '', '2015-01-02', '2015-01-02 00:00:00', 0.25)",
            ],
            ["M"],
        )
        conn.set_acceleration("ALL")
        before = conn._system.interconnect.snapshot().bytes_from_accelerator
        sql = "SELECT * FROM M ORDER BY ID"
        client_rows = conn.execute(sql).rows
        moved = conn._system.interconnect.snapshot().bytes_from_accelerator - before
        # The client gets a plain list; the engine's own result is still
        # columns, sized without being boxed.
        assert type(client_rows) is list
        __, rows = conn._system.accelerator.execute_select(parse_statement(sql))
        assert isinstance(rows, SizedRows) and rows._rows is None
        assert len(rows) == 3 and estimate_rows_bytes(rows) == moved
        assert rows._rows is None
        walked = sum(1 + estimate_value_bytes(v) for row in rows for v in row)
        assert rows.wire_bytes == moved == walked
        assert rows == client_rows
        assert estimate_rows_bytes(list(rows)) == walked


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(-5, 5)),
            st.one_of(st.none(), st.floats(allow_nan=False)),
            st.one_of(st.none(), st.booleans()),
            st.one_of(st.none(), st.text(max_size=6)),
            st.one_of(st.none(), st.dates()),
        ),
        max_size=20,
    )
)
def test_columns_size_equals_rows_size(rows):
    columns = [
        VColumn.from_objects([row[i] for row in rows]) for i in range(5)
    ]
    boxed_rows = VTable(Scope([]), columns, len(rows)).to_rows()
    assert boxed_rows == rows
    assert estimate_columns_bytes(columns) == estimate_rows_bytes(rows)


def test_numeric_group_order_matches_row_engine_without_order_by():
    # First-appearance order, not key order.
    values = [3, 1, 3, 2, 1]
    setup = [
        "CREATE TABLE T (ID INTEGER NOT NULL PRIMARY KEY, K INTEGER)",
        "INSERT INTO T VALUES "
        + ", ".join(f"({i}, {k})" for i, k in enumerate(values)),
    ]
    rows = _three_way(setup, ["T"], "SELECT K, COUNT(*) FROM T GROUP BY K")
    assert rows == [(3, 2), (1, 2), (2, 1)]
