"""Property-based tests (hypothesis) on core invariants.

Covered invariants:

* scalar and vector expression compilers agree on arbitrary data;
* column-store snapshot visibility is consistent under random
  insert/delete interleavings;
* zone-map pruning never changes query answers;
* sort order respects SQL NULLs-high semantics;
* Apriori satisfies downward closure and support bounds;
* type coercion is idempotent.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytics.association import apriori_frequent_itemsets
from repro.catalog import Column, TableSchema
from repro.sql import parse_statement
from repro.sql.expressions import (
    Scope,
    VColumn,
    compile_scalar,
    compile_vector,
)
from repro.sql.planning import sort_rows_with_keys
from repro.sql.types import DOUBLE, INTEGER, VarcharType
from repro.storage.column_store import ColumnStoreTable

# ---------------------------------------------------------------------------
# Expression equivalence
# ---------------------------------------------------------------------------

_EXPRESSIONS = [
    "a + b",
    "a - b * 2",
    "a * b + a",
    "-a",
    "a > b",
    "a = b",
    "a <> b",
    "a <= b AND b <= 100",
    "a > 0 OR b > 0",
    "NOT (a > b)",
    "a IS NULL",
    "a IS NOT NULL",
    "a BETWEEN -5 AND 5",
    "a IN (0, 1, 2, 3)",
    "COALESCE(a, b, 0)",
    "NULLIF(a, b)",
    "ABS(a)",
    "CASE WHEN a > b THEN a ELSE b END",
    "CASE WHEN a IS NULL THEN -1 WHEN a > 0 THEN 1 ELSE 0 END",
]

_maybe_int = st.one_of(st.none(), st.integers(min_value=-100, max_value=100))


@settings(max_examples=60, deadline=None)
@given(
    a_values=st.lists(_maybe_int, min_size=1, max_size=20),
    expression=st.sampled_from(_EXPRESSIONS),
    data=st.data(),
)
def test_scalar_and_vector_compilers_agree(a_values, expression, data):
    b_values = data.draw(
        st.lists(
            _maybe_int, min_size=len(a_values), max_size=len(a_values)
        )
    )
    scope = Scope([("T", "A"), ("T", "B")])
    node = parse_statement(f"SELECT {expression} FROM t").select_items[0].expression
    scalar_fn = compile_scalar(node, scope)
    scalar_out = [scalar_fn((a, b)) for a, b in zip(a_values, b_values)]
    vector_fn = compile_vector(node, scope)
    columns = [VColumn.from_objects(a_values), VColumn.from_objects(b_values)]
    vector_out = vector_fn(columns, len(a_values)).to_objects()

    def norm(value):
        if value is None:
            return None
        if isinstance(value, (bool, np.bool_)):
            return bool(value)
        return float(value)

    assert [norm(v) for v in vector_out] == [norm(v) for v in scalar_out]


# ---------------------------------------------------------------------------
# Column-store MVCC invariants
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    batches=st.lists(
        st.integers(min_value=1, max_value=30), min_size=1, max_size=6
    ),
    delete_fraction=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_column_store_visibility_invariants(batches, delete_fraction, seed):
    schema = TableSchema([Column("ID", INTEGER, nullable=False)])
    table = ColumnStoreTable(schema, chunk_rows=8)
    rng = np.random.default_rng(seed)
    epoch = 0
    history: list[tuple[int, int]] = []  # (epoch, expected visible count)
    live_ids: list[int] = []
    next_id = 0
    for batch in batches:
        epoch += 1
        rows = [(next_id + i,) for i in range(batch)]
        ids = table.append_rows(rows, epoch)
        live_ids.extend(int(i) for i in ids)
        next_id += batch
        history.append((epoch, len(live_ids)))
        if live_ids and delete_fraction > 0:
            count = int(len(live_ids) * delete_fraction * rng.random())
            if count:
                chosen = rng.choice(live_ids, size=count, replace=False)
                epoch += 1
                table.mark_deleted([int(c) for c in chosen], epoch)
                live_ids = [i for i in live_ids if i not in set(int(c) for c in chosen)]
                history.append((epoch, len(live_ids)))
    # Every historical snapshot must still report its exact row count.
    for snapshot_epoch, expected in history:
        row_ids, __ = table.read_visible(snapshot_epoch)
        assert len(row_ids) == expected
    # Visibility is monotone in row ids: no duplicates ever.
    row_ids, __ = table.read_visible(epoch)
    assert len(set(row_ids.tolist())) == len(row_ids)


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(
        st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=200
    ),
    low=st.integers(min_value=-1000, max_value=1000),
    span=st.integers(min_value=0, max_value=500),
)
def test_zone_map_pruning_never_changes_answers(values, low, span):
    schema = TableSchema([Column("V", INTEGER)])
    table = ColumnStoreTable(schema, chunk_rows=16)
    table.append_rows([(v,) for v in values], epoch=1)
    high = low + span
    expected = sorted(v for v in values if low <= v <= high)

    __, pruned = table.read_visible(1, ranges={"V": (low, high)})
    matched = sorted(
        v for v in pruned["V"].values.tolist() if low <= v <= high
    )
    assert matched == expected


# ---------------------------------------------------------------------------
# Sorting
# ---------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    keys=st.lists(
        st.one_of(st.none(), st.integers(min_value=-50, max_value=50)),
        min_size=0,
        max_size=50,
    ),
    ascending=st.booleans(),
)
def test_sort_nulls_high(keys, ascending):
    rows = [(k,) for k in keys]
    ordered = sort_rows_with_keys(rows, [(k,) for k in keys], [ascending])
    flat = [row[0] for row in ordered]
    non_null = [v for v in flat if v is not None]
    assert non_null == sorted(non_null, reverse=not ascending)
    if ascending:
        # NULLs sort last ascending…
        assert all(v is None for v in flat[len(non_null):])
    else:
        # …and first descending.
        null_count = len(flat) - len(non_null)
        assert all(v is None for v in flat[:null_count])


# ---------------------------------------------------------------------------
# Apriori
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    baskets=st.lists(
        st.sets(st.sampled_from("abcdef"), min_size=1, max_size=4),
        min_size=1,
        max_size=25,
    ),
    min_support=st.floats(min_value=0.05, max_value=1.0),
)
def test_apriori_invariants(baskets, min_support):
    frequent = apriori_frequent_itemsets(list(baskets), min_support)
    total = len(baskets)
    for itemset, support in frequent.items():
        # Support is the exact containment frequency…
        exact = sum(1 for basket in baskets if itemset <= basket) / total
        assert math.isclose(support, exact)
        # …is above the threshold…
        assert support * total >= min_support * total - 1e-9
        # …and every subset is frequent too (downward closure).
        for item in itemset:
            if len(itemset) > 1:
                assert itemset - {item} in frequent


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(value=st.integers(min_value=-(2**31), max_value=2**31 - 1))
def test_integer_coercion_idempotent(value):
    assert INTEGER.coerce(INTEGER.coerce(value)) == INTEGER.coerce(value)


@settings(max_examples=50, deadline=None)
@given(
    value=st.floats(allow_nan=False, allow_infinity=False, width=32)
)
def test_double_coercion_idempotent(value):
    once = DOUBLE.coerce(value)
    assert DOUBLE.coerce(once) == once


@settings(max_examples=50, deadline=None)
@given(value=st.text(max_size=30))
def test_varchar_roundtrip(value):
    vtype = VarcharType(30)
    assert vtype.coerce(value) == value


# ---------------------------------------------------------------------------
# End-to-end: random GROUP BY data, DB2 vs accelerator
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.one_of(
                st.none(),
                st.floats(
                    min_value=-100, max_value=100, allow_nan=False
                ),
            ),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_group_by_agrees_between_engines(rows):
    from repro.accelerator import AcceleratorEngine
    from repro.federation import accelerator_shards
    from repro.catalog import Catalog, TableLocation
    from repro.db2 import Db2Engine

    catalog = Catalog()
    db2 = Db2Engine(catalog)
    accelerator = AcceleratorEngine(catalog, accelerator_shards(), slice_count=2, chunk_rows=8)
    schema = TableSchema(
        [Column("G", INTEGER, nullable=False), Column("V", DOUBLE)]
    )
    descriptor = catalog.create_table(
        "R", schema, location=TableLocation.ACCELERATED
    )
    db2.create_storage(descriptor)
    accelerator.create_storage(descriptor)
    coerced = [schema.coerce_row(row) for row in rows]
    txn = db2.txn_manager.begin()
    db2.insert_rows(txn, "R", coerced, already_coerced=True)
    db2.commit(txn)
    accelerator.bulk_insert("R", coerced)

    sql = (
        "SELECT g, COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v) FROM r "
        "GROUP BY g ORDER BY g"
    )
    txn = db2.txn_manager.begin()
    __, db2_rows = db2.execute_select(txn, parse_statement(sql))
    db2.commit(txn)
    __, acc_rows = accelerator.execute_select(parse_statement(sql))

    def norm(row):
        return tuple(
            None
            if v is None
            else (round(float(v), 6) if isinstance(v, (int, float)) else v)
            for v in row
        )

    assert [norm(r) for r in acc_rows] == [norm(r) for r in db2_rows]
