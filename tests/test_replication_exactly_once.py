"""Composed exactly-once property: random commits, batch sizes and fault
windows across several drains, then one clean drain, leave every
accelerated copy equal to DB2 with each change record applied once."""

from hypothesis import given, settings, strategies as st

from repro import AcceleratedDatabase

TABLES = ("T0", "T1", "T2")
#: Where a drain's fault schedule fires: a dropped interconnect send, an
#: accelerator crash on the apply path, or the crash point between
#: shipping a table sub-batch and applying it.
FAULT_SITES = ("interconnect", "accelerator", "replication.mid_batch")

commits = st.tuples(
    st.just("commit"),
    st.sampled_from(TABLES),
    st.sampled_from(("INSERT", "UPDATE", "DELETE")),
    st.integers(0, 9),
)
#: Batch size, fault site, and the window of the site's next calls
#: that fail (long windows outlast the retries and abandon the batch).
drains = st.tuples(
    st.just("drain"),
    st.integers(1, 7),
    st.sampled_from(FAULT_SITES + (None,)),
    st.integers(1, 6),
    st.integers(1, 8),
)
steps = st.lists(
    st.one_of(commits, commits, drains), min_size=6, max_size=30
)


def _system(shards):
    db = AcceleratedDatabase(
        shards=shards,
        slice_count=2,
        chunk_rows=16,
        auto_replicate=False,
        cooldown_seconds=0.0,
    )
    conn = db.connect()
    for name in TABLES:
        conn.execute(
            f"CREATE TABLE {name} (K INTEGER NOT NULL PRIMARY KEY, V INTEGER)"
        )
        conn.execute(
            f"INSERT INTO {name} VALUES " + ", ".join(f"({k}, {k})" for k in range(6))
        )
        db.add_table_to_accelerator(name)
    return db, conn


def _commit(conn, table, op, value, next_key):
    if op == "INSERT":
        conn.execute(f"INSERT INTO {table} VALUES ({next_key}, {value})")
    elif op == "UPDATE":
        conn.execute(
            f"UPDATE {table} SET V = V + 1 WHERE K BETWEEN {value} AND {value + 1}"
        )
    else:
        conn.execute(f"DELETE FROM {table} WHERE K = {value}")


def _faulty_drain(db, size, site, first, length):
    db.replication.batch_size = size
    schedule = range(first, first + length)
    rule = None
    if site == "replication.mid_batch":
        done = db.faults.calls.get(db.faults.crash_site(site), 0)
        rule = db.faults.arm_crash_point(site, schedule=[done + i for i in schedule])
    elif site is not None:
        done = db.faults.calls.get(site, 0)
        kind = "crash" if site == "accelerator" else "error"
        rule = db.faults.add(site, kind=kind, schedule=[done + i for i in schedule])
    try:
        db.replication.drain()
    finally:
        if rule is not None:
            db.faults.remove(rule)


def check_exactly_once(shards, steps, final_size):
    db, conn = _system(shards)
    replication = db.replication
    start_cursor = replication.cursor_lsn
    applied_before = replication.records_applied
    skipped_before = replication.records_skipped
    next_key = 100
    for step in steps:
        if step[0] == "commit":
            _commit(conn, *step[1:], next_key)
            next_key += 1
        else:
            _faulty_drain(db, *step[1:])
    db.faults.clear()
    db.health.reset()
    replication.batch_size = final_size
    replication.drain(raise_on_failure=True)
    assert replication.backlog == 0

    for name in TABLES:
        query = f"SELECT K, V FROM {name} ORDER BY K"
        conn.set_acceleration("NONE")
        expected = conn.execute(query).rows
        conn.set_acceleration("ALL")
        result = conn.execute(query)
        assert (result.engine, result.rows) == ("ACCELERATOR", expected), name

    passed = replication.records_applied - applied_before
    passed += replication.records_skipped - skipped_before
    assert passed == replication.cursor_lsn - start_cursor

    last_lsn = {}
    for record in db.db2.change_log.read_from(start_cursor):
        last_lsn[record.table] = record.lsn
    for name in TABLES:
        if name in last_lsn:
            assert db.accelerator.applied_lsn(name) == last_lsn[name], name


@settings(max_examples=60, deadline=None, derandomize=True)
@given(steps=steps, final_size=st.integers(1, 50))
def test_exactly_once_one_shard(steps, final_size):
    check_exactly_once(1, steps, final_size)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(steps=steps, final_size=st.integers(1, 50))
def test_exactly_once_four_shards(steps, final_size):
    check_exactly_once(4, steps, final_size)
