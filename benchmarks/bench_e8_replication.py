"""E8 — Replication drain: batch size vs throughput and staleness.

Paper context (Sec. 2): accelerated copies are maintained from the DB2
change log; with AOTs the same feed is what a legacy pipeline pays per
re-replicated stage. Expected shape: larger apply batches amortise the
per-batch epoch/lookup cost, so records/second rises with batch size
while per-record staleness (time until a change is visible on the copy)
falls.
"""

import pytest

from bench_util import make_system

CHANGES = 20000


def prepared_system():
    """System with CHANGES committed-but-undrained update records."""
    db = make_system(auto_replicate=False)
    conn = db.connect()
    conn.execute(
        "CREATE TABLE ITEMS (ID INTEGER NOT NULL PRIMARY KEY, V DOUBLE)"
    )
    for start in range(0, CHANGES, 5000):
        values = ", ".join(
            f"({i}, {float(i)})" for i in range(start, start + 5000)
        )
        conn.execute(f"INSERT INTO ITEMS VALUES {values}")
    db.add_table_to_accelerator("ITEMS")
    conn.execute("UPDATE items SET v = v + 1")  # CHANGES records
    assert db.replication.backlog == CHANGES
    return db, conn


@pytest.mark.parametrize("batch_size", [100, 1000, 10000])
def test_e8_drain_batch_size(benchmark, record, batch_size):
    drained = []

    def setup():
        return (prepared_system(),), {}

    def run(prepared):
        db, __conn = prepared
        db.replication.batch_size = batch_size
        applied = db.replication.drain()
        drained.append((db, applied))

    benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    db, applied = drained[-1]
    assert applied == CHANGES
    assert db.replication.backlog == 0
    seconds = benchmark.stats.stats.mean
    record(
        "E8 replication batching",
        f"batch={batch_size:<6} drain={seconds * 1000:9.1f}ms "
        f"throughput={CHANGES / seconds:12,.0f} records/s "
        f"batches={CHANGES // batch_size}",
    )


def test_e8_copy_consistency_after_drain(benchmark, record):
    """Correctness companion: after a drain the copy equals the source."""
    results = []

    def setup():
        return (prepared_system(),), {}

    def run(prepared):
        db, conn = prepared
        db.replication.batch_size = 2000
        db.replication.drain()
        conn.set_acceleration("NONE")
        db2_sum = conn.execute("SELECT SUM(v) FROM items").scalar()
        conn.set_acceleration("ALL")
        accel_sum = conn.execute("SELECT SUM(v) FROM items").scalar()
        results.append((db2_sum, accel_sum))

    benchmark.pedantic(run, setup=setup, rounds=2, iterations=1)
    db2_sum, accel_sum = results[-1]
    assert db2_sum == accel_sum
    record(
        "E8 replication batching",
        f"post-drain consistency: db2_sum == accel_sum == {accel_sum:,.0f}",
    )


def test_e8_staleness_window(record, benchmark):
    """Backlog observable between commit and drain (manual mode),
    sampled as each 5k batch of one drain lands: the cursor moves past
    a batch only after it applied, so the copy trails by whole batches."""
    db, conn = prepared_system()
    db.replication.batch_size = 5000
    staleness = []
    fold = db.replication.change_listener

    def sample(table, records):
        fold(table, records)
        staleness.append(db.replication.backlog)

    db.replication.change_listener = sample
    benchmark.pedantic(db.replication.drain, rounds=1, iterations=1)
    staleness.append(db.replication.backlog)
    record(
        "E8 replication batching",
        f"staleness as successive 5k batches land: {staleness}",
    )
    assert staleness == [20000, 15000, 10000, 5000, 0]
