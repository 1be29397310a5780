"""E6 — In-database analytics vs extract-to-client.

Paper claim (Sec. 1/3): running analytics algorithms *on* the
accelerator avoids shipping the base data out of the database. The
client-side emulation extracts the feature table over the interconnect
(as any off-platform tool would), fits the same k-means locally — the
product's ``KMeansAggregate`` folded over one in-memory chunk — and
writes assignments back row by row. Expected shape: identical clusters,
but the in-database path moves statement-sized messages while the
client path moves the whole table out and the whole result back.
"""

import numpy as np
import pytest

from repro.analytics import uda
from repro.analytics.kmeans import KMeansAggregate
from repro.metrics.counters import estimate_rows_bytes

from bench_util import make_churn_system

FEATURES = "TENURE_MONTHS;MONTHLY_CHARGES;SUPPORT_CALLS;CONTRACT_MONTHS"
_BYTES: dict[tuple[int, str], int] = {}


def client_kmeans(matrix: np.ndarray, k: int, seed: int):
    """k-means on the client: the aggregate's epochs over one chunk."""
    chunk = uda.TrainingChunk(matrix=matrix, labels=None, rows=len(matrix))
    aggregate = KMeansAggregate(k, seed=seed)
    while not aggregate.finalize(
        aggregate.transition(aggregate.init(), chunk)
    ):
        pass
    return aggregate.result()


@pytest.mark.parametrize("approach", ["in_database", "client_side"])
@pytest.mark.parametrize("rows", [2000, 10000])
def test_e6_kmeans(benchmark, record, rows, approach):
    db, conn = make_churn_system(rows)
    conn.execute("DROP TABLE IF EXISTS SEGMENTS")

    if approach == "in_database":

        def run():
            conn.execute("DROP TABLE IF EXISTS SEGMENTS")
            conn.execute(
                "CALL INZA.KMEANS('intable=CHURN, outtable=SEGMENTS, "
                f"id=CUST_ID, k=4, incolumn={FEATURES}, model=E6_KM')"
            )

    else:

        def run():
            conn.execute("DROP TABLE IF EXISTS SEGMENTS")
            # 1. Extract the feature table to the "client" (result bytes
            #    cross the interconnect and are counted automatically).
            extract = conn.execute(
                "SELECT cust_id, tenure_months, monthly_charges, "
                "support_calls, contract_months FROM churn"
            )
            matrix = np.array(
                [row[1:] for row in extract.rows], dtype=np.float64
            )
            ids = [row[0] for row in extract.rows]
            fit = client_kmeans(matrix, k=4, seed=1)
            # 2. Ship the assignments back as plain inserts.
            conn.execute(
                "CREATE TABLE SEGMENTS (CUST_ID INTEGER, "
                "CLUSTER_ID INTEGER, DISTANCE DOUBLE) IN ACCELERATOR"
            )
            values = ", ".join(
                f"({ids[i]}, {int(fit.assignments[i])}, "
                f"{float(fit.distances[i])!r})"
                for i in range(len(ids))
            )
            conn.execute(f"INSERT INTO SEGMENTS VALUES {values}")

    snapshot = db.movement_snapshot()
    benchmark.pedantic(run, rounds=3, iterations=1)
    moved = db.movement_since(snapshot)
    per_run = moved.total_bytes // 3
    benchmark.extra_info["bytes_per_run"] = per_run
    _BYTES[(rows, approach)] = per_run
    record(
        "E6 in-database analytics",
        f"rows={rows:<6} approach={approach:<12} "
        f"bytes/run={per_run:<10,} "
        f"mean={benchmark.stats.stats.mean * 1000:8.1f}ms",
    )
    segment_count = conn.execute("SELECT COUNT(*) FROM segments").scalar()
    assert segment_count == rows
    other = _BYTES.get(
        (rows, "client_side" if approach == "in_database" else "in_database")
    )
    if other is not None:
        ratio = _BYTES[(rows, "client_side")] / max(
            1, _BYTES[(rows, "in_database")]
        )
        record(
            "E6 in-database analytics",
            f"rows={rows:<6} client/in-db movement ratio = {ratio:,.0f}x",
        )
        assert ratio > 5
