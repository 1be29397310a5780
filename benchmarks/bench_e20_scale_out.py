"""E20 — Scale-out accelerator pool: byte-identity and modeled speedup.

PR-10 generalized the federation from one accelerator to an N-shard
pool (``repro.shard``) behind the same engine interface. This
experiment checks the two claims that make sharding worth having:

* **transparency** — the same analytic workload returns byte-identical
  rows at 1, 2, and 4 shards (the coordinator merges the per-shard
  gathers by row id, the single instance's scan order);
* **scan scaling** — the modeled critical path of the workload shrinks
  with the shard count. Wall clock on a single-core host cannot show
  this (the fan-out is simulated in-process), so the gated observable
  is the modeled scan time: the single instance accrues
  ``rows / scan_rate`` per scan while the pool accrues the *slowest
  shard's* share per fan-out. The acceptance gate is ≥2× at
  4 shards vs 1 on a ≥100k-row table.

Two supporting measurements ride along: placement pruning (after
``ALTER TABLE … DISTRIBUTE BY HASH``, point lookups touch one shard
instead of all four) and training determinism (the SGD logistic
trainer fits bit-for-bit the same model at every shard count, because
epoch scans run in coordinator layout order).

Results land in ``benchmarks/results/e20_scale_out.json`` (uploaded as
a CI artifact). Set ``E20_SMOKE=1`` (the CI smoke job does) for a fast
small-data pass; the committed JSON comes from a full-scale run.
"""

import json
import os
import time
from pathlib import Path

from bench_util import make_system
from repro.obs.export import export_json
from repro.workloads import create_churn_table

RESULTS_DIR = Path(__file__).parent / "results"
SMOKE = os.environ.get("E20_SMOKE", "") not in ("", "0")

#: Scan-table rows. The acceptance gate demands ≥100k at full scale.
ROWS = 12_000 if SMOKE else 120_000
#: Rows for the SGD determinism check (per-row Python loop, keep small).
TRAIN_ROWS = 3_000 if SMOKE else 20_000
SHARD_COUNTS = (1, 2, 4)
POINT_LOOKUPS = 32

#: The analytic workload replayed at every shard count.
QUERIES = [
    "SELECT COUNT(*), SUM(TOTAL_CHARGES), AVG(MONTHLY_CHARGES), "
    "MIN(TENURE_MONTHS), MAX(TENURE_MONTHS) FROM CHURN",
    "SELECT CONTRACT_MONTHS, COUNT(*), AVG(SUPPORT_CALLS), "
    "SUM(MONTHLY_CHARGES) FROM CHURN GROUP BY CONTRACT_MONTHS "
    "ORDER BY CONTRACT_MONTHS",
    "SELECT CHURNED, COUNT(*), AVG(MONTHLY_CHARGES) FROM CHURN "
    "GROUP BY CHURNED ORDER BY CHURNED",
    "SELECT COUNT(*) FROM CHURN WHERE MONTHLY_CHARGES > 100 "
    "AND SUPPORT_CALLS >= 5",
    "SELECT COUNT(*), AVG(TENURE_MONTHS) FROM CHURN "
    "WHERE TOTAL_CHARGES IS NULL",
    "SELECT SUPPORT_CALLS, COUNT(*) FROM CHURN "
    "WHERE CONTRACT_MONTHS = 1 GROUP BY SUPPORT_CALLS "
    "ORDER BY SUPPORT_CALLS",
]

_RESULTS: dict[str, object] = {}


def scan_system(shards: int):
    db = make_system(shards=shards)
    conn = db.connect()
    create_churn_table(conn, count=ROWS, accelerate=True)
    conn.set_acceleration("ALL")
    return db, conn


def modeled_scan_seconds(db) -> float:
    """The gated observable, per deployment shape.

    Single instance: total simulated busy time (one engine does all the
    scanning). Pool: the simulated critical path — each fan-out costs
    its slowest shard, the rest overlap.
    """
    if db.accelerator_pool is not None:
        return db.accelerator_pool.simulated_critical_path_seconds
    return db.accelerator.simulated_busy_seconds


def run_workload(conn) -> list:
    return [conn.execute(sql).rows for sql in QUERIES]


def test_e20_byte_identity_and_modeled_speedup(record):
    """The headline gate: same bytes at every shard count, ≥2× modeled
    scan speedup at 4 shards on ≥100k rows."""
    baseline_rows = None
    shapes = {}
    for shards in SHARD_COUNTS:
        db, conn = scan_system(shards)
        run_workload(conn)  # warm plan cache before measuring
        modeled_before = modeled_scan_seconds(db)
        started = time.perf_counter()
        results = run_workload(conn)
        wall = time.perf_counter() - started
        modeled = modeled_scan_seconds(db) - modeled_before
        assert results[0][0][0] == ROWS
        if baseline_rows is None:
            baseline_rows = results
        else:
            for sql, expected, got in zip(QUERIES, baseline_rows, results):
                assert got == expected, (shards, sql)
        shapes[shards] = dict(modeled_seconds=modeled, wall_seconds=wall)

    speedup_2 = shapes[1]["modeled_seconds"] / shapes[2]["modeled_seconds"]
    speedup_4 = shapes[1]["modeled_seconds"] / shapes[4]["modeled_seconds"]
    record(
        "E20 scale-out",
        f"scan workload ({ROWS} rows, {len(QUERIES)} queries): modeled "
        f"1 shard={shapes[1]['modeled_seconds'] * 1000:.2f}ms "
        f"2 shards={shapes[2]['modeled_seconds'] * 1000:.2f}ms "
        f"4 shards={shapes[4]['modeled_seconds'] * 1000:.2f}ms "
        f"({speedup_2:.2f}x / {speedup_4:.2f}x); byte-identical rows",
    )
    if not SMOKE:
        assert ROWS >= 100_000
    assert speedup_4 >= 2.0, (
        f"modeled critical path at 4 shards only {speedup_4:.2f}x "
        "faster than the single instance"
    )
    assert speedup_2 > 1.0
    _RESULTS["scan"] = {
        "rows": ROWS,
        "queries": len(QUERIES),
        "per_shards": {
            str(shards): shape for shards, shape in shapes.items()
        },
        "modeled_speedup_2_shards": speedup_2,
        "modeled_speedup_4_shards": speedup_4,
        "identity": "rows byte-identical across shard counts",
    }


def test_e20_hash_placement_prunes_point_lookups(record):
    """After DISTRIBUTE BY HASH on the join key, a point lookup scans
    one shard; the other three never see the query."""
    db, conn = scan_system(4)
    conn.execute("ALTER TABLE CHURN ACCELERATE DISTRIBUTE BY HASH(CUST_ID)")
    pool = db.accelerator_pool
    total_before = pool.shard_scans_total
    pruned_before = pool.shard_scans_pruned
    modeled_before = modeled_scan_seconds(db)
    for cust_id in range(1, POINT_LOOKUPS + 1):
        rows = conn.execute(
            "SELECT CUST_ID, MONTHLY_CHARGES FROM CHURN "
            f"WHERE CUST_ID = {cust_id}"
        ).rows
        assert [r[0] for r in rows] == [cust_id]
    scans = pool.shard_scans_total - total_before
    pruned = pool.shard_scans_pruned - pruned_before
    modeled = modeled_scan_seconds(db) - modeled_before
    prune_fraction = pruned / scans
    record(
        "E20 scale-out",
        f"{POINT_LOOKUPS} point lookups after DISTRIBUTE BY HASH: "
        f"{pruned}/{scans} shard scans pruned "
        f"({prune_fraction:.0%}), modeled {modeled * 1000:.2f}ms",
    )
    # Every lookup should touch exactly one of the four shards.
    assert prune_fraction == 0.75
    _RESULTS["pruning"] = {
        "lookups": POINT_LOOKUPS,
        "shard_scans": scans,
        "shard_scans_pruned": pruned,
        "prune_fraction": prune_fraction,
        "modeled_seconds": modeled,
    }


def train_sql() -> str:
    return (
        "CALL INZA.LOGISTIC_REGRESSION('intable=CHURN, target=CHURNED, "
        "model=CHURN_LR, id=CUST_ID, epochs=3, rate=0.2, "
        "incolumn=TENURE_MONTHS;MONTHLY_CHARGES;SUPPORT_CALLS;"
        "CONTRACT_MONTHS')"
    )


def test_e20_training_is_deterministic_across_shards(record):
    """SGD epochs run in coordinator layout order on a pool, so the
    fitted model is bit-for-bit identical at every shard count."""
    fits = {}
    for shards in SHARD_COUNTS:
        db = make_system(shards=shards)
        conn = db.connect()
        create_churn_table(conn, count=TRAIN_ROWS, accelerate=True)
        started = time.perf_counter()
        conn.execute(train_sql())
        seconds = time.perf_counter() - started
        model = db.models.get("CHURN_LR")
        fits[shards] = dict(
            seconds=seconds,
            intercept=model.payload["intercept"],
            coefficients=list(model.payload["coefficients"]),
            accuracy=model.metrics["accuracy"],
        )
    base = fits[1]
    for shards in SHARD_COUNTS[1:]:
        assert fits[shards]["intercept"] == base["intercept"], shards
        assert fits[shards]["coefficients"] == base["coefficients"], shards
    timings = ", ".join(
        f"{fits[s]['seconds']:.2f}" for s in SHARD_COUNTS
    )
    record(
        "E20 scale-out",
        f"logistic SGD ({TRAIN_ROWS} rows, 3 epochs): bitwise-identical "
        f"model at 1/2/4 shards, accuracy={base['accuracy']:.3f}, "
        f"seconds={timings}",
    )
    _RESULTS["training"] = {
        "rows": TRAIN_ROWS,
        "epochs": 3,
        "accuracy": base["accuracy"],
        "seconds_per_shards": {
            str(s): fits[s]["seconds"] for s in SHARD_COUNTS
        },
        "identity": "intercept/coefficients bitwise across shard counts",
    }


def test_e20_export(record):
    """Everything lands in results/e20_scale_out.json."""
    payload = {
        "experiment": "E20",
        "smoke": SMOKE,
        "scan": _RESULTS.get("scan"),
        "pruning": _RESULTS.get("pruning"),
        "training": _RESULTS.get("training"),
    }
    json.dumps(payload, allow_nan=False)
    target = export_json(RESULTS_DIR / "e20_scale_out.json", payload)
    written = json.loads(target.read_text())
    assert written["experiment"] == "E20"
    record(
        "E20 scale-out",
        "exported scan + pruning + training numbers "
        "-> results/e20_scale_out.json",
    )
