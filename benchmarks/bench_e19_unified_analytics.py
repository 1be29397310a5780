"""E19 — Unified analytics core: chunk-parallel training + PREDICT.

PR-9 refactored every trainer onto the shared Bismarck-style
``ModelAggregate`` core (``repro.analytics.uda``) and pushed scoring
into the query path as the vectorized ``PREDICT(model, features…)``
scalar. This experiment answers the two questions that refactor raises:

* is the unified chunk-parallel path *worth it*? Training throughput is
  measured for the unified core at 1 and 4 scan workers against the
  retained legacy single-pass loops (``kmeans_fit``, ``linreg_fit``),
  with identity gates proving the fitted parameters did not move
  (1e-9 for floats, exact for assignments). Wall time is reported as
  measured; on a single-core host threads cannot beat the sequential
  pass, so the gated observable is the *modeled* critical path:
  measured wall minus the per-partition
  transition time that overlaps on a multi-core host (per-partition
  seconds come from the worker pool, so the model is measured, not
  assumed);
* what does in-kernel scoring buy over the application-side pattern the
  procedures force — one scoring call per tuple? A single vectorized
  ``PREDICT`` scan over ≥100k rows is gated at ≥5× the per-row loop,
  byte-identical outputs.

Results land in ``benchmarks/results/e19_unified_analytics.json``
(uploaded as a CI artifact). Set ``E19_SMOKE=1`` (the CI smoke job
does) for a fast small-data pass; the committed JSON comes from a
full-scale run.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from bench_util import make_system
from repro.analytics import uda
from repro.analytics.framework import ProcedureContext
from repro.analytics.kmeans import KMeansAggregate, kmeans_fit
from repro.analytics.regression import LinRegAggregate, linreg_fit
from repro.analytics.scoring import build_scorer
from repro.obs.export import export_json
from repro.workloads import create_churn_table

RESULTS_DIR = Path(__file__).parent / "results"
SMOKE = os.environ.get("E19_SMOKE", "") not in ("", "0")

#: Training-table rows. Must clear the engine's ``parallel_min_rows``
#: floor (16384) so workers=4 actually takes the partitioned path.
TRAIN_ROWS = 24_000 if SMOKE else 60_000
#: Scoring-table rows. The acceptance gate demands ≥100k at full scale.
SCORE_ROWS = 12_000 if SMOKE else 120_000
#: k-means work knobs: enough iterations that training is compute-bound.
KMEANS_K = 8
KMEANS_ITERS = 10
#: Timed repetitions per configuration (best-of, to shed warmup noise).
REPEATS = 2 if SMOKE else 3

FEATURES = ["TENURE_MONTHS", "MONTHLY_CHARGES", "SUPPORT_CALLS",
            "CONTRACT_MONTHS"]
LINREG_FEATURES = ["TENURE_MONTHS", "SUPPORT_CALLS", "CONTRACT_MONTHS"]
LINREG_TARGET = "MONTHLY_CHARGES"

_RESULTS: dict[str, object] = {}


def train_system(workers: int):
    db = make_system(parallel_workers=workers)
    conn = db.connect()
    create_churn_table(conn, count=TRAIN_ROWS, accelerate=True)
    return db, conn


def best_of(fn, repeats=REPEATS):
    """Best wall time over ``repeats`` runs, with that run's value."""
    best, value = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        candidate = fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best, value = elapsed, candidate
    return best, value


def unified_kmeans(db, conn):
    ctx = ProcedureContext(db, conn, {})
    source = uda.TrainingSource.from_context(ctx, "CHURN", FEATURES)
    aggregate = KMeansAggregate(
        KMEANS_K, max_iterations=KMEANS_ITERS, seed=1
    )
    report = uda.train(aggregate, source)
    return aggregate.result(), report


def legacy_kmeans(db, conn):
    ctx = ProcedureContext(db, conn, {})
    matrix = ctx.read_matrix("CHURN", FEATURES)
    return kmeans_fit(matrix, KMEANS_K, max_iterations=KMEANS_ITERS, seed=1)


def unified_linreg(db, conn):
    ctx = ProcedureContext(db, conn, {})
    source = uda.TrainingSource.from_context(
        ctx, "CHURN", LINREG_FEATURES + [LINREG_TARGET]
    )
    aggregate = LinRegAggregate(len(LINREG_FEATURES))
    report = uda.train(aggregate, source)
    return aggregate.result(), report


class SerialPool:
    """Run each epoch's partition transitions one at a time, cleanly timed.

    Pool timings are useless for modeling on a shared-core host: each
    task's elapsed time includes interleaved slices of its siblings.
    This stand-in for the ``ScanWorkerPool`` the epoch driver fans out
    on executes the same cached partition chunks strictly serially, so
    the per-partition seconds the driver reports
    (``TrainingReport.partition_seconds``) are pure work. The modeled
    multi-core wall is then the serial wall minus the overlap a parallel
    host reclaims — each epoch's transition stage costs ``max`` (its
    slowest partition) instead of ``sum``. The one gather per CALL,
    merge, and finalize keep their measured cost.
    """

    @staticmethod
    def run(workers, fn, items):
        return [fn(item) for item in items]


def modeled_unified(train_fn, db, conn):
    """(modeled multi-core wall, serialized wall) for one training run."""
    real = uda.ScanWorkerPool
    uda.ScanWorkerPool = SerialPool
    try:
        started = time.perf_counter()
        __, report = train_fn(db, conn)
        serial_wall = time.perf_counter() - started
    finally:
        uda.ScanWorkerPool = real
    assert report.partition_seconds, "serialized run never went parallel"
    overlap = sum(
        sum(splits) - max(splits) for splits in report.partition_seconds
    )
    return serial_wall - overlap, serial_wall


def legacy_linreg(db, conn):
    ctx = ProcedureContext(db, conn, {})
    matrix = ctx.read_matrix("CHURN", LINREG_FEATURES)
    target = ctx.read_matrix("CHURN", [LINREG_TARGET])[:, 0]
    return linreg_fit(matrix, target)


def test_e19_training_identity_and_throughput(record):
    """Unified training at 1 and 4 workers vs the legacy loops.

    Identity first (the refactor's contract), then wall time. The gate
    is the headline acceptance claim: the chunk-parallel unified path
    at workers=4 beats the legacy single-pass loop on the compute-bound
    model (k-means) — on its modeled critical path, because
    a single-core CI host serializes the worker threads."""
    rows = {}
    for workers in (1, 4):
        db, conn = train_system(workers)
        scans_before = db.accelerator.parallel_scans
        km_seconds, (km, km_report) = best_of(
            lambda: unified_kmeans(db, conn)
        )
        lr_seconds, (lr, lr_report) = best_of(
            lambda: unified_linreg(db, conn)
        )
        parallel_scans = db.accelerator.parallel_scans - scans_before
        if workers == 4:
            assert parallel_scans > 0, "workers=4 never took the parallel path"
            assert km_report.parallel_epochs > 0
            km_modeled, km_serial = modeled_unified(unified_kmeans, db, conn)
            lr_modeled, lr_serial = modeled_unified(unified_linreg, db, conn)
        else:
            assert parallel_scans == 0
            km_modeled = km_serial = lr_modeled = lr_serial = None
        rows[workers] = dict(
            kmeans_seconds=km_seconds,
            kmeans_modeled=km_modeled,
            kmeans_serial=km_serial,
            linreg_seconds=lr_seconds,
            linreg_modeled=lr_modeled,
            linreg_serial=lr_serial,
            kmeans=km,
            linreg=lr,
            parallel_scans=parallel_scans,
        )

    legacy_db, legacy_conn = train_system(workers=1)
    legacy_km_seconds, legacy_km = best_of(
        lambda: legacy_kmeans(legacy_db, legacy_conn)
    )
    legacy_lr_seconds, legacy_lr = best_of(
        lambda: legacy_linreg(legacy_db, legacy_conn)
    )

    # Identity gates: the unified core must reproduce the legacy fit.
    for workers, row in rows.items():
        km = row["kmeans"]
        assert np.allclose(km.centroids, legacy_km.centroids, rtol=1e-9), (
            f"kmeans centroids moved at workers={workers}"
        )
        assert np.array_equal(km.assignments, legacy_km.assignments)
        lr = row["linreg"]
        assert np.allclose(
            lr.coefficients, legacy_lr.coefficients, rtol=1e-9
        )
        assert abs(lr.intercept - legacy_lr.intercept) <= 1e-9 * max(
            1.0, abs(legacy_lr.intercept)
        )

    modeled_w4 = rows[4]["kmeans_modeled"]
    speedup = legacy_km_seconds / modeled_w4
    record(
        "E19 unified analytics",
        f"kmeans train ({TRAIN_ROWS} rows, k={KMEANS_K}, "
        f"{KMEANS_ITERS} iters): legacy={legacy_km_seconds * 1000:.0f}ms "
        f"unified@1={rows[1]['kmeans_seconds'] * 1000:.0f}ms "
        f"unified@4 wall={rows[4]['kmeans_seconds'] * 1000:.0f}ms "
        f"modeled={modeled_w4 * 1000:.0f}ms ({speedup:.2f}x vs legacy, "
        f"{os.cpu_count()} cores)",
    )
    record(
        "E19 unified analytics",
        f"linreg train ({TRAIN_ROWS} rows): "
        f"legacy={legacy_lr_seconds * 1000:.1f}ms "
        f"unified@1={rows[1]['linreg_seconds'] * 1000:.1f}ms "
        f"unified@4 wall={rows[4]['linreg_seconds'] * 1000:.1f}ms "
        f"modeled={rows[4]['linreg_modeled'] * 1000:.1f}ms",
    )
    # The acceptance gate: chunk-parallel unified training beats the
    # legacy loop at workers=4 on the compute-bound model. The modeled
    # critical path is gated; wall clock only can beat it on a
    # multi-core host, so it is recorded but asserted only there.
    assert modeled_w4 < legacy_km_seconds, (
        f"unified@4 modeled {modeled_w4:.3f}s not faster than "
        f"legacy {legacy_km_seconds:.3f}s"
    )
    if (os.cpu_count() or 1) >= 4:
        assert rows[4]["kmeans_seconds"] < legacy_km_seconds, (
            f"unified@4 wall {rows[4]['kmeans_seconds']:.3f}s not faster "
            f"than legacy {legacy_km_seconds:.3f}s on a multi-core host"
        )
    _RESULTS["training"] = {
        "rows": TRAIN_ROWS,
        "cores": os.cpu_count(),
        "kmeans": {
            "k": KMEANS_K,
            "iterations": KMEANS_ITERS,
            "legacy_seconds": legacy_km_seconds,
            "unified_w1_seconds": rows[1]["kmeans_seconds"],
            "unified_w4_wall_seconds": rows[4]["kmeans_seconds"],
            "unified_w4_serialized_seconds": rows[4]["kmeans_serial"],
            "unified_w4_modeled_seconds": modeled_w4,
            "modeled_speedup_w4_vs_legacy": speedup,
            "parallel_scans_w4": rows[4]["parallel_scans"],
        },
        "linreg": {
            "legacy_seconds": legacy_lr_seconds,
            "unified_w1_seconds": rows[1]["linreg_seconds"],
            "unified_w4_wall_seconds": rows[4]["linreg_seconds"],
            "unified_w4_serialized_seconds": rows[4]["linreg_serial"],
            "unified_w4_modeled_seconds": rows[4]["linreg_modeled"],
        },
        "identity": "centroids/coefficients rtol<=1e-9, assignments exact",
    }


def scoring_system():
    db = make_system(parallel_workers=4)
    conn = db.connect()
    create_churn_table(conn, count=SCORE_ROWS, accelerate=True)
    conn.execute(
        "CALL INZA.LINEAR_REGRESSION('intable=CHURN, "
        f"target={LINREG_TARGET}, model=PRICE, id=CUST_ID, "
        f"incolumn={';'.join(LINREG_FEATURES)}')"
    )
    return db, conn


def test_e19_predict_vs_per_row_scoring(record):
    """One vectorized PREDICT scan vs one scoring call per tuple.

    The per-tuple loop is what the procedure interface forces on an
    application scoring interactively: per row, look the model up and
    run the scorer on a 1-row matrix — exactly the work each scoring
    CALL repeats, minus SQL overhead, so the measured ratio is a lower
    bound on the real per-CALL gap. Outputs must match bitwise."""
    db, conn = scoring_system()
    predict_sql = (
        "SELECT CUST_ID, "
        f"PREDICT(PRICE, {', '.join(LINREG_FEATURES)}) "
        "FROM CHURN ORDER BY CUST_ID"
    )
    sum_sql = (
        f"SELECT SUM(PREDICT(PRICE, {', '.join(LINREG_FEATURES)})) "
        "FROM CHURN"
    )
    conn.execute(sum_sql)  # warm the plan cache and scorer cache

    vector_seconds, _ = best_of(lambda: conn.execute(sum_sql).scalar())

    ctx = ProcedureContext(db, conn, {})
    matrix = ctx.read_matrix("CHURN", LINREG_FEATURES)

    def per_row():
        out = np.empty(matrix.shape[0])
        for i in range(matrix.shape[0]):
            model = db.models.get("PRICE")
            out[i] = build_scorer(model).score(matrix[i : i + 1])[0]
        return out

    per_row_seconds, per_row_scores = best_of(per_row, repeats=1)

    predicted = conn.execute(predict_sql).rows
    assert len(predicted) == SCORE_ROWS
    assert np.array_equal(
        np.array([row[1] for row in predicted]), per_row_scores
    ), "vectorized PREDICT diverged from per-row scoring"

    ratio = per_row_seconds / vector_seconds
    record(
        "E19 unified analytics",
        f"scoring {SCORE_ROWS} rows: vectorized PREDICT scan "
        f"{vector_seconds * 1000:.0f}ms vs per-row calls "
        f"{per_row_seconds * 1000:.0f}ms ({ratio:.1f}x)",
    )
    assert ratio >= 5.0, (
        f"vectorized PREDICT only {ratio:.1f}x faster than per-row scoring"
    )
    _RESULTS["scoring"] = {
        "rows": SCORE_ROWS,
        "vectorized_seconds": vector_seconds,
        "per_row_seconds": per_row_seconds,
        "speedup": ratio,
        "identity": "bitwise",
    }


def test_e19_export(record):
    """Everything lands in results/e19_unified_analytics.json."""
    payload = {
        "experiment": "E19",
        "smoke": SMOKE,
        "training": _RESULTS.get("training"),
        "scoring": _RESULTS.get("scoring"),
    }
    json.dumps(payload, allow_nan=False)
    target = export_json(RESULTS_DIR / "e19_unified_analytics.json", payload)
    written = json.loads(target.read_text())
    assert written["experiment"] == "E19"
    record(
        "E19 unified analytics",
        "exported training + scoring numbers "
        "-> results/e19_unified_analytics.json",
    )
