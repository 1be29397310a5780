"""E18 — Cost-based optimizer: Q-error vs the fixed-selectivity baseline.

PR-7 (E17) froze the legacy estimator's error into a standing Q-error
corpus; this experiment measures how far statistics (zone-map seeding +
RUNSTATS histograms/NDVs) move the needle, and proves the optimizer's
other two levers are safe:

* replays the E17 corpus (plus multi-join shapes) on two identically
  loaded systems — one with statistics invalidated (the legacy
  fixed-selectivity model), one after ``SYSPROC.ACCEL_RUNSTATS`` — and
  asserts the statistics-driven estimator improves BOTH the median and
  the maximum per-operator Q-error;
* gates against the committed E17 baseline numbers
  (``benchmarks/results/e17_profiler.json``) so a regression in the
  estimator fails CI even if the in-process baseline drifts;
* asserts optimizer statistics and join re-association change no answer,
  byte for byte;
* records the routing mix under ENABLE, which the cost advice decides,
  and exports everything to
  ``benchmarks/results/e18_optimizer.json`` (uploaded as a CI artifact).

Set ``E18_SMOKE=1`` (the CI smoke job does) for a fast small-data run.
"""

import json
import os
import statistics
from pathlib import Path

from bench_e17_profiler import CORPUS
from bench_util import make_system
from repro.obs.export import export_json, qerror_summary
from repro.sql import logical
from repro.workloads import create_star_schema

RESULTS_DIR = Path(__file__).parent / "results"
SMOKE = os.environ.get("E18_SMOKE", "") not in ("", "0")

SCALE = dict(customers=60, products=20, transactions=600) if SMOKE else dict(
    customers=300, products=50, transactions=5000
)

#: Multi-join shapes on top of the E17 corpus: the join-cardinality and
#: re-association surface the single-table corpus cannot reach.
JOIN_CORPUS = [
    "SELECT C.C_REGION, P.P_CATEGORY, SUM(T.T_AMOUNT) AS REV "
    "FROM TRANSACTIONS T "
    "JOIN CUSTOMERS C ON T.T_CUSTOMER = C.C_ID "
    "JOIN PRODUCTS P ON T.T_PRODUCT = P.P_ID "
    "GROUP BY C.C_REGION, P.P_CATEGORY ORDER BY 1, 2",
    # Dimension self-join: the written shape joins the fact table first,
    # which the re-association stage provably improves.
    "SELECT COUNT(*) FROM TRANSACTIONS T "
    "JOIN CUSTOMERS C ON T.T_CUSTOMER = C.C_ID "
    "JOIN CUSTOMERS C2 ON C.C_ID = C2.C_ID",
    "SELECT P.P_CATEGORY, COUNT(*) AS N FROM TRANSACTIONS T "
    "JOIN PRODUCTS P ON T.T_PRODUCT = P.P_ID "
    "WHERE T.T_QUANTITY >= 2 GROUP BY P.P_CATEGORY ORDER BY N DESC",
]

E18_CORPUS = CORPUS + JOIN_CORPUS

_RESULTS: dict[str, object] = {}


def build_system(with_statistics: bool):
    """One loaded star-schema system per estimator flavour.

    ``with_statistics=False`` drops every statistic after load, so the
    estimator runs exactly the legacy fixed-selectivity model the E17
    baseline was recorded with; ``True`` upgrades the zone-map seeds
    with a full RUNSTATS pass (histograms + NDVs)."""
    db = make_system(profiling_enabled=True)
    conn = db.connect()
    create_star_schema(conn, **SCALE)
    conn.set_acceleration("ENABLE")
    if with_statistics:
        db.run_statistics()
    else:
        db.stats.invalidate()
    return db, conn


def run_corpus(conn, corpus=E18_CORPUS):
    for sql in corpus:
        conn.execute(sql)


def qerror_metrics(db) -> dict:
    """Median/mean/max per-operator Q-error from the feedback store.

    Every corpus query runs exactly once, so the feedback store holds
    pure estimator error — no feedback self-correction in the loop."""
    errors = [e.mean_q_error for e in db.profiler.feedback.entries()]
    assert errors
    return {
        "operators": len(errors),
        "median_q_error": statistics.median(errors),
        "mean_q_error": sum(errors) / len(errors),
        "max_q_error": max(errors),
    }


def test_e18_qerror_improvement(record):
    """Statistics must beat fixed selectivities on median AND max."""
    base_db, base_conn = build_system(with_statistics=False)
    run_corpus(base_conn)
    baseline = qerror_metrics(base_db)

    opt_db, opt_conn = build_system(with_statistics=True)
    run_corpus(opt_conn)
    optimized = qerror_metrics(opt_db)

    _RESULTS["baseline"] = baseline
    _RESULTS["optimized"] = optimized
    record(
        "E18 optimizer",
        f"fixed selectivities: median_q={baseline['median_q_error']:.2f} "
        f"mean_q={baseline['mean_q_error']:.2f} "
        f"max_q={baseline['max_q_error']:.2f} "
        f"({baseline['operators']} operators)",
    )
    record(
        "E18 optimizer",
        f"with statistics:     median_q={optimized['median_q_error']:.2f} "
        f"mean_q={optimized['mean_q_error']:.2f} "
        f"max_q={optimized['max_q_error']:.2f} "
        f"({optimized['operators']} operators)",
    )
    # At smoke scale both medians can bottom out at the perfect 1.0, so
    # the median gate is <=; mean and max must improve strictly.
    assert optimized["median_q_error"] <= baseline["median_q_error"]
    assert optimized["mean_q_error"] < baseline["mean_q_error"]
    assert optimized["max_q_error"] < baseline["max_q_error"]


def test_e18_regression_gate_vs_committed_e17(record):
    """The committed E17 numbers are the frozen fixed-selectivity
    baseline; the statistics-driven estimator must beat them on both
    mean and max. (CI runs E18 before E17 re-exports that file.)"""
    committed = json.loads(
        (RESULTS_DIR / "e17_profiler.json").read_text()
    )["qerror"]
    optimized = _RESULTS.get("optimized")
    if optimized is None:  # standalone invocation of this test
        db, conn = build_system(with_statistics=True)
        run_corpus(conn)
        optimized = qerror_metrics(db)
    record(
        "E18 optimizer",
        f"regression gate: mean_q {optimized['mean_q_error']:.2f} < "
        f"{committed['mean_q_error']:.2f} (committed E17), "
        f"max_q {optimized['max_q_error']:.2f} < "
        f"{committed['max_q_error']:.2f}",
    )
    assert optimized["mean_q_error"] < committed["mean_q_error"]
    assert optimized["max_q_error"] < committed["max_q_error"]
    _RESULTS["e17_committed"] = {
        "mean_q_error": committed["mean_q_error"],
        "max_q_error": committed["max_q_error"],
    }


def test_e18_results_identical(record):
    """Neither statistics nor join re-association may change answers."""
    base_db, base_conn = build_system(with_statistics=False)
    opt_db, opt_conn = build_system(with_statistics=True)
    for sql in E18_CORPUS:
        assert base_conn.execute(sql).rows == opt_conn.execute(sql).rows, sql
    saved = logical._reorder_plan
    try:
        # Join re-association off: the stage becomes the identity.
        logical._reorder_plan = lambda plan, table_rows: plan
        flat_db, flat_conn = build_system(with_statistics=True)
        for sql in JOIN_CORPUS:
            assert (
                flat_conn.execute(sql).rows == opt_conn.execute(sql).rows
            ), sql
    finally:
        logical._reorder_plan = saved
    record(
        "E18 optimizer",
        f"byte-identity: {len(E18_CORPUS)} corpus queries identical "
        "with/without statistics; joins identical with/without reorder",
    )


def test_e18_routing_mix(record):
    """Cost advice now routes every ENABLE-mode statement; record the
    engine mix it produces over the corpus."""
    db, conn = build_system(with_statistics=True)
    start = len(db.statement_history)
    run_corpus(conn)
    records = list(db.statement_history)[start:]
    cost_routed = [r for r in records if "cost accelerator=" in (r.reason or "")]
    engines = {
        engine: sum(1 for r in records if r.engine == engine)
        for engine in ("ACCELERATOR", "DB2")
    }
    assert cost_routed, "no statement carried a cost-based routing reason"
    record(
        "E18 optimizer",
        f"routing: {len(cost_routed)}/{len(records)} statements "
        f"cost-routed (accelerator={engines['ACCELERATOR']}, "
        f"db2={engines['DB2']})",
    )
    _RESULTS["routing"] = {
        "statements": len(records),
        "cost_routed": len(cost_routed),
        **{k.lower(): v for k, v in engines.items()},
    }


def test_e18_export(record):
    """Everything lands in results/e18_optimizer.json (CI artifact)."""
    db, conn = build_system(with_statistics=True)
    run_corpus(conn)
    payload = {
        "experiment": "E18",
        "smoke": SMOKE,
        "corpus_size": len(E18_CORPUS),
        "baseline": _RESULTS.get("baseline"),
        "optimized": _RESULTS.get("optimized"),
        "e17_committed": _RESULTS.get("e17_committed"),
        "routing": _RESULTS.get("routing"),
        "qerror": qerror_summary(db, worst=5),
    }
    json.dumps(payload, allow_nan=False)
    target = export_json(RESULTS_DIR / "e18_optimizer.json", payload)
    written = json.loads(target.read_text())
    assert written["qerror"]["entries"] >= 1
    record(
        "E18 optimizer",
        f"exported {written['qerror']['entries']} feedback entries "
        "-> results/e18_optimizer.json",
    )
