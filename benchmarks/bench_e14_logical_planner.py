"""E14 — The shared logical-plan layer: plan once, execute many.

Three questions about the planner introduced for both executors:

* what does binding + rewriting cost, and what does caching the bound
  plan save on repeat executions (plan-once/execute-many vs re-binding
  per statement)?
* how many fewer rows does the accelerator materialise once predicate
  pushdown turns derived-table predicates into scan predicates (and
  therefore zone-map ranges)?
* through the full system, does the statement plan cache — which now
  also carries the bound logical plan — sustain the PR-3 hit-rate bar
  (>= 98%) on a repeated-statement workload?

Results land in ``benchmarks/results/e14_logical_planner.json``. Set
``E14_SMOKE=1`` (the CI smoke job does) to shrink the dataset and
iteration counts for a fast correctness-only pass.
"""

import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

from bench_util import make_star_system
from repro.accelerator import AcceleratorEngine
from repro.catalog import Catalog, Column, TableLocation, TableSchema
from repro.federation import accelerator_shards
from repro.federation.router import CachedPlan
from repro.sql import parse_statement
from repro.sql.logical import plan_statement
from repro.sql.types import DOUBLE, INTEGER, VarcharType

RESULTS_DIR = Path(__file__).parent / "results"

SMOKE = os.environ.get("E14_SMOKE", "") not in ("", "0")

#: Fact-table rows for the engine-level sections.
FACT_ROWS = 20_000 if SMOKE else 160_000
#: Timed iterations per configuration.
ITERATIONS = 3 if SMOKE else 9
#: Repeats of each statement for the plan-cache section.
CACHE_REPEATS = 60 if SMOKE else 100

#: Queries whose selective predicate sits *above* a derived table — only
#: pushdown can turn it into scan ranges, so the rows-scanned delta is
#: attributable to the rewriter.
PUSHDOWN_QUERIES = [
    "SELECT sub.id, sub.v FROM (SELECT id, v FROM f) AS sub "
    "WHERE sub.id > {hi} ORDER BY sub.id",
    "SELECT COUNT(*), MIN(sub.v) FROM (SELECT id, v FROM f) AS sub "
    "WHERE sub.id BETWEEN {mid} AND {mid_hi}",
    "SELECT sub.g, COUNT(*) FROM (SELECT id, g FROM f) AS sub "
    "WHERE sub.id > {hi} GROUP BY sub.g ORDER BY 1",
]

#: Statements for the plan-once/execute-many timing section.
OVERHEAD_QUERIES = [
    "SELECT COUNT(*), MIN(v), MAX(v) FROM f WHERE v > 1.0",
    "SELECT g, COUNT(*) FROM f WHERE id > 1000 GROUP BY g ORDER BY 1",
    "SELECT sub.id FROM (SELECT id, v FROM f) AS sub "
    "WHERE sub.v > 2.5 ORDER BY sub.id LIMIT 50",
]

_RESULTS: dict[str, object] = {}


def _fact_engine() -> AcceleratorEngine:
    catalog = Catalog()
    engine = AcceleratorEngine(catalog, accelerator_shards(), slice_count=4, chunk_rows=4096)
    schema = TableSchema(
        [
            Column("ID", INTEGER, nullable=False),
            Column("V", DOUBLE),
            Column("G", VarcharType(8)),
        ]
    )
    descriptor = catalog.create_table(
        "F", schema, location=TableLocation.ACCELERATOR_ONLY
    )
    engine.create_storage(descriptor)
    values = np.random.default_rng(14).normal(size=FACT_ROWS)
    engine.bulk_insert(
        "F",
        [
            (int(i), float(values[i]), f"g{i % 7}")
            for i in range(FACT_ROWS)
        ],
    )
    return engine


def _pushdown_sql(template: str) -> str:
    return template.format(
        hi=int(FACT_ROWS * 0.95),
        mid=int(FACT_ROWS * 0.50),
        mid_hi=int(FACT_ROWS * 0.55),
    )


def test_e14_rows_scanned_reduction(record):
    """Pushdown into derived-table scans must cut materialised rows."""
    engine = _fact_engine()
    per_query = []
    for template in PUSHDOWN_QUERIES:
        sql = _pushdown_sql(template)
        stmt = parse_statement(sql)
        scanned = {}
        results = {}
        for label, rewrite in (("off", False), ("on", True)):
            plan = plan_statement(stmt, rewrite=rewrite)
            before = engine.rows_scanned
            results[label] = engine.execute_select(stmt, plan=plan)
            scanned[label] = engine.rows_scanned - before
        assert results["on"] == results["off"], sql  # same bytes out
        assert scanned["on"] < scanned["off"], sql
        reduction = 1 - scanned["on"] / scanned["off"]
        per_query.append(
            {
                "query": sql[:70],
                "rows_scanned_off": scanned["off"],
                "rows_scanned_on": scanned["on"],
                "reduction": round(reduction, 4),
            }
        )
        record(
            "E14 logical planner",
            f"pushdown rows_scanned: off={scanned['off']:>8} "
            f"on={scanned['on']:>8} (-{reduction * 100:5.1f}%) "
            f"{sql[:48]}",
        )
    # The selective derived-table scans must skip most chunks.
    assert max(q["reduction"] for q in per_query) > 0.5
    _RESULTS["rows_scanned"] = per_query


def test_e14_plan_once_execute_many(record):
    """Binding cost per statement, and the saving from a cached plan."""
    engine = _fact_engine()
    statements = [parse_statement(sql) for sql in OVERHEAD_QUERIES]
    plans = [plan_statement(stmt) for stmt in statements]

    plan_iters = 200 if SMOKE else 1000
    start = time.perf_counter()
    for __ in range(plan_iters):
        for stmt in statements:
            plan_statement(stmt)
    plan_us = (
        (time.perf_counter() - start) / (plan_iters * len(statements)) * 1e6
    )

    def run(payloads):
        times = []
        for __ in range(ITERATIONS):
            start = time.perf_counter()
            for payload in payloads:
                engine.execute_select(
                    payload if not isinstance(payload, tuple) else payload[0],
                    plan=None if not isinstance(payload, tuple) else payload[1],
                )
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    rebind = run(statements)  # engine binds + rewrites per execution
    cached = run(list(zip(statements, plans)))  # plan once, execute many
    saving = 1 - cached / rebind
    record(
        "E14 logical planner",
        f"bind+rewrite={plan_us:7.1f}us/stmt  "
        f"exec rebind={rebind * 1000:8.2f}ms "
        f"cached-plan={cached * 1000:8.2f}ms "
        f"(saving {saving * 100:5.1f}%)",
    )
    _RESULTS["plan_overhead"] = {
        "bind_rewrite_us_per_stmt": round(plan_us, 2),
        "exec_rebind_ms": round(rebind * 1000, 3),
        "exec_cached_plan_ms": round(cached * 1000, 3),
        "cached_plan_saving": round(saving, 4),
    }
    # Sanity, not a performance assertion: planning is microseconds,
    # execution is milliseconds, so the cached path must not be slower
    # by more than noise.
    assert cached < rebind * 1.25


def test_e14_plan_cache_hit_rate(record):
    """Full system: repeated statements reuse the cached logical plan."""
    db, conn = make_star_system(200, 40, 4000 if SMOKE else 12000)
    conn.set_acceleration("ALL")
    statements = [
        "SELECT COUNT(*), SUM(t_amount) FROM transactions "
        "WHERE t_amount BETWEEN 500 AND 1500",
        "SELECT t_quantity, COUNT(*) FROM transactions "
        "GROUP BY t_quantity ORDER BY 1",
    ]
    # The loading INSERTs are cached by shape too: rate only the repeats.
    before = db.plan_cache.snapshot()
    for __ in range(CACHE_REPEATS):
        for sql in statements:
            conn.execute(sql)
    snapshot = db.plan_cache.snapshot()
    hits = snapshot["hits"] - before["hits"]
    hit_rate = hits / (hits + snapshot["misses"] - before["misses"])
    cached_logical = sum(
        1
        for plan in db.plan_cache._entries.values()
        if isinstance(plan, CachedPlan) and plan.logical is not None
    )
    record(
        "E14 logical planner",
        f"plan cache: repeats={CACHE_REPEATS} hit_rate={hit_rate:.4f} "
        f"logical_plans_cached={cached_logical} "
        f"kernel_hits={snapshot['kernel_hits']}",
    )
    # PR-3 baseline: the repeated-statement hit rate stays >= 98%.
    assert hit_rate >= 0.98
    assert cached_logical == len(statements)
    assert snapshot["kernel_hits"] > 0
    _RESULTS["plan_cache"] = {
        "repeats": CACHE_REPEATS,
        "hit_rate": round(hit_rate, 4),
        "logical_plans_cached": cached_logical,
        "kernel_hits": snapshot["kernel_hits"],
        "kernel_misses": snapshot["kernel_misses"],
    }


def test_e14_export_results():
    """Write the collected numbers for EXPERIMENTS.md to quote."""
    assert "rows_scanned" in _RESULTS
    payload = {
        "experiment": "E14",
        "smoke": SMOKE,
        "fact_rows": FACT_ROWS,
        **_RESULTS,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    target = RESULTS_DIR / "e14_logical_planner.json"
    target.write_text(json.dumps(payload, indent=2) + "\n")
    written = json.loads(target.read_text())
    assert written["plan_cache"]["hit_rate"] >= 0.98
