"""E10 — Ablation: what makes accelerator execution fast here.

DESIGN.md §5 calls out three design choices; each is toggled in
isolation:

* vectorised columnar execution vs the row-at-a-time model
  (engine-level comparison on an identical scan);
* zone-map chunk skipping on a selective range predicate;
* slice parallelism (simulated SPU count) via the busy-time model.
"""

import pytest

from repro import AcceleratedDatabase
from repro.sql import parse_statement

from bench_util import make_star_system

_TIMES: dict[str, float] = {}


@pytest.fixture(scope="module")
def system():
    return make_star_system(500, 50, 20000)


@pytest.mark.parametrize("engine", ["row_at_a_time", "vectorised"])
def test_e10_execution_model(benchmark, record, system, engine):
    db, conn = system
    conn.set_acceleration("NONE" if engine == "row_at_a_time" else "ALL")
    sql = (
        "SELECT t_quantity, COUNT(*), SUM(t_amount), AVG(t_amount) "
        "FROM transactions GROUP BY t_quantity"
    )

    def run():
        return conn.execute(sql)

    benchmark(run)
    _TIMES[engine] = benchmark.stats.stats.mean
    if len([k for k in _TIMES if k in ("row_at_a_time", "vectorised")]) == 2:
        ratio = _TIMES["row_at_a_time"] / _TIMES["vectorised"]
        record(
            "E10 ablation",
            f"execution model: row-at-a-time="
            f"{_TIMES['row_at_a_time'] * 1000:8.2f}ms "
            f"vectorised={_TIMES['vectorised'] * 1000:8.2f}ms "
            f"advantage={ratio:5.1f}x",
        )
        assert ratio > 2


@pytest.mark.parametrize("zone_maps", ["on", "off"])
def test_e10_zone_maps(benchmark, record, zone_maps):
    # Small chunks + clustered ids make skipping meaningful.
    db = AcceleratedDatabase(slice_count=4, chunk_rows=1024)
    conn = db.connect()
    conn.execute("CREATE TABLE M (ID INTEGER, V DOUBLE) IN ACCELERATOR")
    for start in range(0, 60000, 10000):
        values = ", ".join(
            f"({i}, {float(i % 97)})" for i in range(start, start + 10000)
        )
        conn.execute(f"INSERT INTO M VALUES {values}")
    db.accelerator.zone_maps_enabled = zone_maps == "on"
    sql = "SELECT COUNT(*), SUM(v) FROM m WHERE id BETWEEN 31000 AND 32000"

    def run():
        return conn.execute(sql)

    result = benchmark(run)
    assert result.rows[0][0] == 1001
    skipped = db.accelerator.chunks_skipped
    _TIMES[f"zm_{zone_maps}"] = benchmark.stats.stats.mean
    record(
        "E10 ablation",
        f"zone maps {zone_maps:<3}: "
        f"mean={benchmark.stats.stats.mean * 1e6:9.1f}us "
        f"chunks_skipped_total={skipped}",
    )
    if "zm_on" in _TIMES and "zm_off" in _TIMES:
        record(
            "E10 ablation",
            f"zone-map speedup on selective scan = "
            f"{_TIMES['zm_off'] / _TIMES['zm_on']:5.1f}x",
        )


@pytest.mark.parametrize("slices", [1, 2, 4, 8])
def test_e10_slice_parallelism(benchmark, record, slices):
    """Simulated SPU scaling: modelled busy time divides by slice count
    (wall time is host-bound in this simulation, so the model is the
    observable — exactly the substitution DESIGN.md documents)."""
    db = AcceleratedDatabase(slice_count=slices, chunk_rows=4096)
    conn = db.connect()
    conn.execute("CREATE TABLE S (ID INTEGER, V DOUBLE) IN ACCELERATOR")
    for start in range(0, 40000, 10000):
        values = ", ".join(
            f"({i}, 1.0)" for i in range(start, start + 10000)
        )
        conn.execute(f"INSERT INTO S VALUES {values}")
    sql = "SELECT SUM(v) FROM s"

    busy = []

    def run():
        before = db.accelerator.simulated_busy_seconds
        conn.execute(sql)
        busy.append(db.accelerator.simulated_busy_seconds - before)

    benchmark.pedantic(run, rounds=5, iterations=1)
    record(
        "E10 ablation",
        f"slices={slices}: simulated scan busy time "
        f"{busy[-1] * 1e6:9.2f}us/query "
        f"(wall {benchmark.stats.stats.mean * 1e3:7.2f}ms)",
    )


@pytest.mark.parametrize("groomed", ["before", "after"])
def test_e10_groom(benchmark, record, groomed):
    """GROOM ablation: scanning a table where 80% of rows are deleted,
    before vs after reclaiming the dead versions."""
    db = AcceleratedDatabase(slice_count=4, chunk_rows=2048)
    conn = db.connect()
    conn.execute("CREATE TABLE G (ID INTEGER, V DOUBLE) IN ACCELERATOR")
    for start in range(0, 50000, 10000):
        values = ", ".join(
            f"({i}, {float(i % 13)})" for i in range(start, start + 10000)
        )
        conn.execute(f"INSERT INTO G VALUES {values}")
    conn.execute("DELETE FROM g WHERE id % 5 <> 0")  # 80% dead versions
    if groomed == "after":
        db.accelerator.groom("G")
    sql = "SELECT COUNT(*), SUM(v) FROM g"

    def run():
        return conn.execute(sql)

    result = benchmark(run)
    assert result.rows[0][0] == 10000
    table = db.accelerator.storage_for("G")
    physical = sum(len(c) for c in table.iter_chunks())
    _TIMES[f"groom_{groomed}"] = benchmark.stats.stats.mean
    record(
        "E10 ablation",
        f"groom {groomed:<6}: mean="
        f"{benchmark.stats.stats.mean * 1e6:9.1f}us "
        f"physical_rows={physical}",
    )
    if "groom_before" in _TIMES and "groom_after" in _TIMES:
        record(
            "E10 ablation",
            f"groom speedup on 80%-deleted table = "
            f"{_TIMES['groom_before'] / _TIMES['groom_after']:5.1f}x",
        )
