"""Checks on the standing benchmark itself (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/standing -q
"""

import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

FULL = wl.SIZES["full"]


def bench(*args, env=None):
    """Run ``run.py`` as the driver would; returns (exit code, last line)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, env={**os.environ, **(env or {})},
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines[-1] if lines else ""


@pytest.fixture(scope="module")
def smoke_tables(tmp_path_factory):
    """Two full smoke passes (all workloads, untraced and traced)."""
    tables = []
    for number in range(2):
        out = tmp_path_factory.mktemp("smoke") / f"table{number}.json"
        started = time.monotonic()
        code, _ = bench("--smoke", "--trace", "--quiet", "--out", str(out))
        elapsed = time.monotonic() - started
        assert code == 0
        tables.append((json.loads(out.read_text()), elapsed))
    return tables


# -- schedules -------------------------------------------------------------------


def test_same_seed_same_schedule_and_other_seed_differs():
    for workload in wl.WORKLOADS:
        first = wl.schedule_sha256(workload, wl.DEFAULT_SEED, FULL)
        assert first == wl.schedule_sha256(workload, wl.DEFAULT_SEED, FULL)
        assert first != wl.schedule_sha256(workload, wl.HOLDOUT_SEED, FULL)


def test_both_star_workloads_get_the_same_bytes():
    assert wl.schedule_sha256("star_olap", 5, FULL) == wl.schedule_sha256(
        "star_olap_shards4", 5, FULL
    )


def test_pinned_hashes_are_current():
    pinned = json.loads(run.PINNED.read_text())
    for profile, sizes in wl.SIZES.items():
        for seed in (wl.DEFAULT_SEED, wl.HOLDOUT_SEED):
            for workload in wl.WORKLOADS:
                assert pinned[profile][str(seed)][workload] == wl.schedule_sha256(
                    workload, seed, sizes
                )


def test_a_changed_load_is_refused(tmp_path, monkeypatch):
    stale = tmp_path / "pinned.json"
    stale.write_text(json.dumps({"full": {"1": {"star_olap": "0" * 64}}}))
    monkeypatch.setattr(run, "PINNED", stale)
    with pytest.raises(SystemExit):
        run.check_pinned("star_olap", 1, "full", "f" * 64)
    run.check_pinned("star_olap", 2, "full", "f" * 64)  # unpinned seed: runs


def test_star_round_shares():
    hot = {sql for _, sql in wl.star_warmup(wl.DEFAULT_SEED)}
    for index in range(3):
        schedule = wl.star_round(wl.DEFAULT_SEED, index, FULL)
        counts = Counter(template for template, _ in schedule)
        assert len(schedule) == 50
        assert counts["date_scan"] + counts["varchar_scan"] == 5  # 10%
        assert counts["wide"] == 2
        assert sum(sql in hot for _, sql in schedule) == 20  # 40% repeat exactly
    fresh = [
        sql
        for index in range(3)
        for _, sql in wl.star_round(wl.DEFAULT_SEED, index, FULL)
        if sql not in hot
    ]
    assert len(set(fresh)) > 0.95 * len(fresh)  # the rest vary a literal


def test_oltp_round_shares():
    schedule = wl.oltp_round(wl.DEFAULT_SEED, 0, FULL)
    counts = Counter(template for template, _, _ in schedule)
    base = FULL["oltp_round"]
    for template, share in wl.OLTP_MIX.items():
        assert counts[template] == round(base * share)
    for template in wl.OLTP_TXN:
        assert counts[template] == FULL["oltp_txns"]
    ends = [
        sql
        for index in range(4)
        for template, sql, _ in wl.oltp_round(wl.DEFAULT_SEED, index, FULL)
        if template == "txn_end"
    ]
    assert ends.count("ROLLBACK") * wl.ROLLBACK_EVERY == len(ends)


def test_oltp_schedule_never_misses_a_row():
    """Inserts take fresh ids and every delete finds its row, for more
    rounds than any run reaches, so no scheduled operation can fail."""
    stable, total = wl._oltp_keys(FULL)
    live = set(range(1, total + 1))
    for index in range(40):
        for template, sql, _ in wl.oltp_round(wl.HOLDOUT_SEED, index, FULL):
            if template == "insert":
                key = int(re.search(r"VALUES \((\d+),", sql).group(1))
                assert key not in live
                live.add(key)
            elif template == "delete":
                key = int(re.search(r"t_id = (\d+)", sql).group(1))
                assert key > stable
                live.remove(key)
            elif template in ("point_select", "hot_select", "update", "txn_update"):
                assert int(re.search(r"t_id = (\d+)", sql).group(1)) <= stable


# -- the benchmark's declaration ---------------------------------------------------


def test_benchmark_json_meets_the_contract():
    spec = run.load_spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["paths"] == ["benchmarks/standing"]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(
        set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
        for m in spec["end_to_end"]
    )
    assert all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"])
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert run.EXACT <= {m["name"] for m in spec["per_layer"]}
    # 4 + 22 runs per workload, each set-up ×5 + warm-up + run_seconds.
    assert (4 + 22 * len(spec["workloads"])) * (spec["run_seconds"] + 15) < 3420


# -- runs ----------------------------------------------------------------------------


def test_smoke_pass_is_correct_quick_and_complete(smoke_tables):
    spec = run.load_spec()
    for table, elapsed in smoke_tables:
        assert elapsed < 30
        assert set(table) == set(wl.WORKLOADS)
        for workload, runs in table.items():
            end_to_end = dict(runs["end_to_end"])
            end_to_end.pop("shard.scaleout_ratio", None)
            assert set(end_to_end) == {m["name"] for m in spec["end_to_end"]}
            assert all(value > 0 for value in end_to_end.values()), workload
            assert set(runs["per_layer"]) == {m["name"] for m in spec["per_layer"]}
    # Every declared per-layer metric is entered by at least one workload.
    table = smoke_tables[0][0]
    idle = {
        m["name"]
        for m in spec["per_layer"]
        if not any(table[w]["per_layer"][m["name"]] for w in wl.WORKLOADS)
    }
    assert idle <= {"wlm.admit_s", "accelerator.chunks_skipped"}, idle


def test_exact_metrics_repeat_exactly(smoke_tables):
    first, second = (table for table, _ in smoke_tables)
    for workload in wl.WORKLOADS:
        for name in run.EXACT:
            assert (
                first[workload]["per_layer"][name]
                == second[workload]["per_layer"][name]
            ), (workload, name)


def test_each_workload_stresses_its_layer(smoke_tables):
    layer = {w: smoke_tables[0][0][w]["per_layer"] for w in wl.WORKLOADS}
    assert layer["star_olap"]["shard.fanout_s"] == 0
    sharded = layer["star_olap_shards4"]
    assert sharded["shard.coordinator_s"] > 0
    assert 0 < sharded["shard.slowest_shard_s"] <= sharded["shard.fanout_s"]
    assert layer["oltp_replicated"]["federation.replication_records"] > 0
    assert layer["oltp_replicated"]["accelerator.apply_changes_s"] > 0
    assert layer["elt_mining"]["analytics.epochs"] > 0
    assert layer["elt_mining"]["loader.load_s"] > 0
    assert layer["elt_mining"]["accelerator.insert_into_s"] > 0


def test_shards_environment_cannot_change_a_run():
    code, line = bench(
        "--smoke", "--workload", "star_olap", "--trace", "1", env={"SHARDS": "4"}
    )
    assert code == 0
    metrics = json.loads(line)["metrics"]
    assert metrics["shard.fanout_s"]["value"] == 0
    assert metrics["shard.shards_touched_per_stmt"]["value"] == 0


def test_a_failed_oracle_exits_non_zero(tmp_path):
    out = tmp_path / "star.json"
    code, _ = bench("--smoke", "--workload", "star_olap", "--out", str(out))
    assert code == 0
    expected = json.loads(out.read_text())["info"]["results_sha256"]
    code, line = bench(
        "--smoke", "--workload", "star_olap_shards4",
        "--expect-results-sha256", expected,
    )
    assert code == 0 and json.loads(line)["correct"] is True
    # One corrupted expected checksum: the run must say so and fail.
    code, line = bench(
        "--smoke", "--workload", "star_olap_shards4",
        "--expect-results-sha256", "0" + expected[1:],
    )
    result = json.loads(line)
    assert code != 0 and result["correct"] is False and result["failed"] == 1


def test_recorder_accounts_for_all_time_and_uninstalls_cleanly():
    layers.self_test()


# -- comparison ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "before, after, better, expected",
    [
        (100.0, 104.0, "lower", "within-bound"),
        (100.0, 112.0, "lower", "worse"),
        (100.0, 88.0, "lower", "better"),
        (100.0, 88.0, "higher", "worse"),
        ([100, 101, 99, 100], [101, 100, 100, 102], "lower", "within-bound"),
        ([100, 101, 99, 100], [115, 116, 114, 117], "lower", "worse"),
        ([100, 101, 99, 100], [90, 91, 89, 92], "lower", "better"),
        ([100, 140, 70, 110], [120, 100, 90, 130], "lower", "unresolved"),
    ],
)
def test_verdict(before, after, better, expected):
    assert run.verdict(before, after, better, 0.10) == expected
