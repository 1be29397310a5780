"""The repo's standing wall-clock benchmark.

    python benchmarks/standing/run.py                 # all four workloads
    python benchmarks/standing/run.py --trace         # + the per-layer account
    python benchmarks/standing/run.py --workload oltp_replicated --seed 706707 \
        --seconds 12 --trace 0                        # one run, as the driver does
    python benchmarks/standing/run.py --smoke         # 1/20 size, oracle on
    python benchmarks/standing/run.py --aa 6          # A/A noise table
    python benchmarks/standing/run.py --compare A.json B.json

A single-workload run prints every metric by name and unit and, as its last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``. It
exits non-zero when an operation failed or an oracle disagreed. README.md in
this directory defines the workloads, the metrics and how they interact.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
RESULTS = HERE / "results"
PINNED = HERE / "pinned_schedules.json"
SPEC = REPO / "BENCHMARK.json"

sys.path[:0] = [str(REPO / "src"), str(HERE)]
try:
    import repro
except ImportError as exc:  # a checkout without the program under test
    sys.exit(f"cannot import the program under test from {REPO / 'src'}: {exc}")
if REPO / "src" not in Path(repro.__file__).resolve().parents:
    sys.exit(f"refusing to measure {repro.__file__}: not this checkout's src/")

import harness  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402

clock = time.perf_counter

SETUPS_BEFORE, SETUPS_AFTER = 3, 2
MIN_ROUNDS = 3

#: Per-layer metrics that must repeat exactly for a fixed seed: counts and
#: modeled seconds, taken from the first traced round. A later change may
#: rest a claim on one only as a count, never as a speed-up.
EXACT = frozenset(
    {
        "sql.parse_calls", "sql.plan_calls",
        "federation.plan_cache_hit_ratio", "federation.replication_drains",
        "federation.replication_records", "federation.interconnect_calls",
        "federation.interconnect_bytes", "federation.interconnect_modeled_s",
        "catalog.privilege_checks", "wlm.admits", "db2.select_calls",
        "db2.dml_calls", "accelerator.select_calls",
        "accelerator.to_rows_calls", "accelerator.rows_boxed",
        "accelerator.rows_scanned", "accelerator.chunks_skipped",
        "accelerator.simulated_busy_s", "shard.shards_touched_per_stmt",
        "analytics.calls", "analytics.epochs", "analytics.predict_rows",
        "obs.tracer_spans",
    }
)


def load_spec() -> dict:
    with open(SPEC) as handle:
        return json.load(handle)


def percentile(ordered: list, fraction: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def pooled(pairs) -> dict[str, list]:
    """``(name, seconds)`` pairs grouped by name."""
    grouped: dict[str, list] = {}
    for name, took in pairs:
        grouped.setdefault(name, []).append(took)
    return grouped


def check_pinned(workload: str, seed: int, profile: str, sha: str) -> None:
    """Refuse to run a pinned seed whose generated load has changed."""
    with open(PINNED) as handle:
        pinned = json.load(handle)
    expected = pinned.get(profile, {}).get(str(seed), {}).get(workload)
    if expected is not None and expected != sha:
        sys.exit(
            f"schedule_sha256 for {workload} seed {seed} ({profile}) is {sha}, "
            f"pinned {expected}: the generated load changed; refusing to run"
        )


# -- one workload, one process -------------------------------------------------


def fresh_setup(workload: harness.Workload) -> float:
    if workload.db is not None:
        workload.close()
        gc.collect()
    return workload.open()


def run_untraced(workload: harness.Workload, seconds: float) -> tuple[dict, dict]:
    """Set-up, warm-up, rounds for ``seconds``, probe, end-state oracle.

    Three of the five timed set-ups run before the rounds and two after
    them: this host slows down for ten seconds at a time, and five
    set-ups back to back can all land in one such spell.
    """
    setups = [fresh_setup(workload) for _ in range(SETUPS_BEFORE)]
    workload.warm_up()
    rounds = []
    first_results = None
    started = clock()
    while len(rounds) < MIN_ROUNDS or clock() - started < seconds:
        workload.prepare_round()
        outcome = workload.run_round(len(rounds), keep_results=not rounds)
        if not rounds:
            first_results, outcome.results = outcome.results, []
        rounds.append(outcome)
    train_s = workload.train_seconds(rounds)
    workload.finish(len(rounds))
    setups += [fresh_setup(workload) for _ in range(SETUPS_AFTER)]
    samples = sorted(seconds for r in rounds for _, seconds in r.ops)
    metrics = {
        "stmts_per_s": median(r.statements / r.wall for r in rounds),
        "p50_ms": percentile(samples, 0.50) * 1000.0,
        "p95_ms": percentile(samples, 0.95) * 1000.0,
        "pipeline_s": median(r.wall for r in rounds),
        "train_s": train_s,
        "setup_s": median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "rounds": len(rounds),
        "latency_samples": len(samples),
        "statements": sum(r.statements for r in rounds),
        "round_walls_s": [round(r.wall, 3) for r in rounds],
    }
    if isinstance(workload, harness.StarOlap):
        info["results_sha256"] = harness.results_sha256(first_results)
    return metrics, info


def run_traced(workload: harness.Workload, seconds: float) -> tuple[dict, dict]:
    """Round 0 traced (exact counts, trace file), then untraced and traced
    rounds in turn; the gap between their walls is the recorder's cost."""
    workload.open()
    workload.warm_up()
    recorder = layers.Recorder()
    traced, untraced, summaries = [], [], []
    index = 0
    started = clock()
    while index < MIN_ROUNDS or clock() - started < seconds:
        workload.prepare_round()
        if index % 2 == 0:
            recorder.reset()
            recorder.install(workload.db, workload.conn)
            try:
                outcome = workload.run_round(index)
            finally:
                moved = recorder.uninstall()
            summaries.append(layers.summarize(recorder.spans, recorder.counters, moved))
            traced.append(outcome)
            if index == 0:
                RESULTS.mkdir(exist_ok=True)
                layers.write_trace(
                    RESULTS / f"trace_{workload.name}.json", recorder.spans
                )
        else:
            untraced.append(workload.run_round(index))
        index += 1
    workload.finish(index)

    metrics = {}
    for name in summaries[0]:
        if name in EXACT:
            metrics[name] = summaries[0][name]
        else:
            metrics[name] = median(s[name] for s in summaries)
    ops = pooled(op for outcome in traced for op in outcome.ops)
    if isinstance(workload, harness.EltMining):
        for stage, values in ops.items():
            metrics[f"pipeline.stage.{stage}.p50_s"] = median(values)
    else:
        for template, values in ops.items():
            metrics[f"connection.class.{template}.p50_ms"] = median(values) * 1000.0
    calls = pooled(call for outcome in traced for call in outcome.procedures)
    for procedure, values in calls.items():
        metrics[f"analytics.stage.{procedure.removeprefix('INZA.')}.p50_s"] = median(values)
    samples = sorted(s for outcome in traced for _, s in outcome.ops)
    metrics["connection.p99_ms"] = percentile(samples, 0.99) * 1000.0
    metrics["trace.overhead_frac"] = (
        median(r.wall for r in traced) / median(r.wall for r in untraced) - 1.0
    )
    info = {
        "rounds": index,
        "traced_rounds": len(traced),
        "latency_samples": len(samples),
        "trace_file": f"results/trace_{workload.name}.json",
    }
    return metrics, info


def run_one(args) -> int:
    spec = load_spec()
    profile = "smoke" if args.smoke else "full"
    sizes = wl.SIZES[profile]
    sha = wl.schedule_sha256(args.workload, args.seed, sizes)
    check_pinned(args.workload, args.seed, profile, sha)
    tally = harness.Tally()
    workload = harness.make(args.workload, args.seed, sizes, tally)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.smoke:
        seconds = 0.0  # MIN_ROUNDS rounds, whatever they take
    if args.trace:
        measured, info = run_traced(workload, seconds)
        declared = spec["per_layer"]
    else:
        measured, info = run_untraced(workload, seconds)
        declared = spec["end_to_end"]
        expected = args.expect_results_sha256
        if expected is not None:
            tally.check(
                info.get("results_sha256") == expected,
                f"results_sha256 {info.get('results_sha256')} != expected {expected}",
            )
    # Every declared metric is printed by every workload; a layer the
    # workload never enters reads 0.
    metrics = {
        m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
        for m in declared
    }
    print(f"workload {args.workload}  seed {args.seed}  profile {profile}")
    print(f"schedule_sha256 {sha}")
    for key, value in info.items():
        print(f"{key} {value}")
    for name, entry in metrics.items():
        exact = "  exact" if name in EXACT else ""
        print(f"{name} {entry['value']:.6g} {entry['unit']}{exact}")
    print(f"ops_attempted {tally.attempted}")
    print(f"ops_failed {tally.failed}")
    print(f"failed_frac {tally.failed / max(1, tally.attempted):.6g}")
    for note in tally.notes:
        print(f"FAILED {note}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": metrics,
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({**result, "info": info, "schedule_sha256": sha}, handle)
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


# -- all workloads, one process each --------------------------------------------


def child(workload: str, args, trace: int, extra: tuple = ()) -> dict:
    """Run one workload in a fresh interpreter, so ``peak_rss_mb`` and
    every cache are that workload's own."""
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"run_{workload}_{trace}.json"
    out.unlink(missing_ok=True)
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--trace", str(trace), "--out", str(out),
        *extra,
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if not args.quiet:
        # Everything but the machine-readable last line.
        print("\n".join(done.stdout.rstrip().splitlines()[:-1]))
        print()
    if done.returncode not in (0, 1) or not out.exists():
        sys.exit(f"{workload} (trace {trace}) exited {done.returncode} without a result")
    with open(out) as handle:
        return json.load(handle)


def run_all(args) -> tuple[dict, bool]:
    """``{workload: {"end_to_end": {...}, "per_layer": {...}}}`` and whether
    every run was correct."""
    table: dict[str, dict] = {}
    correct = True
    star_results = None
    for workload in wl.WORKLOADS:
        extra = ()
        if workload == "star_olap_shards4" and star_results:
            # Same seed, same schedule: the pool must return what the
            # single instance returned, statement for statement.
            extra = ("--expect-results-sha256", star_results)
        runs = {"end_to_end": child(workload, args, 0, extra)}
        if workload == "star_olap":
            star_results = runs["end_to_end"]["info"]["results_sha256"]
        if args.trace:
            runs["per_layer"] = child(workload, args, 1)
        table[workload] = {
            kind: {name: m["value"] for name, m in run["metrics"].items()}
            for kind, run in runs.items()
        }
        correct = correct and all(run["correct"] for run in runs.values())
    ratio = (
        table["star_olap_shards4"]["end_to_end"]["stmts_per_s"]
        / table["star_olap"]["end_to_end"]["stmts_per_s"]
    )
    table["star_olap_shards4"]["end_to_end"]["shard.scaleout_ratio"] = ratio
    return table, correct


def print_table(table: dict) -> None:
    for kind in ("end_to_end", "per_layer"):
        names = sorted({n for runs in table.values() for n in runs.get(kind, {})})
        if not names:
            continue
        print(f"{kind:<42}" + "".join(f"{w:>20}" for w in table))
        for name in names:
            cells = "".join(
                f"{runs.get(kind, {}).get(name, float('nan')):>20.6g}"
                for runs in table.values()
            )
            print(f"{name:<42}{cells}")
        print()


# -- A/A noise and comparison ------------------------------------------------------


def spread_row(values: list) -> dict:
    """Median, quartiles and the widest relative gap of one metric's runs."""
    middle = median(values)
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (middle,) * 3
    return {
        "values": values,
        "median": middle,
        "q1": q1,
        "q3": q3,
        "max_rel_spread": (max(values) - min(values)) / middle if middle else 0.0,
    }


def run_aa(args) -> int:
    """A against A: N sets of the same code, back to back.

    Even sets play "before" and odd sets "after"; the comparer that gates
    a real change must not call any row ``worse``, in either direction, and
    every exact metric must be identical in all sets.
    """
    spec = load_spec()
    args.trace, args.quiet = 1, True
    sets = []
    for number in range(args.aa):
        table, correct = run_all(args)
        if not correct:
            sys.exit(f"A/A set {number} was not correct")
        sets.append(table)
        print(f"set {number} done", file=sys.stderr)
    # "table" has the shape --compare reads, each cell a list of runs.
    report = {"seed": args.seed, "sets": args.aa, "rows": {}, "exact": {}, "table": {}}
    ok = True
    for workload in wl.WORKLOADS:
        cells = report["table"][workload] = {"end_to_end": {}}
        for m in spec["end_to_end"]:
            name = m["name"]
            row = spread_row([s[workload]["end_to_end"][name] for s in sets])
            cells["end_to_end"][name] = row["values"]
            even, odd = row["values"][0::2], row["values"][1::2]
            flaps = "worse" in (
                verdict(even, odd, m["better"], m["bound"]),
                verdict(odd, even, m["better"], m["bound"]),
            )
            row.update(bound=m["bound"], flaps=flaps)
            ok = ok and not flaps
            report["rows"][f"{workload}/{name}"] = row
            print(
                f"{workload + '/' + name:<40} median {row['median']:<12.6g}"
                f" quartiles {row['q1']:.6g}..{row['q3']:.6g}"
                f"  max spread {row['max_rel_spread']:.3f}  bound {m['bound']}"
                f"  {'FLAPS' if flaps else 'ok'}"
            )
        for name in sorted(EXACT):
            values = [s[workload]["per_layer"][name] for s in sets]
            identical = len(set(values)) == 1
            ok = ok and identical
            report["exact"][f"{workload}/{name}"] = {
                "value": values[0], "identical": identical,
            }
            if not identical:
                print(f"{workload}/{name} not exact: {values}")
    report["no_row_flaps_and_exact_repeat"] = ok
    RESULTS.mkdir(exist_ok=True)
    out = Path(args.out) if args.out else RESULTS / "aa_latest.json"
    with open(out, "w") as handle:
        json.dump(report, handle, indent=1)
    print(f"A/A table written to {out}: {'ok' if ok else 'a row flaps or an exact metric moved'}")
    return 0 if ok else 1


def verdict(before, after, better: str, bound: float) -> str:
    """One (metric, workload) row of a comparison.

    Each side is a value or a list of runs. ``worse`` means the median got
    worse by more than the bound. With runs on both sides, a row whose own
    quartile spread exceeds its bound is ``unresolved`` unless every run of
    ``after`` beats every run of ``before``; ``better`` needs the medians
    apart by more than that spread and nine in ten paired runs won.
    """
    sign = 1.0 if better == "lower" else -1.0  # after this, lower is better
    a = [sign * v for v in (before if isinstance(before, list) else [before])]
    b = [sign * v for v in (after if isinstance(after, list) else [after])]
    base = abs(median(a))
    worse_by = (median(b) - median(a)) / base if base else 0.0
    if len(a) == 1 or len(b) == 1:
        if abs(worse_by) <= bound:
            return "within-bound"
        return "worse" if worse_by > 0 else "better"
    q1, _, q3 = quantiles(a, n=4)
    noise = (q3 - q1) / base if base else 0.0
    if max(b) < min(a):
        return "better"
    if noise > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    wins = sum(y < x for x, y in zip(a, b))
    if -worse_by > noise and wins >= 0.9 * min(len(a), len(b)):
        return "better"
    return "within-bound"


def run_compare(args) -> int:
    spec = load_spec()
    sides = []
    for path in args.compare:
        with open(path) as handle:
            loaded = json.load(handle)
        sides.append(loaded.get("table", loaded))  # an --aa file or a table
    regressed = False
    for workload in wl.WORKLOADS:
        for m in spec["end_to_end"]:
            cells = [
                side.get(workload, {}).get("end_to_end", {}).get(m["name"])
                for side in sides
            ]
            if None in cells:
                continue
            outcome = verdict(cells[0], cells[1], m["better"], m["bound"])
            regressed = regressed or outcome == "worse"
            shown = [median(c) if isinstance(c, list) else c for c in cells]
            print(
                f"{workload + '/' + m['name']:<40} {shown[0]:>12.6g} →"
                f" {shown[1]:<12.6g} {m['unit']:<6} bound {m['bound']:<5} {outcome}"
            )
    return 1 if regressed else 0


def pin() -> int:
    """Rewrite the pinned hashes after a deliberate change to the load."""
    pinned = {
        profile: {
            str(seed): {
                w: wl.schedule_sha256(w, seed, sizes) for w in wl.WORKLOADS
            }
            for seed in (wl.DEFAULT_SEED, wl.HOLDOUT_SEED)
        }
        for profile, sizes in wl.SIZES.items()
    }
    with open(PINNED, "w") as handle:
        json.dump(pinned, handle, indent=1)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="1/20 size, three rounds")
    parser.add_argument("--aa", type=int, metavar="N", help="A/A: N >= 2 sets of the same code")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--out", help="also write the result (or table) here as JSON")
    parser.add_argument("--expect-results-sha256", help=argparse.SUPPRESS)
    parser.add_argument("--pin", action="store_true", help="re-pin the schedule hashes")
    parser.add_argument("--quiet", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.pin:
        return pin()
    if args.compare:
        return run_compare(args)
    if args.aa is not None:
        if args.aa < 2:
            parser.error("--aa needs at least two sets")
        return run_aa(args)
    if args.workload:
        return run_one(args)
    table, correct = run_all(args)
    print_table(table)
    out = Path(args.out) if args.out else RESULTS / "latest.json"
    with open(out, "w") as handle:
        json.dump(table, handle, indent=1)
    print(f"table written to {out}; compare two with --compare")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
