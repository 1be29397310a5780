"""Outside-in span recorder: the per-layer account of a traced run.

``Recorder.install(db, conn)`` wraps the calls *into* each layer — instance
methods of the system's components, the three planning functions
``repro.federation.system`` imported by name, and ``VTable.to_rows`` — from
out here, so the program's source is untouched and ``uninstall()`` puts
every original back for the untraced run.

A span is the list ``[name, start, end, parent, ordinal, extra, concurrent]``.
``parent`` is the enclosing span on the same thread; work the scan worker
pool runs on its own threads is attached to the span that submitted it and
flagged ``concurrent``: it is reported (per-shard fan-out time) but never
subtracted from its parent, so concurrent child time cannot exceed the
parent's duration. A span's *self* time is its duration minus its
same-thread children; the self times under one ``Connection.execute`` plus
that span's own self time (``connection.unaccounted_s``) equal its duration.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict

import repro.analytics.uda as uda
import repro.federation.system as federation_system
from repro.accelerator.executor import ScanWorkerPool
from repro.accelerator.vtable import VTable
from repro.analytics.scoring import ModelScorer
from repro.loader import IdaaLoader

NAME, START, END, PARENT, ORDINAL, EXTRA, CONCURRENT = range(7)

ROOT = "connection.execute"

#: Span name → the ``*_s`` per-layer metric its self time is reported as.
#: Several boundaries of one layer may share a metric (all DB2 DML).
SELF_TIME_METRICS = {
    "sql.parse": "sql.parse_s",
    "sql.plan": "sql.plan_s",
    "sql.estimate": "sql.estimate_s",
    "federation.plan_cache_lookup": "federation.plan_cache_lookup_s",
    "federation.route": "federation.route_s",
    "federation.commit": "federation.commit_s",
    "federation.replication_drain": "federation.replication_drain_s",
    "catalog.privilege_check": "catalog.privilege_check_s",
    "wlm.admit": "wlm.admit_s",
    "db2.execute_select": "db2.execute_select_s",
    "db2.dml": "db2.dml_s",
    "db2.commit": "db2.commit_s",
    "accelerator.execute_select": "accelerator.execute_select_s",
    "accelerator.to_rows": "accelerator.to_rows_s",
    "accelerator.insert_into": "accelerator.insert_into_s",
    "accelerator.dml": "accelerator.dml_s",
    "accelerator.apply_changes": "accelerator.apply_changes_s",
    "shard.coordinator": "shard.coordinator_s",
    "analytics.call": "analytics.call_s",
    "analytics.train": "analytics.train_s",
    "loader.load": "loader.load_s",
    "obs.profiler": "obs.profiler_s",
}

#: Span name → the count metric of its calls.
CALL_COUNT_METRICS = {
    "sql.parse": "sql.parse_calls",
    "sql.plan": "sql.plan_calls",
    "federation.replication_drain": "federation.replication_drains",
    "catalog.privilege_check": "catalog.privilege_checks",
    "wlm.admit": "wlm.admits",
    "db2.execute_select": "db2.select_calls",
    "db2.dml": "db2.dml_calls",
    "accelerator.execute_select": "accelerator.select_calls",
    "accelerator.to_rows": "accelerator.to_rows_calls",
    "analytics.call": "analytics.calls",
}


class Recorder:
    """Records spans around layer boundaries while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.ordinal = -1
        self._local = threading.local()
        self._patches: list[tuple] = []
        self._db = None
        self._baseline: dict[str, float] = {}

    # -- wrapping --------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _timed(self, name: str, fn, after=None, root: bool = False):
        """``fn`` wrapped in a span; ``after(span, result, args)`` may fill
        the span's extra slot or bump counters."""
        spans = self.spans
        get_stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = get_stack()
            parent = stack[-1] if stack else None
            if root and parent is None:
                self.ordinal += 1
            span = [
                name, 0.0, 0.0, parent, self.ordinal, None,
                parent is not None and parent[CONCURRENT],
            ]
            spans.append(span)
            stack.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if after is not None:
                after(span, result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attribute: str, replacement) -> None:
        """Set ``owner.attribute``; remembers how to put the original back
        (an instance that only inherited the attribute gets it deleted)."""
        own = vars(owner).get(attribute, _MISSING)
        self._patches.append((owner, attribute, own))
        setattr(owner, attribute, replacement)

    def _wrap(self, owner, attribute: str, name: str, after=None, root=False):
        self._patch(
            owner, attribute,
            self._timed(name, getattr(owner, attribute), after, root),
        )

    def _wrap_class_method(self, cls, attribute: str, name: str, after=None):
        """Wrap a plain method on the class itself (objects this recorder
        cannot reach by instance: VTable, IdaaLoader)."""
        self._patch(cls, attribute, self._timed(name, vars(cls)[attribute], after))

    def _count(self, counter: str, amount):
        """An ``after`` hook adding ``amount(result)`` to ``counter``."""
        counters = self.counters

        def after(span, result, args):
            counters[counter] += amount(result)

        return after

    def _count_only(self, owner, attribute: str, counter: str, amount) -> None:
        """Count without a span: the call's time stays in its caller's."""
        counters = self.counters
        original = getattr(owner, attribute)

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            counters[counter] += amount(result)
            return result

        self._patch(owner, attribute, counted)

    # -- install / uninstall -----------------------------------------------

    def install(self, db, *connections) -> None:
        if self._patches:
            raise RuntimeError("recorder is already installed")
        self._db = db
        counters = self.counters
        for conn in connections:
            self._wrap(conn, "execute", ROOT, root=True)
            self._wrap(conn, "commit", "federation.commit")
        for function, name in (
            ("parse_statement", "sql.parse"),
            ("plan_statement", "sql.plan"),
            ("estimate_plan", "sql.estimate"),
        ):
            self._wrap(federation_system, function, name)

        def lookup_done(span, result, args):
            counters["federation.plan_cache_lookups"] += 1
            if result is not None:
                counters["federation.plan_cache_hits"] += 1

        self._wrap(db.plan_cache, "lookup", "federation.plan_cache_lookup", lookup_done)
        self._wrap(db.router, "route_query", "federation.route")
        self._wrap(
            db.replication, "drain", "federation.replication_drain",
            self._count("federation.replication_records", lambda applied: applied),
        )
        self._wrap(db.catalog.privileges, "check", "catalog.privilege_check")
        self._wrap(db.wlm, "admit", "wlm.admit")
        self._wrap(db.db2, "execute_select", "db2.execute_select")
        for method in ("insert_rows", "update_where", "delete_where"):
            self._wrap(db.db2, method, "db2.dml")
        for method in ("commit", "rollback"):
            self._wrap(db.db2, method, "db2.commit")
        accelerator = db.accelerator
        self._wrap(accelerator, "execute_select", "accelerator.execute_select")
        self._wrap(accelerator, "insert_into", "accelerator.insert_into")
        for method in ("update_where", "delete_where", "apply_delta"):
            self._wrap(accelerator, method, "accelerator.dml")
        self._wrap(accelerator, "apply_changes", "accelerator.apply_changes")
        self._wrap_class_method(
            VTable, "to_rows", "accelerator.to_rows",
            self._count("accelerator.rows_boxed", len),
        )
        self._wrap(db.procedures, "call", "analytics.call")
        self._wrap(
            uda, "train", "analytics.train",
            self._count("analytics.epochs", lambda report: report.epochs),
        )
        self._count_only(ModelScorer, "score", "analytics.predict_rows", len)
        self._wrap_class_method(
            IdaaLoader, "load", "loader.load",
            self._count("loader.rows", lambda report: report.rows),
        )
        for method in ("begin", "finish"):
            self._wrap(db.profiler, method, "obs.profiler")
        self._count_only(db.tracer, "span", "obs.tracer_spans", lambda _: 1)
        self._wrap_worker_pool()
        if db.accelerator_pool is not None:
            self._wrap_pool(db.accelerator_pool)
        self._baseline = _program_counters(db)

    def _wrap_worker_pool(self) -> None:
        """Attach scan-worker tasks to the span that submitted them."""
        get_stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        original = ScanWorkerPool.run.__func__

        def run(cls, workers, fn, items):
            stack = get_stack()
            parent = stack[-1] if stack else None

            def task(item):
                worker_stack = get_stack()
                span = [
                    "scan.worker", clock(), 0.0, parent,
                    parent[ORDINAL] if parent else -1, None, True,
                ]
                spans.append(span)
                worker_stack.append(span)
                try:
                    return fn(item)
                finally:
                    span[END] = clock()
                    worker_stack.pop()

            return original(cls, workers, task, items)

        self._patch(ScanWorkerPool, "run", classmethod(run))

    def _wrap_pool(self, pool) -> None:
        """Coordinator and per-shard boundaries of the accelerator pool."""
        self._wrap(pool, "partition_scan", "shard.coordinator")
        for name in pool.table_names():
            table = pool.storage_for(name)
            self._wrap(table, "read_visible", "shard.coordinator")
            for shard_id, part in enumerate(table.parts):

                def tag(span, result, args, shard_id=shard_id):
                    span[EXTRA] = shard_id

                self._wrap(part, "read_visible", "shard.part", tag)
                self._wrap(part, "gather_chunks", "shard.part", tag)

    def uninstall(self) -> dict[str, float]:
        """Restore every original; returns the program's own counters'
        movement while installed (rows scanned, interconnect, …)."""
        moved = {}
        if self._db is not None:
            now = _program_counters(self._db)
            moved = {key: now[key] - self._baseline[key] for key in now}
        for owner, attribute, own in reversed(self._patches):
            if own is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)
        self._patches.clear()
        self._db = None
        return moved

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self.ordinal = -1


_MISSING = object()


def _program_counters(db) -> dict[str, float]:
    """Counts and modeled seconds the program itself keeps."""
    accelerator = db.accelerator
    link = db.interconnect.snapshot()
    return {
        "accelerator.rows_scanned": accelerator.rows_scanned,
        "accelerator.chunks_skipped": accelerator.chunks_skipped,
        "accelerator.simulated_busy_s": accelerator.simulated_busy_seconds,
        "federation.interconnect_calls": link.messages,
        "federation.interconnect_bytes": link.total_bytes,
        "federation.interconnect_modeled_s": link.simulated_seconds,
    }


# -- analysis ----------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Self seconds per span, in ``spans`` order."""
    child_seconds: dict[int, float] = defaultdict(float)
    for span in spans:
        parent = span[PARENT]
        # A worker-thread span overlaps its parent's own work; only
        # same-thread children partition the parent's duration.
        if parent is not None and span[CONCURRENT] == parent[CONCURRENT]:
            child_seconds[id(parent)] += span[END] - span[START]
    return [
        span[END] - span[START] - child_seconds.get(id(span), 0.0)
        for span in spans
    ]


def summarize(spans: list[list], counters: dict, moved: dict) -> dict[str, float]:
    """One traced round's per-layer numbers (see README for the names)."""
    selfs = self_times(spans)
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    execute_s = 0.0
    accounted = 0.0
    fanout = 0.0
    per_statement_shard: dict[int, dict[int, float]] = defaultdict(
        lambda: defaultdict(float)
    )
    for span, own in zip(spans, selfs):
        name = span[NAME]
        duration = span[END] - span[START]
        if name == "shard.part":
            fanout += duration
            per_statement_shard[span[ORDINAL]][span[EXTRA]] += duration
        if span[CONCURRENT]:
            continue
        calls[name] += 1
        seconds[name] += own
        if name == ROOT:
            if span[PARENT] is None:
                execute_s += duration
        elif _under_root(span):
            accounted += own
    unaccounted = seconds[ROOT]
    out = {metric: seconds[name] for name, metric in SELF_TIME_METRICS.items()}
    out.update({metric: calls[name] for name, metric in CALL_COUNT_METRICS.items()})
    out["connection.execute_s"] = execute_s
    out["connection.unaccounted_s"] = unaccounted
    out["connection.unaccounted_frac"] = unaccounted / execute_s if execute_s else 0.0
    out["connection.accounted_s"] = accounted
    lookups = counters.get("federation.plan_cache_lookups", 0)
    out["federation.plan_cache_hit_ratio"] = (
        counters.get("federation.plan_cache_hits", 0) / lookups if lookups else 0.0
    )
    for name in (
        "federation.replication_records", "accelerator.rows_boxed",
        "analytics.epochs", "analytics.predict_rows", "obs.tracer_spans",
    ):
        out[name] = counters.get(name, 0)
    loaded = counters.get("loader.rows", 0)
    out["loader.rows_per_s"] = (
        loaded / seconds["loader.load"] if seconds["loader.load"] else 0.0
    )
    out["shard.fanout_s"] = fanout
    out["shard.slowest_shard_s"] = sum(
        max(shards.values()) for shards in per_statement_shard.values()
    )
    out["shard.shards_touched_per_stmt"] = (
        sum(len(shards) for shards in per_statement_shard.values())
        / len(per_statement_shard)
        if per_statement_shard
        else 0.0
    )
    out.update(moved)
    return out


def _under_root(span: list) -> bool:
    while span is not None:
        if span[NAME] == ROOT:
            return True
        span = span[PARENT]
    return False


def write_trace(path, spans: list[list]) -> None:
    """Spans as JSON rows: id, name, start, end, parent id, statement
    ordinal, extra (shard id), concurrent flag."""
    ids = {id(span): index for index, span in enumerate(spans)}
    rows = [
        [
            index, span[NAME], span[START], span[END],
            ids.get(id(span[PARENT])) if span[PARENT] is not None else None,
            span[ORDINAL], span[EXTRA], span[CONCURRENT],
        ]
        for index, span in enumerate(spans)
    ]
    with open(path, "w") as handle:
        json.dump(
            {
                "columns": [
                    "id", "name", "start", "end", "parent", "ordinal",
                    "extra", "concurrent",
                ],
                "spans": rows,
            },
            handle,
        )


def self_test() -> None:
    """The account must sum, and uninstall must leave no wrapper behind."""
    from repro import AcceleratedDatabase

    db = AcceleratedDatabase(shards=2, chunk_rows=32)
    db.accelerator.parallel_min_rows = 0  # let 200 rows reach the worker pool
    conn = db.connect()
    conn.execute("CREATE TABLE T (A INTEGER NOT NULL PRIMARY KEY, B DOUBLE)")
    conn.execute(
        "INSERT INTO T VALUES " + ", ".join(f"({i}, {i}.5)" for i in range(200))
    )
    conn.execute("CALL SYSPROC.ACCEL_ADD_TABLES('tables=T')")

    def patch_points():
        return [
            vars(conn).get("execute"), vars(db.plan_cache).get("lookup"),
            federation_system.parse_statement, uda.train,
            vars(VTable)["to_rows"], vars(ScanWorkerPool)["run"],
        ]

    pristine = patch_points()
    recorder = Recorder()
    recorder.install(db, conn)
    conn.execute("SET CURRENT QUERY ACCELERATION = ALL")
    conn.execute("SELECT COUNT(*), SUM(B) FROM T WHERE A > 10")
    conn.execute("SELECT COUNT(*), MAX(B) FROM T WHERE A > 10")  # partial aggregate
    conn.execute("UPDATE T SET B = 0 WHERE A = 3")
    conn.execute("SELECT A, B FROM T WHERE B > 50")
    moved = recorder.uninstall()
    summary = summarize(recorder.spans, recorder.counters, moved)
    total = summary["connection.accounted_s"] + summary["connection.unaccounted_s"]
    if abs(total - summary["connection.execute_s"]) > 1e-6:
        raise AssertionError(
            f"self times sum to {total}, execute wall is "
            f"{summary['connection.execute_s']}"
        )
    if summary["accelerator.select_calls"] < 3 or summary["shard.fanout_s"] <= 0:
        raise AssertionError("the traced statements did not reach the layers")
    if not any(span[CONCURRENT] and span[NAME] == "shard.part" for span in recorder.spans):
        raise AssertionError("no worker-thread span was attached to its statement")
    if any(now is not was for now, was in zip(patch_points(), pristine)):
        raise AssertionError("a wrapper was left behind after uninstall")
