"""Drives the four workloads through the public API and checks them.

One class per workload family, all with the same four steps:

* ``open()`` — build the system and populate it (timed as ``setup_s``);
* ``warm_up()`` — every template once, with DB2 as oracle for the reads;
* ``run_round(index)`` — one fixed-count round, timed per operation;
* ``train_seconds()`` and ``finish()`` — the training probe and the
  end-state oracle.

Only ``AcceleratedDatabase``, ``db.connect``, ``Connection.execute``,
``IdaaLoader.load`` and ``Pipeline.run`` drive the program; the end-state
oracle additionally reads both engines' row images through the handles the
facade exposes. Statements run as the non-admin user ``BENCH``.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from statistics import median

from repro import AcceleratedDatabase, IdaaLoader, IterableSource, Pipeline
from repro.workloads import SOCIAL_COLUMNS

import workloads as wl

clock = time.perf_counter

PROBE_REPEATS = 9


@dataclass
class Tally:
    """Operations attempted and failed (raised, or failed the oracle)."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(note)

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)


@dataclass
class Round:
    """What one round measured.

    ``ops`` are the latency samples behind ``p50_ms``/``p95_ms``:
    statements, or pipeline stages on ``elt_mining``.
    """

    wall: float
    statements: int
    ops: list  # (template, seconds)
    train_s: float = 0.0
    procedures: list = field(default_factory=list)  # (INZA name, seconds)
    results: list = field(default_factory=list)


def canonical(rows: list) -> list:
    return sorted(rows, key=repr)


def results_sha256(results: list) -> str:
    """Checksum over (sql, rows) pairs, rows in the order returned: the
    pool promises single-instance row order, so it is held to it."""
    digest = hashlib.sha256()
    for sql, rows in results:
        digest.update(sql.encode())
        digest.update(repr(rows).encode())
    return digest.hexdigest()


class Workload:
    """Set-up, oracle and probe code shared by the workload families."""

    shards = 1

    def __init__(self, name: str, seed: int, sizes: dict, tally: Tally) -> None:
        self.name = name
        self.seed = seed
        self.sizes = sizes
        self.tally = tally
        self.setup_sql: list[str] = []
        self.db = self.admin = self.conn = None

    def open(self) -> float:
        """Build and populate a fresh system; returns the seconds it took."""
        started = clock()
        # shards= is always explicit so the SHARDS environment override
        # cannot change what a run measures.
        self.db = AcceleratedDatabase(shards=self.shards)
        self.admin = self.db.connect()
        self.db.create_user(wl.BENCH_USER)
        for sql in self.setup_sql:
            self.admin.execute(sql)
        self.conn = self.db.connect(wl.BENCH_USER)
        self.conn.execute("SET CURRENT QUERY ACCELERATION = ENABLE")
        return clock() - started

    def close(self) -> None:
        self.conn.close()
        self.db = self.admin = self.conn = None

    def check_against_db2(self, template: str, sql: str) -> None:
        """The oracle: the same read with acceleration off must agree."""
        execute = self.conn.execute
        try:
            fast = execute(sql)
            execute("SET CURRENT QUERY ACCELERATION = NONE")
            try:
                reference = execute(sql)
            finally:
                execute("SET CURRENT QUERY ACCELERATION = ENABLE")
        except Exception as exc:  # the run must report it, not die on it
            self.tally.check(False, f"{template}: {type(exc).__name__}: {exc}")
            return
        self.tally.check(
            reference.engine == "DB2"
            and canonical(fast.rows) == canonical(reference.rows),
            f"{template}: {fast.engine} result differs from DB2",
        )

    def train_seconds(self, rounds: list) -> float:
        """``train_s``: median seconds of a k-means CALL over TRANSACTIONS.

        The statement workloads train nothing in their rounds; this probe,
        run after them, gives them a real ``train_s``, and on
        ``star_olap_shards4`` it is the sharded-training number the roadmap
        tracks. ``elt_mining`` reports its rounds' own training instead.
        """
        self.prepare_round()
        samples = []
        for _ in range(PROBE_REPEATS):
            try:
                started = clock()
                self.conn.execute(wl.PROBE_CALL)
                samples.append(clock() - started)
                for sql in wl.PROBE_CLEANUP:
                    self.conn.execute(sql)
            except Exception as exc:
                self.tally.check(False, f"probe: {type(exc).__name__}: {exc}")
                return 0.0
            self.tally.attempted += 1
        return median(samples)

    def run_statements(self, schedule: list, keep_results: bool) -> Round:
        """Time each ``(template, sql[, check])`` through ``execute``."""
        execute = self.conn.execute
        tally = self.tally
        latencies = []
        results = []
        round_started = clock()
        for entry in schedule:
            sql = entry[1]
            started = clock()
            try:
                result = execute(sql)
            except Exception as exc:
                latencies.append(clock() - started)
                tally.fail(f"{entry[0]}: {type(exc).__name__}: {exc}")
                continue
            latencies.append(clock() - started)
            if len(entry) > 2 and entry[2]:
                if entry[2] == wl.CHECK_ONE_ROW:
                    ok = result.rowcount == 1
                else:
                    ok = result.rows[0][0] == 1
                if not ok:
                    tally.fail(f"{entry[0]}: unexpected result for {sql[:60]}")
            if keep_results:
                results.append((sql, result.rows))
        wall = clock() - round_started
        tally.attempted += len(schedule)
        ops = [(entry[0], seconds) for entry, seconds in zip(schedule, latencies)]
        return Round(wall, len(schedule), ops, results=results)

    def warm_up(self) -> None:
        raise NotImplementedError

    def prepare_round(self) -> None:
        """Untimed, untraced housekeeping before a round; none by default."""

    def run_round(self, index: int, keep_results: bool = False) -> Round:
        raise NotImplementedError

    def finish(self, rounds_run: int) -> None:
        """End-state oracle; the default has nothing to add."""


class StarOlap(Workload):
    """Read-only star-schema mix; the same class serves both shard counts."""

    def __init__(self, name, seed, sizes, tally) -> None:
        super().__init__(name, seed, sizes, tally)
        self.shards = 4 if name == "star_olap_shards4" else 1
        self.setup_sql = wl.star_setup(seed, sizes)

    def warm_up(self) -> None:
        checked = set()
        for template, sql in wl.star_warmup(self.seed):
            if template in checked:
                self.conn.execute(sql)
            else:
                self.check_against_db2(template, sql)
                checked.add(template)

    def run_round(self, index: int, keep_results: bool = False) -> Round:
        schedule = wl.star_round(self.seed, index, self.sizes)
        return self.run_statements(schedule, keep_results)


class OltpReplicated(Workload):
    """Short statements, DML with commit-time replication, AOT transactions."""

    def __init__(self, name, seed, sizes, tally) -> None:
        super().__init__(name, seed, sizes, tally)
        self.setup_sql = wl.oltp_setup(seed, sizes)

    def warm_up(self) -> None:
        for template, sql in wl.oltp_warmup(self.seed, self.sizes):
            self.check_against_db2(template, sql)
        try:
            for sql in wl.oltp_warmup_writes(self.seed, self.sizes):
                self.conn.execute(sql)
        except Exception as exc:
            self.tally.check(False, f"warm-up: {type(exc).__name__}: {exc}")

    def prepare_round(self) -> None:
        # Every commit's replication drain appends a one-row chunk to the
        # accelerated copy, and scans slow down with the chunk count: left
        # alone, round 5 takes four times as long as round 0. The admin
        # grooms between rounds (as a maintenance window would), so every
        # round starts from compacted storage and rounds stay comparable.
        self.admin.execute(
            "CALL SYSPROC.ACCEL_GROOM_TABLES('tables=TRANSACTIONS;AUDIT_LOG')"
        )

    def run_round(self, index: int, keep_results: bool = False) -> Round:
        schedule = wl.oltp_round(self.seed, index, self.sizes)
        return self.run_statements(schedule, keep_results)

    def finish(self, rounds_run: int) -> None:
        db = self.db
        db.replication.drain()
        for descriptor in db.catalog.tables():
            if descriptor.is_accelerated and not descriptor.is_aot:
                name = descriptor.name
                self.tally.check(
                    canonical(db.accelerator.snapshot_rows(name))
                    == canonical(db.db2.table_rows(name)),
                    f"{name}: accelerated copy differs from DB2 after drain",
                )
        logged = self.conn.execute("SELECT a_txn FROM audit_log ORDER BY a_txn")
        self.tally.check(
            [row[0] for row in logged.rows]
            == wl.oltp_committed_txns(rounds_run, self.sizes),
            "AUDIT_LOG does not hold exactly the committed transactions",
        )


class EltMining(Workload):
    """Loader → three AOT→AOT stages → txn DML → split/train → score."""

    def __init__(self, name, seed, sizes, tally) -> None:
        super().__init__(name, seed, sizes, tally)
        self.setup_sql = wl.elt_setup(seed, sizes)
        self.posts = wl.elt_data(seed, sizes)["SOCIAL_POSTS"]
        self.stages = wl.elt_stages(sizes)
        calls = wl.elt_mining_calls()
        self.pipelines = {
            "split": Pipeline("split").add_procedure(
                "INZA.SPLIT_DATA", calls["INZA.SPLIT_DATA"]
            ),
            "train": Pipeline("train"),
        }
        for procedure in wl.ELT_TRAINERS:
            self.pipelines["train"].add_procedure(procedure, calls[procedure])
        self.reference = None

    def warm_up(self) -> None:
        self.check_against_db2("impute_source", wl.ELT_ORACLE_SQL)
        self.reference = self.run_round(-1).results

    def run_round(self, index: int, keep_results: bool = False) -> Round:
        """One iteration; ``results`` is its fingerprint (stage row counts,
        model metrics, scored-row checksum), equal across iterations."""
        conn = self.conn
        execute = conn.execute
        ops = []
        procedures = []
        fingerprint = []
        statements = 0
        train_s = 0.0
        round_started = clock()
        try:
            for stage, sqls in self.stages:
                started = clock()
                for sql in sqls:
                    result = execute(sql)
                    if result.rowcount or result.rows:
                        fingerprint.append((stage, result.rowcount, result.rows[:8]))
                statements += len(sqls)
                if stage == "load":
                    source = IterableSource(self.posts, SOCIAL_COLUMNS)
                    report = IdaaLoader(self.db).load(source, "SOCIAL_POSTS", conn)
                    fingerprint.append((stage, report.rows))
                    statements += 1
                elif stage in self.pipelines:
                    outcome = self.pipelines[stage].run(conn, mode="aot")
                    statements += len(outcome.stages)
                    procedures += [
                        (s.name, s.elapsed_seconds) for s in outcome.stages
                    ]
                    if stage == "train":
                        train_s = outcome.total_elapsed
                        fingerprint.append(
                            sorted(
                                (m, sorted(self.db.models.get(m).metrics.items()))
                                for m in wl.ELT_MODELS
                            )
                        )
                elif stage == "score":
                    scored = execute(
                        "SELECT COUNT(*), SUM(tree_class), SUM(lr_score) "
                        "FROM churn_scored"
                    )
                    fingerprint.append((stage, scored.rows))
                ops.append((stage, clock() - started))
        except Exception as exc:
            self.tally.fail(f"iteration {index}: {type(exc).__name__}: {exc}")
        wall = clock() - round_started
        self.tally.attempted += statements
        if self.reference is not None:
            self.tally.check(
                fingerprint == self.reference,
                f"iteration {index}: stage counts, model metrics or scored "
                "checksum differ from the first iteration",
            )
        return Round(
            wall, statements, ops, train_s, procedures, results=fingerprint
        )

    def train_seconds(self, rounds: list) -> float:
        return median(r.train_s for r in rounds)


FAMILIES = {
    "star_olap": StarOlap,
    "star_olap_shards4": StarOlap,
    "oltp_replicated": OltpReplicated,
    "elt_mining": EltMining,
}


def make(name: str, seed: int, sizes: dict, tally: Tally) -> Workload:
    return FAMILIES[name](name, seed, sizes, tally)
