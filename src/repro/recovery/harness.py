"""Crash-point differential harness.

The strongest statement a recovery subsystem can make is *you cannot
tell the crash happened*. This module operationalises that: a fixed,
deterministic workload runs once uncrashed to produce a baseline
fingerprint (query results + raw storage images), then once per crash
scenario — each scenario arms one named crash point at one workload
step, kills the accelerator when it fires, restarts through
:class:`~repro.recovery.manager.RecoveryManager`, finishes the workload,
and fingerprints again. Every fingerprint must be byte-identical to the
baseline.

Kill/restart semantics mirror an appliance power cut. ``kill`` loses
everything accelerator-side (column stores, LSN watermarks, lineage
epochs, the replication cursor and registrations) while DB2-side state
survives (row stores, catalog, changelog, checkpoints, the recovery
manager's lineage journal and AOT sources). ``restart`` closes the
health circuit and runs recovery.

Crash handling per step is declared, not guessed: ``on_crash="continue"``
steps are durably committed DB2-side before the crash point can fire
(recovery redelivers their accelerator-side effects), while
``on_crash="retry"`` steps did not complete a durable effect and are
re-run after restart — exactly what an application driver would do with
an unacknowledged request.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import InjectedCrashError
from repro.recovery.manager import RecoveryResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.federation.database import AcceleratedDatabase

__all__ = [
    "CORPUS",
    "AOT_CORPUS",
    "CrashRestartDriver",
    "WorkloadStep",
    "ScenarioOutcome",
    "MatrixReport",
    "build_workload",
    "crash_scenarios",
    "default_system",
    "fingerprint",
    "run_uncrashed",
    "run_crash_scenario",
    "run_crash_matrix",
]


# ---------------------------------------------------------------------------
# Kill / restart
# ---------------------------------------------------------------------------


class CrashRestartDriver:
    """Simulated power cut + restart for the accelerator appliance."""

    def __init__(self, system: "AcceleratedDatabase") -> None:
        self.system = system
        self.kills = 0
        self.recoveries: list[RecoveryResult] = []

    def kill(self) -> None:
        """Lose all volatile accelerator state; leave DB2 untouched."""
        system = self.system
        # The armed crash stops mattering once the appliance is dead.
        system.faults.clear_crash_points()
        system.accelerator.wipe()
        system.replication.reset()
        system.health.force_offline()
        self.kills += 1

    def restart(self) -> RecoveryResult:
        """Power back on: close the circuit and resynchronise."""
        system = self.system
        system.health.reset()
        result = system.recovery.recover()
        self.recoveries.append(result)
        return result


# ---------------------------------------------------------------------------
# The deterministic workload
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadStep:
    """One step of the harness workload.

    ``crash_point`` names the crash point a scenario may arm at this
    step (None = the step is never a crash site). ``on_crash`` declares
    how the driver resumes after restart: ``"continue"`` (the step's
    durable effect landed in DB2; recovery finishes the rest) or
    ``"retry"`` (no durable effect; run the step again).
    """

    name: str
    run: Callable[["AcceleratedDatabase"], None]
    crash_point: Optional[str] = None
    on_crash: str = "continue"


def _main_row(i: int) -> tuple:
    """Deterministic MAIN row i (E14 fuzz schema, NULLs included)."""
    k = None if i % 11 == 0 else i % 7
    v = None if i % 13 == 0 else round((i * 37 % 1000) / 10.0 - 50.0, 2)
    s = None if i % 17 == 0 else ("aa", "bb", "cc", "dd")[i % 4]
    return (i, k, v, s)


def _sql_literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def _insert_main(system: "AcceleratedDatabase", start: int, count: int) -> None:
    """One autocommit INSERT per row: many commits, many drains."""
    connection = system.connect()
    try:
        for i in range(start, start + count):
            values = ", ".join(_sql_literal(v) for v in _main_row(i))
            connection.execute(f"INSERT INTO MAIN VALUES ({values})")
    finally:
        connection.close()


def _execute(system: "AcceleratedDatabase", sql: str) -> None:
    connection = system.connect()
    try:
        connection.execute(sql)
    finally:
        connection.close()


#: The query whose result *defines* AOT_SUMMARY — registered with the
#: recovery manager before the CTAS runs, the way a pipeline definition
#: outlives any one execution of it.
AOT_SOURCE_SQL = (
    "SELECT K, COUNT(*) AS CNT, SUM(V) AS TOTAL "
    "FROM MAIN WHERE K IS NOT NULL GROUP BY K"
)


def _setup(system: "AcceleratedDatabase") -> None:
    connection = system.connect()
    try:
        connection.execute(
            "CREATE TABLE MAIN (ID INTEGER NOT NULL, K INTEGER, "
            "V DOUBLE, S VARCHAR(4))"
        )
        connection.execute(
            "CREATE TABLE DIM (K INTEGER NOT NULL, NAME VARCHAR(8))"
        )
        for k in range(5):
            connection.execute(f"INSERT INTO DIM VALUES ({k}, 'name{k}')")
    finally:
        connection.close()
    _insert_main(system, 0, 20)


def _ctas_aot(system: "AcceleratedDatabase") -> None:
    system.recovery.register_aot_source("AOT_SUMMARY", AOT_SOURCE_SQL)
    _execute(
        system,
        f"CREATE TABLE AOT_SUMMARY AS ({AOT_SOURCE_SQL}) IN ACCELERATOR",
    )


def _finalise(system: "AcceleratedDatabase") -> None:
    system.replication.drain()
    system.recovery.checkpoint()


def build_workload() -> list[WorkloadStep]:
    """The fixed step sequence every run (crashed or not) executes.

    Step order is load-bearing: all MAIN DML precedes the CTAS so that a
    post-crash AOT rebuild from :data:`AOT_SOURCE_SQL` reproduces exactly
    what the uncrashed CTAS materialised.
    """
    return [
        WorkloadStep("setup", _setup),
        WorkloadStep(
            "accelerate-dim",
            lambda s: s.add_table_to_accelerator("DIM"),
            crash_point="ddl.mid_accelerate",
        ),
        WorkloadStep("checkpoint-1", lambda s: s.recovery.checkpoint()),
        WorkloadStep(
            "accelerate-main",
            lambda s: s.add_table_to_accelerator("MAIN"),
            crash_point="ddl.mid_accelerate",
        ),
        WorkloadStep(
            "insert-wave",
            lambda s: _insert_main(s, 20, 20),
            crash_point="replication.mid_batch",
        ),
        WorkloadStep(
            "checkpoint-2",
            lambda s: s.recovery.checkpoint(),
            crash_point="checkpoint.mid_write",
            on_crash="retry",
        ),
        WorkloadStep(
            "update-main",
            lambda s: _execute(
                s, "UPDATE MAIN SET V = V * 2 WHERE ID % 5 = 0 AND V IS NOT NULL"
            ),
            crash_point="commit.post_commit_pre_ack",
        ),
        WorkloadStep(
            "delete-main",
            lambda s: _execute(s, "DELETE FROM MAIN WHERE ID % 19 = 3"),
            crash_point="replication.mid_batch",
        ),
        WorkloadStep(
            "checkpoint-3",
            lambda s: s.recovery.checkpoint(),
            crash_point="checkpoint.mid_write",
            on_crash="retry",
        ),
        WorkloadStep(
            "ctas-aot",
            _ctas_aot,
            crash_point="aot.mid_build",
        ),
        WorkloadStep(
            "refresh-aot",
            lambda s: _execute(
                s,
                "INSERT INTO AOT_SUMMARY "
                "SELECT K + 100, COUNT(*), SUM(V) "
                "FROM MAIN WHERE K IS NOT NULL GROUP BY K",
            ),
            crash_point="aot.mid_build",
            on_crash="retry",
        ),
        WorkloadStep("finalise", _finalise),
    ]


def crash_scenarios(
    steps: Optional[list[WorkloadStep]] = None,
) -> list[tuple[int, WorkloadStep]]:
    """Every (step index, step) pair that is a crash site."""
    if steps is None:
        steps = build_workload()
    return [
        (index, step)
        for index, step in enumerate(steps)
        if step.crash_point is not None
    ]


# ---------------------------------------------------------------------------
# Fingerprinting
# ---------------------------------------------------------------------------

#: Read-back corpus over the replicated tables (E14 fuzz shapes: joins,
#: grouping, derived tables, NULL-heavy predicates). Every query is
#: deterministic — ordered or single-row.
CORPUS = [
    "SELECT ID, K, V, S FROM main ORDER BY ID",
    "SELECT COUNT(*), COUNT(V), COUNT(DISTINCT K) FROM main",
    "SELECT SUM(V), MIN(V), MAX(V), AVG(V) FROM main WHERE V IS NOT NULL",
    "SELECT K % 2 AS G, COUNT(*) AS C, SUM(V) AS S FROM main "
    "GROUP BY K % 2 ORDER BY 1",
    "SELECT S, AVG(V) FROM main WHERE V IS NOT NULL GROUP BY S ORDER BY 1",
    "SELECT m.ID, d.NAME FROM main m JOIN dim d ON m.k = d.k "
    "ORDER BY m.ID LIMIT 25",
    "SELECT d.NAME, COUNT(m.V), SUM(m.V) FROM main m "
    "LEFT JOIN dim d ON m.k = d.k GROUP BY d.NAME ORDER BY 1",
    "SELECT sub.ID, sub.W FROM (SELECT ID, V, V * 2 AS W FROM main "
    "WHERE V IS NOT NULL) AS sub WHERE sub.W > 10 ORDER BY sub.ID",
    "SELECT ID, CASE WHEN V > 0 THEN 'pos' ELSE 'neg' END FROM main "
    "WHERE ID % 3 = 1 ORDER BY ID",
]

#: Queries over the AOT — these can only answer from the accelerator, so
#: they are the direct probe of AOT recovery.
AOT_CORPUS = [
    "SELECT K, CNT, TOTAL FROM aot_summary ORDER BY K",
    "SELECT COUNT(*), SUM(CNT), SUM(TOTAL) FROM aot_summary",
]


def _canonical_value(value):
    if value is None:
        return "~"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return repr(round(value, 6))
    return repr(value)


def _canonical_rows(rows) -> str:
    return ";".join(
        "|".join(_canonical_value(v) for v in row) for row in rows
    )


def fingerprint(system: "AcceleratedDatabase") -> dict[str, str]:
    """Everything observable about the data, as comparable strings.

    Three layers: the SQL corpus through the normal routed path, the AOT
    corpus (accelerator-resident by construction), and the raw storage
    images — accelerator snapshot vs. DB2 row store — for every
    replicated table, which catches divergence that happens to be
    invisible to the corpus queries.
    """
    from repro.catalog import TableLocation

    out: dict[str, str] = {}
    connection = system.connect()
    try:
        for sql in CORPUS + AOT_CORPUS:
            out[sql] = _canonical_rows(connection.execute(sql).rows)
    finally:
        connection.close()
    for descriptor in system.catalog.tables():
        name = descriptor.name
        if descriptor.location is TableLocation.ACCELERATED:
            accel = sorted(
                _canonical_rows([row])
                for row in system.accelerator.snapshot_rows(name)
            )
            db2 = sorted(
                _canonical_rows([row])
                for _, row in system.db2.storage_for(name).scan()
            )
            out[f"storage:{name}:accelerator"] = ";".join(accel)
            out[f"storage:{name}:db2"] = ";".join(db2)
        elif descriptor.location is TableLocation.ACCELERATOR_ONLY:
            rows = sorted(
                _canonical_rows([row])
                for row in system.accelerator.snapshot_rows(name)
            )
            out[f"storage:{name}:accelerator"] = ";".join(rows)
    return out


# ---------------------------------------------------------------------------
# Scenario execution
# ---------------------------------------------------------------------------


@dataclass
class ScenarioOutcome:
    """Result of one crash scenario vs. the uncrashed baseline."""

    step: str
    crash_point: str
    fired: int
    matched: bool
    #: Fingerprint keys whose value differed from the baseline.
    mismatches: list[str] = field(default_factory=list)
    recovery: Optional[RecoveryResult] = None
    kills: int = 0


@dataclass
class MatrixReport:
    """Outcome of the full crash matrix."""

    baseline_keys: int
    outcomes: list[ScenarioOutcome] = field(default_factory=list)

    @property
    def all_matched(self) -> bool:
        return all(o.matched and o.fired > 0 for o in self.outcomes)

    def summary(self) -> str:
        lines = [
            f"crash matrix: {len(self.outcomes)} scenario(s), "
            f"{self.baseline_keys} fingerprint keys"
        ]
        for o in self.outcomes:
            recovered = o.recovery
            extra = ""
            if recovered is not None:
                extra = (
                    f" replayed={recovered.records_replayed}"
                    f" restored={recovered.tables_restored}"
                    f" full_reloads={recovered.full_reloads}"
                    f" aots_rebuilt={recovered.aots_rebuilt}"
                    f" bytes_saved={recovered.resync_bytes_saved}"
                )
            status = "OK" if o.matched else f"MISMATCH {o.mismatches[:3]}"
            lines.append(
                f"  {o.step} @ {o.crash_point}: fired={o.fired} "
                f"kills={o.kills}{extra} -> {status}"
            )
        return "\n".join(lines)


def default_system(checkpoint_dir: Optional[str] = None):
    """The harness's standard system: small batches force multi-batch
    drains (so mid-batch crashes land mid-stream), fast health cooldown."""
    from repro.federation.database import AcceleratedDatabase

    return AcceleratedDatabase(
        slice_count=2,
        chunk_rows=16,
        replication_batch_size=4,
        cooldown_seconds=0.0,
        tracing_enabled=False,
        checkpoint_dir=checkpoint_dir,
    )


def _run_steps(
    system: "AcceleratedDatabase",
    steps: list[WorkloadStep],
    crash_index: Optional[int] = None,
) -> CrashRestartDriver:
    driver = CrashRestartDriver(system)
    pending_crash = crash_index
    index = 0
    while index < len(steps):
        step = steps[index]
        rule = None
        if pending_crash == index:
            rule = system.faults.arm_crash_point(step.crash_point)
        crashed = False
        try:
            step.run(system)
        except InjectedCrashError:
            crashed = True
        # Crash points that fire inside a commit-time auto-drain are
        # swallowed by the retry machinery (the DB2 commit must not
        # fail); the armed rule's fire count is the reliable signal.
        if rule is not None and rule.fired > 0:
            crashed = True
        if crashed:
            pending_crash = None
            driver.kill()
            driver.restart()
            if step.on_crash == "retry":
                continue  # crash point cleared by kill(): runs clean
        elif rule is not None:
            raise AssertionError(
                f"crash point {step.crash_point} armed at step "
                f"{step.name!r} but never fired"
            )
        index += 1
    return driver


def run_uncrashed(
    checkpoint_dir: Optional[str] = None,
    system_factory: Optional[Callable[[], "AcceleratedDatabase"]] = None,
) -> tuple["AcceleratedDatabase", dict[str, str]]:
    """Baseline: the workload with no faults; returns the fingerprint."""
    system = (
        system_factory() if system_factory else default_system(checkpoint_dir)
    )
    _run_steps(system, build_workload(), crash_index=None)
    return system, fingerprint(system)


def run_crash_scenario(
    crash_index: int,
    baseline: dict[str, str],
    checkpoint_dir: Optional[str] = None,
    system_factory: Optional[Callable[[], "AcceleratedDatabase"]] = None,
) -> ScenarioOutcome:
    """One scenario: crash at step ``crash_index``, compare to baseline."""
    steps = build_workload()
    step = steps[crash_index]
    if step.crash_point is None:
        raise ValueError(f"step {step.name!r} is not a crash site")
    system = (
        system_factory() if system_factory else default_system(checkpoint_dir)
    )
    driver = _run_steps(system, steps, crash_index=crash_index)
    observed = fingerprint(system)
    mismatches = sorted(
        key
        for key in set(baseline) | set(observed)
        if baseline.get(key) != observed.get(key)
    )
    fired = system.faults.injected.get(
        f"crashpoint.{step.crash_point}", 0
    )
    return ScenarioOutcome(
        step=step.name,
        crash_point=step.crash_point,
        fired=fired,
        matched=not mismatches,
        mismatches=mismatches,
        recovery=driver.recoveries[-1] if driver.recoveries else None,
        kills=driver.kills,
    )


def run_crash_matrix(
    checkpoint_dir: Optional[str] = None,
    system_factory: Optional[Callable[[], "AcceleratedDatabase"]] = None,
) -> MatrixReport:
    """Crash at every crash site; assertable via ``report.all_matched``.

    With a ``checkpoint_dir``, every run (baseline and each scenario)
    gets its own subdirectory — a fresh system must never adopt another
    run's checkpoint files through the store bootstrap.
    """

    def subdir(label: str) -> Optional[str]:
        if checkpoint_dir is None:
            return None
        return os.path.join(checkpoint_dir, label)

    __, baseline = run_uncrashed(subdir("baseline"), system_factory)
    report = MatrixReport(baseline_keys=len(baseline))
    for crash_index, step in crash_scenarios():
        report.outcomes.append(
            run_crash_scenario(
                crash_index,
                baseline,
                subdir(f"scenario-{crash_index}-{step.crash_point}"),
                system_factory,
            )
        )
    return report
