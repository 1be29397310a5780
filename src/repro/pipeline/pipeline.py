"""Staged pipelines runnable in legacy or AOT mode.

A :class:`TransformStage` materialises a SELECT into a stage table:

* **aot mode** — ``CREATE TABLE stage AS (...) IN ACCELERATOR``: the
  intermediate result never leaves the accelerator;
* **legacy mode** — the stage table is a plain DB2 table (the select's
  result is shipped back to DB2), and it is then *added to the
  accelerator* (full copy shipped out again) so the next stage can read
  it there. That round trip per stage is the pre-AOT behaviour the paper
  sets out to eliminate.

A :class:`ProcedureStage` invokes an analytics procedure (``CALL ...``);
its outputs are accelerator-resident in both modes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.errors import ReproError
from repro.federation.session import Connection
from repro.metrics.counters import MovementStats

__all__ = [
    "TransformStage",
    "ProcedureStage",
    "StageMetrics",
    "PipelineResult",
    "Pipeline",
]


@dataclass(frozen=True)
class TransformStage:
    """Materialise ``select_sql`` into ``output_table``."""

    name: str
    output_table: str
    select_sql: str


@dataclass(frozen=True)
class ProcedureStage:
    """Invoke an analytics procedure; ``output_tables`` are dropped on
    re-runs so pipelines are repeatable."""

    name: str
    call_sql: str
    output_tables: tuple[str, ...] = ()


Stage = Union[TransformStage, ProcedureStage]


@dataclass
class StageMetrics:
    name: str
    engine: str
    rowcount: int
    elapsed_seconds: float
    movement: MovementStats


@dataclass
class PipelineResult:
    pipeline: str
    mode: str
    stages: list[StageMetrics] = field(default_factory=list)

    @property
    def total_elapsed(self) -> float:
        return sum(stage.elapsed_seconds for stage in self.stages)

    @property
    def total_movement(self) -> MovementStats:
        total = MovementStats()
        for stage in self.stages:
            total = total + stage.movement
        return total

    def report(self) -> str:
        """Human-readable per-stage table."""
        lines = [
            f"pipeline {self.pipeline} [{self.mode}] — "
            f"{self.total_elapsed * 1000:.1f} ms, "
            f"{self.total_movement.total_bytes:,} bytes moved"
        ]
        for stage in self.stages:
            lines.append(
                f"  {stage.name:<24} {stage.engine:<12} "
                f"rows={stage.rowcount:<8} "
                f"{stage.elapsed_seconds * 1000:8.1f} ms  "
                f"to_accel={stage.movement.bytes_to_accelerator:<10,} "
                f"from_accel={stage.movement.bytes_from_accelerator:,}"
            )
        return "\n".join(lines)


class Pipeline:
    """An ordered list of stages, executable in 'aot' or 'legacy' mode."""

    def __init__(self, name: str, stages: Optional[list[Stage]] = None):
        self.name = name
        self.stages: list[Stage] = list(stages or [])

    def add_transform(
        self, name: str, output_table: str, select_sql: str
    ) -> "Pipeline":
        self.stages.append(TransformStage(name, output_table.upper(), select_sql))
        return self

    def add_procedure(
        self, name: str, call_sql: str, output_tables: tuple[str, ...] = ()
    ) -> "Pipeline":
        self.stages.append(
            ProcedureStage(
                name, call_sql, tuple(t.upper() for t in output_tables)
            )
        )
        return self

    def stage_tables(self) -> list[str]:
        """All tables this pipeline creates (for cleanup)."""
        tables: list[str] = []
        for stage in self.stages:
            if isinstance(stage, TransformStage):
                tables.append(stage.output_table)
            else:
                tables.extend(stage.output_tables)
        return tables

    def cleanup(self, connection: Connection) -> None:
        """Drop all stage outputs (idempotent)."""
        for table in self.stage_tables():
            connection.execute(f"DROP TABLE IF EXISTS {table}")

    def run(self, connection: Connection, mode: str = "aot") -> PipelineResult:
        """Execute all stages; ``mode`` is ``'aot'`` or ``'legacy'``."""
        if mode not in ("aot", "legacy"):
            raise ReproError(f"unknown pipeline mode {mode!r}")
        self.cleanup(connection)
        system = connection.system
        result = PipelineResult(pipeline=self.name, mode=mode)
        for stage in self.stages:
            snapshot = system.interconnect.snapshot()
            started = time.perf_counter()
            if isinstance(stage, TransformStage):
                engine, rowcount = self._run_transform(connection, stage, mode)
            else:
                outcome = connection.execute(stage.call_sql)
                engine, rowcount = outcome.engine, outcome.rowcount
            result.stages.append(
                StageMetrics(
                    name=stage.name,
                    engine=engine,
                    rowcount=rowcount,
                    elapsed_seconds=time.perf_counter() - started,
                    movement=system.interconnect.since(snapshot),
                )
            )
        return result

    def _run_transform(
        self, connection: Connection, stage: TransformStage, mode: str
    ) -> tuple[str, int]:
        system = connection.system
        if mode == "aot":
            outcome = connection.execute(
                f"CREATE TABLE {stage.output_table} AS "
                f"({stage.select_sql}) IN ACCELERATOR"
            )
            return outcome.engine, outcome.rowcount
        # Legacy: materialise in DB2, then re-replicate so the next stage
        # (and the final mining step) can read the table on the
        # accelerator — the per-stage round trip the paper eliminates.
        outcome = connection.execute(
            f"CREATE TABLE {stage.output_table} AS ({stage.select_sql})"
        )
        system.add_table_to_accelerator(stage.output_table)
        return "DB2", outcome.rowcount
