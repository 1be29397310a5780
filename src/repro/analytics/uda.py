"""Bismarck-style unified aggregation core for in-database training.

Every trainer in ``repro.analytics`` is expressed as a
:class:`ModelAggregate` — the classic user-defined-aggregate contract
(``init`` / ``transition`` / ``merge`` / ``finalize``) popularised by
Bismarck for in-RDBMS machine learning.  One epoch of training is then
one pass over the CALL's pinned snapshot, and the snapshot is gathered
*once*: the data cannot change inside one ``CALL``, so the epoch driver
asks the accelerator for a partitioned scan plan a single time, builds
one :class:`TrainingChunk` per partition on the shared scan worker pool,
and every epoch — the scoring/accuracy pass included — runs
``transition`` over those cached chunks, merges the per-partition states
in partition order, and hands the merged state to ``finalize``.  When
the accelerator declines to parallelise (small table, active transaction
delta, armed fault rules, a sharded pool) the snapshot is one sequential whole-table
chunk — the aggregates are written so both paths produce numerically
identical models.

Training epochs are admitted through workload management as
ANALYTICS-class work (one admission per epoch, released at the epoch
boundary, so a long training job cannot starve interactive statements),
honour the statement's work budget for cooperative cancellation at
chunk boundaries, and emit ``analytics.*`` spans, metrics, and one
profiler row per epoch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.accelerator.executor import ScanWorkerPool
from repro.analytics.framework import numeric_matrix
from repro.errors import AnalyticsError, UnknownObjectError
from repro.obs.profile import OperatorStats
from repro.wlm.budget import current_budget

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analytics.framework import ProcedureContext

__all__ = [
    "ModelAggregate",
    "TrainingChunk",
    "TrainingReport",
    "TrainingSource",
    "train",
]


@dataclass
class TrainingChunk:
    """One batch of training data handed to ``transition``.

    ``matrix`` is the float64 feature matrix (rows × columns, in the
    source's declared column order); ``labels`` is an object array of
    class labels or ``None`` for unsupervised sources.
    """

    matrix: np.ndarray
    labels: Optional[np.ndarray]
    rows: int

    @cached_property
    def label_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """``(classes, codes)``: the sorted distinct labels and each
        row's index into them — the one sort of the object array."""
        return np.unique(self.labels, return_inverse=True)


@dataclass
class TrainingReport:
    """What the epoch driver did, for model metadata and telemetry."""

    rows: int = 0  # rows seen by the last full pass
    epochs: int = 0
    parallel_epochs: int = 0
    partitions: int = 0  # fan-out of the last parallel epoch


class ModelAggregate:
    """The shared trainer contract.

    * ``init`` returns a fresh, empty per-partition state.
    * ``transition(state, chunk)`` folds one chunk into a state and
      returns it.  Chunks within a partition arrive in scan order.
    * ``merge(a, b)`` combines two states; ``a`` precedes ``b`` in scan
      order (the driver folds partition states left to right, so
      order-sensitive aggregates see the deterministic layout order).
    * ``finalize(state)`` consumes the merged state for this epoch and
      returns ``True`` when training is complete.  Multi-phase trainers
      (Lloyd iterations, level-wise tree growth, two-pass statistics)
      return ``False`` to request another epoch.
    * ``result()`` returns the fitted model once ``finalize`` returned
      ``True``.
    """

    kind = "MODEL"

    def init(self) -> object:
        raise NotImplementedError

    def transition(self, state: object, chunk: TrainingChunk) -> object:
        raise NotImplementedError

    def merge(self, a: object, b: object) -> object:
        raise NotImplementedError

    def finalize(self, state: object) -> bool:
        raise NotImplementedError

    def result(self) -> object:
        raise NotImplementedError


class TrainingSource:
    """A table-backed stream of :class:`TrainingChunk` batches.

    Captures the statement snapshot (epoch + own-transaction delta) at
    construction and :meth:`gather` reads it once, so every epoch sees
    the same rows.  Column existence is validated once here; chunks are
    built by :func:`~repro.analytics.framework.numeric_matrix`, the
    reader behind ``ProcedureContext.read_matrix``, so a trainer and a
    scoring procedure reject NULL or non-numeric data with the same
    message.
    """

    def __init__(
        self,
        system,
        connection,
        table: str,
        matrix_columns: Sequence[str],
        label_column: Optional[str] = None,
    ) -> None:
        self.system = system
        self.table = table.upper()
        self.matrix_columns = [c.upper() for c in matrix_columns]
        self.label_column = (
            label_column.upper() if label_column is not None else None
        )
        self._engine = system.accelerator
        self._epoch = connection.snapshot_epoch_for_statement()
        self._delta = connection.active_deltas().get(self.table)
        wanted = list(self.matrix_columns)
        if self.label_column is not None and self.label_column not in wanted:
            wanted.append(self.label_column)
        self._columns = wanted
        available = set(
            system.catalog.table(self.table).schema.column_names
        )
        missing = [c for c in wanted if c not in available]
        if missing:
            raise UnknownObjectError(
                f"table {self.table} has no column(s) {', '.join(missing)}"
            )

    @classmethod
    def from_context(
        cls,
        ctx: "ProcedureContext",
        table: str,
        matrix_columns: Sequence[str],
        label_column: Optional[str] = None,
    ) -> "TrainingSource":
        return cls(ctx.system, ctx.connection, table, matrix_columns,
                   label_column)

    # -- the one scan ---------------------------------------------------------

    def gather(self, budget=None) -> tuple[list[TrainingChunk], int]:
        """Scan the pinned snapshot once: ``(chunks, workers)``.

        The ordered partition list, one chunk each, with the pool width
        when the accelerator offers a parallel plan; otherwise the whole
        visible table as one chunk and ``workers`` 0.  A sharded pool
        never offers one: it trains over its layout-ordered snapshot, so
        models stay numerically identical at every shard count.
        """
        plan = self._engine.partition_scan(
            self.table, self._epoch, delta=self._delta, columns=self._columns
        )
        if plan is None:
            __, columns, __ = self._engine.scan_snapshot(
                self.table, self._epoch, delta=self._delta,
                columns=self._columns,
            )
            return [self.build_chunk(columns)], 0

        def build(gather):
            if budget is not None:
                budget.check()
            return self.build_chunk(gather()[1])

        chunks = ScanWorkerPool.run(plan.workers, build, plan.partitions)
        plan.finish(sum(chunk.rows for chunk in chunks))
        return chunks, plan.workers

    # -- chunk construction --------------------------------------------------

    def build_chunk(self, columns: dict) -> TrainingChunk:
        matrix = numeric_matrix(self.table, columns, self.matrix_columns)
        rows = matrix.shape[0]
        labels = None
        if self.label_column is not None:
            column = columns[self.label_column]
            if column.mask is not None and column.mask.any():
                raise AnalyticsError(
                    f"class column {self.label_column} contains NULLs"
                )
            labels = np.array(column.to_objects(), dtype=object)
            rows = len(labels)
        return TrainingChunk(matrix=matrix, labels=labels, rows=rows)


# -- epoch driver -------------------------------------------------------------


def train(
    aggregate: ModelAggregate,
    source: TrainingSource,
    *,
    max_epochs: int = 1000,
) -> TrainingReport:
    """Drive ``aggregate`` over ``source`` until ``finalize`` says done.

    The snapshot is gathered once, inside the first epoch's admission;
    each epoch is then one full pass over the cached chunks:
    partition-parallel on the scan worker pool when the accelerator
    offered a plan, sequential otherwise.  Epochs are admitted as
    ANALYTICS-class work and the statement budget is checked at every
    chunk boundary so cancellation lands between chunks, never
    mid-kernel.
    """
    system = source.system
    tracer = system.tracer
    metrics = system.metrics
    wlm = system.wlm
    profiler = system.profiler
    budget = current_budget()

    profile = None
    if profiler is not None and profiler.enabled:
        profile = profiler.begin_manual(
            f"TRAIN:{aggregate.kind}:{source.table}",
            engine="ACCELERATOR",
            generation=system.catalog.generation,
        )

    report = TrainingReport()
    train_started = time.perf_counter()
    failed = None
    with tracer.span(
        "analytics.train", model=aggregate.kind, table=source.table
    ) as train_span:
        try:
            done = False
            chunks = rows = None
            while not done:
                if report.epochs >= max_epochs:
                    raise AnalyticsError(
                        f"{aggregate.kind} training on {source.table} did "
                        f"not converge within {max_epochs} epochs"
                    )
                if budget is not None:
                    budget.check()
                report.epochs += 1
                ticket = wlm.admit(
                    "ACCELERATOR",
                    "ANALYTICS",
                    estimated_rows=rows,
                    estimated_cost=None,
                    cheap=False,
                    budget=budget,
                )
                epoch_started = time.perf_counter()
                try:
                    with tracer.span(
                        "analytics.epoch",
                        model=aggregate.kind,
                        epoch=report.epochs,
                    ) as span:
                        if chunks is None:
                            chunks, workers = source.gather(budget)
                            parallel = workers > 0
                            partitions = len(chunks) if parallel else 1
                            rows = sum(chunk.rows for chunk in chunks)
                            report.rows, report.partitions = rows, partitions
                        state = _run_epoch(aggregate, chunks, workers, budget)
                        if parallel:
                            report.parallel_epochs += 1
                        done = aggregate.finalize(state)
                        span.annotate(
                            rows=rows, partitions=partitions, parallel=parallel
                        )
                finally:
                    wlm.release(ticket)
                elapsed = time.perf_counter() - epoch_started
                metrics.counter("analytics.epochs").inc()
                metrics.histogram("analytics.epoch_seconds").observe(elapsed)
                if profile is not None:
                    stats = OperatorStats(
                        path=f"1.{report.epochs}",
                        depth=1,
                        operator="TrainEpoch",
                        detail=(
                            f"{aggregate.kind} epoch {report.epochs} "
                            f"over {source.table}"
                        ),
                        engine="ACCELERATOR",
                        estimated_rows=rows,
                    )
                    stats.observe(rows, elapsed, rows_in=rows)
                    stats.parallel = parallel
                    stats.batches = max(partitions, 1)
                    profile.operators.append(stats)
            train_span.annotate(
                epochs=report.epochs,
                rows=report.rows,
                parallel_epochs=report.parallel_epochs,
            )
        except BaseException as exc:
            failed = type(exc).__name__
            raise
        finally:
            if profile is not None:
                if failed is not None:
                    profile.error = failed
                profiler.finish(
                    profile, time.perf_counter() - train_started
                )
    return report


def _run_epoch(aggregate, chunks, workers, budget):
    """One pass of ``transition`` over the CALL's cached chunks, merged
    left to right.  ``budget`` is passed explicitly: contextvars do not
    propagate into the pool threads.
    """

    def task(chunk):
        if budget is not None:
            budget.check()
        return aggregate.transition(aggregate.init(), chunk)

    if workers:
        states = ScanWorkerPool.run(workers, task, chunks)
    else:
        states = [task(chunk) for chunk in chunks]
    merged = states[0]
    for state in states[1:]:
        merged = aggregate.merge(merged, state)
    return merged
