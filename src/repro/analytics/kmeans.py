"""K-means clustering (k-means++ initialisation, Lloyd iterations).

The :class:`KMeansAggregate` trainer plus the INZA-style procedure
handlers. The algorithm runs directly over the accelerator's columnar
data; the output table (row id → cluster id → distance) is materialised
as an accelerator-only table. Every distance — Lloyd assignment, the
training out-table, ``PREDICT_KMEANS`` and ``PREDICT(...)`` — comes from
the one kernel, :func:`repro.analytics.scoring.kmeans_sq_distances`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analytics import uda
from repro.analytics.framework import ProcedureContext
from repro.analytics.model_store import Model
from repro.analytics.scoring import kmeans_sq_distances
from repro.errors import AnalyticsError
from repro.sql.types import DOUBLE, INTEGER

__all__ = [
    "KMeansAggregate",
    "KMeansResult",
    "kmeans_procedure",
    "predict_kmeans",
]


@dataclass
class KMeansResult:
    centroids: np.ndarray  # (k, n_features)
    assignments: np.ndarray  # (n_rows,)
    distances: np.ndarray  # (n_rows,)
    inertia: float
    iterations: int


def _kmeanspp_init(matrix: np.ndarray, k: int, rng) -> np.ndarray:
    rows = matrix.shape[0]
    centroids = np.empty((k, matrix.shape[1]))
    first = int(rng.integers(rows))
    centroids[0] = matrix[first]
    closest = ((matrix - centroids[0]) ** 2).sum(axis=1)
    for index in range(1, k):
        total = closest.sum()
        if total <= 0:
            # All remaining points coincide with a centroid; pick anything.
            centroids[index] = matrix[int(rng.integers(rows))]
            continue
        probabilities = closest / total
        choice = int(rng.choice(rows, p=probabilities))
        centroids[index] = matrix[choice]
        closest = np.minimum(
            closest, ((matrix - centroids[index]) ** 2).sum(axis=1)
        )
    return centroids


class KMeansAggregate(uda.ModelAggregate):
    """K-means on the aggregate contract, numerically identical to the
    single-pass reference loop in ``tests/oracles/analytics.py`` (bitwise
    below eight features, where the per-feature distance kernel equals
    the reference's broadcast sum).

    Three phases, each one or more epochs:

    * ``collect`` — one epoch that keeps the chunk's matrix for the
      k-means++ seeding, which scans rows in order with a running RNG.
    * ``lloyd`` — one epoch per Lloyd iteration. ``transition`` assigns
      rows to the nearest current centroid and accumulates per-cluster
      sums/counts; ``finalize`` recomputes centroids as sum/count
      (bitwise what ``members.mean`` computes) and checks the shift
      against the tolerance.
    * ``score`` — one epoch computing the full distance matrix.  The
      final distances index it by the *last Lloyd assignment*, not a
      fresh argmin, because that is what the reference implementation
      reports after its loop exits.
    """

    kind = "KMEANS"

    def __init__(
        self,
        k: int,
        max_iterations: int = 50,
        seed: int = 1,
        tolerance: float = 1e-6,
    ) -> None:
        self.k = k
        self.max_iterations = max_iterations
        self.seed = seed
        self.tolerance = tolerance
        self.phase = "collect"
        self.centroids: np.ndarray = np.empty((0, 0))
        self.iterations = 0
        self._assignments: np.ndarray = np.zeros(0, dtype=np.int64)
        self._result: KMeansResult = None

    def init(self):
        if self.phase == "lloyd":
            features = self.centroids.shape[1]
            return {
                "sums": np.zeros((self.k, features)),
                "counts": np.zeros(self.k, dtype=np.int64),
            }
        return {}

    def transition(self, state, chunk):
        if self.phase == "collect":
            state["matrix"] = chunk.matrix
            return state
        distances = kmeans_sq_distances(chunk.matrix, self.centroids)
        if self.phase == "lloyd":
            assignments = distances.argmin(axis=1)
            for cluster in range(self.k):
                members = chunk.matrix[assignments == cluster]
                if len(members):
                    state["sums"][cluster] += members.sum(axis=0)
                    state["counts"][cluster] += len(members)
            state["assignments"] = assignments
            return state
        state["distances"] = distances
        return state

    def finalize(self, state) -> bool:
        if self.phase == "collect":
            matrix = state["matrix"]
            rows = matrix.shape[0]
            if rows < self.k:
                raise AnalyticsError(
                    f"cannot form {self.k} clusters from {rows} rows"
                )
            if self.k < 1:
                raise AnalyticsError("k must be >= 1")
            rng = np.random.default_rng(self.seed)
            self.centroids = _kmeanspp_init(matrix, self.k, rng)
            if self.max_iterations < 1:
                self._assignments = np.zeros(rows, dtype=np.int64)
                self.phase = "score"
            else:
                self.phase = "lloyd"
            return False
        if self.phase == "lloyd":
            updated = self.centroids.copy()
            for cluster in range(self.k):
                if state["counts"][cluster]:
                    updated[cluster] = (
                        state["sums"][cluster] / state["counts"][cluster]
                    )
            shift = float(np.abs(updated - self.centroids).max())
            self.centroids = updated
            self.iterations += 1
            self._assignments = state["assignments"]
            if shift <= self.tolerance or self.iterations >= self.max_iterations:
                self.phase = "score"
            return False
        distances = state["distances"]
        best = distances[np.arange(distances.shape[0]), self._assignments]
        self._result = KMeansResult(
            centroids=self.centroids,
            assignments=self._assignments,
            distances=np.sqrt(best),
            inertia=float(best.sum()),
            iterations=self.iterations,
        )
        return True

    def result(self) -> KMeansResult:
        return self._result


def _numeric_feature_columns(ctx: ProcedureContext, table: str, id_column: str):
    wanted = ctx.column_list("incolumn")
    if wanted is not None:
        return wanted
    schema = ctx.system.catalog.table(table).schema
    return [
        column.name
        for column in schema.columns
        if column.sql_type.is_numeric and column.name != id_column
    ]


def kmeans_procedure(ctx: ProcedureContext) -> str:
    """``CALL INZA.KMEANS('intable=T, outtable=O, id=ID, k=4, ...')``."""
    intable = ctx.require("intable").upper()
    outtable = ctx.require("outtable").upper()
    id_column = ctx.require("id").upper()
    k = ctx.get_int("k", 3)
    max_iterations = ctx.get_int("maxiter", 50)
    seed = ctx.get_int("randseed", 1)
    model_name = ctx.get("model")

    features = _numeric_feature_columns(ctx, intable, id_column)
    if not features:
        raise AnalyticsError(f"table {intable} has no numeric feature columns")
    source = uda.TrainingSource.from_context(ctx, intable, features)
    aggregate = KMeansAggregate(k, max_iterations=max_iterations, seed=seed)
    report = uda.train(aggregate, source)
    result = aggregate.result()
    rows = ctx.write_row_scores(
        intable,
        id_column,
        outtable,
        [
            ("CLUSTER_ID", INTEGER, result.assignments),
            ("DISTANCE", DOUBLE, result.distances),
        ],
    )
    if model_name:
        ctx.system.models.register(
            Model(
                name=model_name,
                kind="KMEANS",
                features=features,
                payload={"centroids": result.centroids},
                metrics={
                    "inertia": result.inertia,
                    "iterations": result.iterations,
                    "k": k,
                },
                owner=ctx.connection.user.name,
                rows_trained=report.rows,
                epochs_trained=report.epochs,
                trained_generation=ctx.system.catalog.generation,
            ),
            replace=True,
        )
    ctx.log(f"clustered {rows} rows into {k} clusters")
    return (
        f"KMEANS ok: k={k}, rows={rows}, "
        f"inertia={result.inertia:.4f}, iterations={result.iterations}"
    )


def predict_kmeans(ctx: ProcedureContext) -> str:
    """``CALL INZA.PREDICT_KMEANS('model=M, intable=T, outtable=O, id=ID')``."""
    model = ctx.system.models.get(ctx.require("model"))
    if model.kind != "KMEANS":
        raise AnalyticsError(f"model {model.name} is not a KMEANS model")
    intable = ctx.require("intable").upper()
    outtable = ctx.require("outtable").upper()
    id_column = ctx.require("id").upper()
    matrix = ctx.read_matrix(intable, model.features)
    distances = kmeans_sq_distances(matrix, model.payload["centroids"])
    assignments = distances.argmin(axis=1)
    best = np.sqrt(distances[np.arange(len(matrix)), assignments])
    rows = ctx.write_row_scores(
        intable,
        id_column,
        outtable,
        [("CLUSTER_ID", INTEGER, assignments), ("DISTANCE", DOUBLE, best)],
    )
    return f"PREDICT_KMEANS ok: scored {rows} rows with model {model.name}"
