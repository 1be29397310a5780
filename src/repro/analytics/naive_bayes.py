"""Gaussian naive Bayes classifier and its scoring procedure."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analytics import uda
from repro.analytics.framework import ProcedureContext
from repro.analytics.model_store import Model
from repro.analytics.scoring import naive_bayes_kernel
from repro.errors import AnalyticsError
from repro.sql.types import DOUBLE, VarcharType

__all__ = [
    "NaiveBayesAggregate",
    "NaiveBayesResult",
    "naive_bayes_procedure",
    "predict_naive_bayes",
]

#: Variance floor to keep the Gaussian likelihood finite.
_VARIANCE_EPSILON = 1e-9


@dataclass
class NaiveBayesResult:
    classes: list[object]
    priors: np.ndarray  # (n_classes,)
    means: np.ndarray  # (n_classes, n_features)
    variances: np.ndarray  # (n_classes, n_features)
    training_accuracy: float


class NaiveBayesAggregate(uda.ModelAggregate):
    """Gaussian naive Bayes on the aggregate contract.

    Three single-pass epochs: per-class row counts and feature sums
    (→ priors and means), per-class sums of squared deviations from
    the *final* means (→ variances; the two-pass form sidesteps the
    catastrophic cancellation a one-pass variance would risk, and
    reproduces ``numpy.var`` bitwise), then a scoring pass for the
    training accuracy through the same kernel as ``PREDICT``
    (:func:`repro.analytics.scoring.naive_bayes_kernel`).
    The single-pass reference fit is in ``tests/oracles/analytics.py``.
    """

    kind = "NAIVEBAYES"

    def __init__(self) -> None:
        self.phase = "counts"
        self.classes: list[object] = []
        self._counts: dict[object, int] = {}
        self.means: np.ndarray = np.empty((0, 0))
        self._fit: NaiveBayesResult = None
        self._kernel = None

    def init(self):
        if self.phase == "counts":
            return {"counts": {}, "sums": {}}
        if self.phase == "ssd":
            return {"ssd": np.zeros(self.means.shape)}
        return {"correct": 0, "total": 0}

    def transition(self, state, chunk):
        if self.phase == "counts":
            for cls in set(chunk.labels.tolist()):
                members = chunk.matrix[chunk.labels == cls]
                state["counts"][cls] = (
                    state["counts"].get(cls, 0) + len(members)
                )
                total = members.sum(axis=0)
                previous = state["sums"].get(cls)
                state["sums"][cls] = (
                    total if previous is None else previous + total
                )
            return state
        if self.phase == "ssd":
            for index, cls in enumerate(self.classes):
                members = chunk.matrix[chunk.labels == cls]
                if len(members):
                    state["ssd"][index] += (
                        (members - self.means[index]) ** 2
                    ).sum(axis=0)
            return state
        classes, log_likelihoods = self._kernel
        predictions = classes[log_likelihoods(chunk.matrix).argmax(axis=1)]
        state["correct"] += int((predictions == chunk.labels).sum())
        state["total"] += chunk.rows
        return state

    def finalize(self, state) -> bool:
        if self.phase == "counts":
            total = sum(state["counts"].values())
            if total == 0:
                raise AnalyticsError("cannot fit a classifier on zero rows")
            self.classes = sorted(state["counts"], key=repr)
            self._counts = state["counts"]
            features = next(iter(state["sums"].values())).shape[0]
            priors = np.empty(len(self.classes))
            self.means = np.empty((len(self.classes), features))
            for index, cls in enumerate(self.classes):
                priors[index] = state["counts"][cls] / total
                self.means[index] = (
                    state["sums"][cls] / state["counts"][cls]
                )
            self._priors = priors
            self.phase = "ssd"
            return False
        if self.phase == "ssd":
            variances = np.empty(self.means.shape)
            for index, cls in enumerate(self.classes):
                variances[index] = (
                    state["ssd"][index] / self._counts[cls]
                    + _VARIANCE_EPSILON
                )
            self._fit = NaiveBayesResult(
                classes=self.classes,
                priors=self._priors,
                means=self.means,
                variances=variances,
                training_accuracy=0.0,
            )
            self._kernel = naive_bayes_kernel(self._fit)
            self.phase = "accuracy"
            return False
        self._fit.training_accuracy = state["correct"] / state["total"]
        return True

    def result(self) -> NaiveBayesResult:
        return self._fit


def naive_bayes_procedure(ctx: ProcedureContext) -> str:
    """``CALL INZA.NAIVEBAYES('intable=T, class=Y, model=M, id=ID')``."""
    intable = ctx.require("intable").upper()
    class_column = ctx.require("class").upper()
    model_name = ctx.require("model")
    id_column = (ctx.get("id") or "").upper()
    features = ctx.column_list("incolumn")
    if features is None:
        schema = ctx.system.catalog.table(intable).schema
        features = [
            column.name
            for column in schema.columns
            if column.sql_type.is_numeric
            and column.name not in (class_column, id_column)
        ]
    if not features:
        raise AnalyticsError("no numeric feature columns")
    source = uda.TrainingSource.from_context(
        ctx, intable, features, label_column=class_column
    )
    aggregate = NaiveBayesAggregate()
    report = uda.train(aggregate, source)
    result = aggregate.result()
    ctx.system.models.register(
        Model(
            name=model_name,
            kind="NAIVEBAYES",
            features=features,
            target=class_column,
            payload={"fit": result},
            metrics={"training_accuracy": result.training_accuracy},
            owner=ctx.connection.user.name,
            rows_trained=report.rows,
            epochs_trained=report.epochs,
            trained_generation=ctx.system.catalog.generation,
        ),
        replace=True,
    )
    return (
        f"NAIVEBAYES ok: classes={len(result.classes)}, "
        f"accuracy={result.training_accuracy:.4f}"
    )


def predict_naive_bayes(ctx: ProcedureContext) -> str:
    """``CALL INZA.PREDICT_NAIVEBAYES('model=M, intable=T, outtable=O,
    id=ID')``."""
    model = ctx.system.models.get(ctx.require("model"))
    if model.kind != "NAIVEBAYES":
        raise AnalyticsError(f"model {model.name} is not a NAIVEBAYES model")
    intable = ctx.require("intable").upper()
    outtable = ctx.require("outtable").upper()
    id_column = ctx.require("id").upper()
    classes, log_likelihoods = naive_bayes_kernel(model.payload["fit"])
    scores = log_likelihoods(ctx.read_matrix(intable, model.features))
    labels = np.array([str(cls) for cls in classes])
    rows = ctx.write_row_scores(
        intable,
        id_column,
        outtable,
        [
            ("PREDICTION", VarcharType(64), labels[scores.argmax(axis=1)]),
            ("LOG_SCORE", DOUBLE, scores.max(axis=1)),
        ],
    )
    return f"PREDICT_NAIVEBAYES ok: scored {rows} rows"
