"""Logistic regression via in-database SGD on the aggregate contract.

Bismarck-style incremental gradient descent expressed as a
:class:`~repro.analytics.uda.ModelAggregate`: each epoch's per-partition
state carries a *model replica* seeded from the previous epoch, the
transition folds one chunk of rows through single-example gradient steps
in scan order, and ``merge`` combines replicas by row-weighted model
averaging (the shared-nothing parallel-SGD scheme). That makes the
trainer shard-clean: per-shard partial models merge into one model
without shipping per-row data, and a sequential pass (one partition) is
plain SGD in deterministic layout order.

After the configured SGD epochs one extra scoring pass accumulates log
loss and accuracy, mirroring ``LinRegAggregate``'s two-phase shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analytics import uda
from repro.analytics.framework import ProcedureContext
from repro.analytics.model_store import Model
from repro.analytics.scoring import logistic_probabilities
from repro.errors import AnalyticsError
from repro.sql.types import DOUBLE, VarcharType

__all__ = [
    "LogRegResult",
    "LogisticSGDAggregate",
    "logreg_procedure",
    "predict_logreg",
]


@dataclass
class LogRegResult:
    intercept: float
    coefficients: np.ndarray
    log_loss: float
    accuracy: float
    epochs: int


class LogisticSGDAggregate(uda.ModelAggregate):
    """Logistic regression trained by per-row SGD, merged by averaging.

    * SGD phase (``epochs`` passes): ``init`` hands every partition a
      copy of the current model; ``transition`` runs one gradient step
      per row (step size ``rate / (1 + decay * epoch)``); ``merge``
      averages replicas weighted by the rows each one absorbed, so an
      empty partition (weight 0) cannot drag the model back toward its
      seed.
    * Scoring phase (one pass): accumulates summed log loss and the
      correct-prediction count; those are plain sums, so merging is
      addition and partitioning cannot change the reported metrics.

    On a sequential pass the driver folds a single state and ``merge``
    never runs — training is then textbook SGD in layout scan order,
    which is what makes shard counts 1/2/4 produce identical models (the
    pool offers only unordered plans, which the epoch driver declines).
    """

    kind = "LOGREG"

    def __init__(
        self,
        n_features: int,
        epochs: int = 20,
        rate: float = 0.5,
        decay: float = 0.0,
    ) -> None:
        if epochs < 1:
            raise AnalyticsError("logistic SGD needs at least one epoch")
        if rate <= 0:
            raise AnalyticsError("learning rate must be positive")
        self.sgd_epochs = epochs
        self.rate = rate
        self.decay = decay
        self.phase = "sgd"
        self.epoch = 0
        self.rows = 0
        self._weights = np.zeros(n_features + 1)
        self._result: LogRegResult = None

    def init(self):
        if self.phase == "sgd":
            return {"weights": self._weights.copy(), "rows": 0}
        return {"log_loss": 0.0, "correct": 0, "rows": 0}

    def transition(self, state, chunk):
        features = chunk.matrix[:, :-1]
        target = chunk.matrix[:, -1]
        if self.phase == "sgd":
            if self.epoch == 0:  # the chunks are cached: check them once
                bad = ~((target == 0.0) | (target == 1.0))
                if bad.any():
                    raise AnalyticsError(
                        "logistic regression target must be 0/1; got "
                        f"{float(target[bad][0])}"
                    )
            _sgd_pass(
                state["weights"],
                np.ascontiguousarray(features),
                target.tolist(),
                self.rate / (1.0 + self.decay * self.epoch),
            )
            state["rows"] += features.shape[0]
            return state
        probs = logistic_probabilities(
            features, self._weights[0], self._weights[1:]
        ).clip(1e-12, 1.0 - 1e-12)
        state["log_loss"] += float(
            -(target * np.log(probs) + (1.0 - target) * np.log(1.0 - probs)).sum()
        )
        state["correct"] += int(((probs >= 0.5) == (target == 1.0)).sum())
        state["rows"] += features.shape[0]
        return state

    def merge(self, a, b):
        if self.phase == "sgd":
            total = a["rows"] + b["rows"]
            if total > 0:
                a["weights"] = (
                    a["weights"] * a["rows"] + b["weights"] * b["rows"]
                ) / total
            a["rows"] = total
            return a
        for key, value in b.items():
            a[key] = a[key] + value
        return a

    def finalize(self, state) -> bool:
        if self.phase == "sgd":
            if state["rows"] == 0:
                raise AnalyticsError(
                    "cannot fit logistic regression on zero rows"
                )
            self._weights = state["weights"]
            self.rows = state["rows"]
            self.epoch += 1
            if self.epoch >= self.sgd_epochs:
                self.phase = "score"
            return False
        self._result = LogRegResult(
            intercept=float(self._weights[0]),
            coefficients=self._weights[1:],
            log_loss=state["log_loss"] / state["rows"],
            accuracy=state["correct"] / state["rows"],
            epochs=self.epoch,
        )
        return True

    def result(self) -> LogRegResult:
        return self._result


def _sgd_pass(
    weights: np.ndarray, features: np.ndarray, targets: list, step: float
) -> None:
    """One gradient step per row of C-contiguous ``features``, in place.

    ``np.dot`` and ``np.exp`` define the rounding (BLAS ``ddot``
    contracts to FMA and numpy's ``exp`` is not libm's, so neither has a
    pure-Python equal) and stay per row; everything around them is
    hoisted — a float intercept, one scratch vector for the update, the
    scalar sigmoid branched inline.
    """
    intercept = float(weights[0])
    coefficients = weights[1:]
    scratch = np.empty_like(coefficients)
    dot, exp, multiply, subtract = np.dot, np.exp, np.multiply, np.subtract
    for row, label in zip(features, targets):
        margin = intercept + float(dot(coefficients, row))
        if margin >= 0.0:
            probability = 1.0 / (1.0 + float(exp(-margin)))
        else:
            exp_margin = float(exp(margin))
            probability = exp_margin / (1.0 + exp_margin)
        gradient = step * (probability - label)
        intercept -= gradient
        multiply(row, gradient, scratch)
        subtract(coefficients, scratch, coefficients)
    weights[0] = intercept


def logreg_procedure(ctx: ProcedureContext) -> str:
    """``CALL INZA.LOGISTIC_REGRESSION('intable=T, target=Y, model=M,
    incolumn=A;B, id=ID [, epochs=N, rate=R, decay=D, outtable=O]')``."""
    intable = ctx.require("intable").upper()
    target_column = ctx.require("target").upper()
    model_name = ctx.require("model")
    id_column = (ctx.get("id") or "").upper()
    epochs = ctx.get_int("epochs", 20)
    rate = ctx.get_float("rate", 0.5)
    decay = ctx.get_float("decay", 0.0)

    features = ctx.column_list("incolumn")
    if features is None:
        schema = ctx.system.catalog.table(intable).schema
        features = [
            column.name
            for column in schema.columns
            if column.sql_type.is_numeric
            and column.name not in (target_column, id_column)
        ]
    if not features:
        raise AnalyticsError("no numeric feature columns to train on")

    source = uda.TrainingSource.from_context(
        ctx, intable, features + [target_column]
    )
    aggregate = LogisticSGDAggregate(
        len(features), epochs=epochs, rate=rate, decay=decay
    )
    report = uda.train(aggregate, source)
    result = aggregate.result()

    ctx.system.models.register(
        Model(
            name=model_name,
            kind="LOGREG",
            features=features,
            target=target_column,
            payload={
                "intercept": result.intercept,
                "coefficients": result.coefficients,
            },
            metrics={
                "log_loss": result.log_loss,
                "accuracy": result.accuracy,
            },
            owner=ctx.connection.user.name,
            rows_trained=report.rows,
            epochs_trained=report.epochs,
            trained_generation=ctx.system.catalog.generation,
        ),
        replace=True,
    )
    outtable = ctx.get("outtable")
    if outtable:
        ctx.create_output_table(
            outtable.upper(),
            [("TERM", VarcharType(64)), ("COEFFICIENT", DOUBLE)],
        )
        rows = [("INTERCEPT", result.intercept)] + [
            (name, float(value))
            for name, value in zip(features, result.coefficients)
        ]
        ctx.insert_rows(outtable.upper(), rows)
    ctx.log(
        f"fit on {report.rows} rows, {len(features)} features, "
        f"{result.epochs} SGD epochs"
    )
    return (
        f"LOGISTIC_REGRESSION ok: accuracy={result.accuracy:.4f}, "
        f"log_loss={result.log_loss:.4f}"
    )


def predict_logreg(ctx: ProcedureContext) -> str:
    """``CALL INZA.PREDICT_LOGISTIC_REGRESSION('model=M, intable=T,
    outtable=O, id=ID')`` — writes P(class=1) per row."""
    model = ctx.system.models.get(ctx.require("model"))
    if model.kind != "LOGREG":
        raise AnalyticsError(f"model {model.name} is not a LOGREG model")
    intable = ctx.require("intable").upper()
    outtable = ctx.require("outtable").upper()
    id_column = ctx.require("id").upper()
    probabilities = logistic_probabilities(
        ctx.read_matrix(intable, model.features),
        float(model.payload["intercept"]),
        np.asarray(model.payload["coefficients"], dtype=np.float64),
    )
    rows = ctx.write_row_scores(
        intable, id_column, outtable, [("PROBABILITY", DOUBLE, probabilities)]
    )
    return f"PREDICT_LOGISTIC_REGRESSION ok: scored {rows} rows"
