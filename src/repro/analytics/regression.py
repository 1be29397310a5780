"""Linear regression (least squares) and its scoring procedure."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analytics import uda
from repro.analytics.framework import ProcedureContext
from repro.analytics.model_store import Model
from repro.analytics.scoring import linear_margins
from repro.errors import AnalyticsError
from repro.sql.types import DOUBLE

__all__ = [
    "LinRegAggregate",
    "LinRegResult",
    "linreg_procedure",
    "predict_linreg",
]


@dataclass
class LinRegResult:
    intercept: float
    coefficients: np.ndarray
    r_squared: float
    rmse: float


class LinRegAggregate(uda.ModelAggregate):
    """Least squares as a mergeable aggregate.

    The chunk's matrix carries the features with the target as its
    *last* column.  Epoch one accumulates the Gram matrix
    (``designᵀ·design``) and ``designᵀ·y`` — the sufficient statistics
    of OLS — then solves the normal equations (``lstsq`` fallback when
    singular).  Epoch two re-scans to accumulate the residual and total
    sums of squares for R²/RMSE, scoring the rows with the same kernel as
    ``PREDICT`` (:func:`repro.analytics.scoring.linear_margins`).  The
    normal-equations solution agrees with the ``lstsq`` reference fit in
    ``tests/oracles/analytics.py`` to roughly ``cond(X)²·ε``, which is
    far inside 1e-9 for reasonably conditioned features.
    """

    kind = "LINREG"

    def __init__(self, n_features: int) -> None:
        self.n_features = n_features
        self.phase = "gram"
        self._solution: np.ndarray = np.zeros(0)
        self.mean_y = 0.0
        self.rows = 0
        self._result: LinRegResult = None

    def init(self):
        if self.phase == "gram":
            size = self.n_features + 1
            return {
                "xtx": np.zeros((size, size)),
                "xty": np.zeros(size),
                "rows": 0,
                "sum_y": 0.0,
            }
        return {"ss_res": 0.0, "ss_tot": 0.0}

    def transition(self, state, chunk):
        features = chunk.matrix[:, :-1]
        target = chunk.matrix[:, -1]
        if self.phase == "gram":
            design = np.column_stack([np.ones(features.shape[0]), features])
            state["xtx"] += design.T @ design
            state["xty"] += design.T @ target
            state["rows"] += features.shape[0]
            state["sum_y"] += float(target.sum())
            return state
        residuals = target - linear_margins(
            features, float(self._solution[0]), self._solution[1:]
        )
        state["ss_res"] += float((residuals**2).sum())
        state["ss_tot"] += float(((target - self.mean_y) ** 2).sum())
        return state

    def merge(self, a, b):
        for key, value in b.items():
            a[key] = a[key] + value
        return a

    def finalize(self, state) -> bool:
        if self.phase == "gram":
            if state["rows"] == 0:
                raise AnalyticsError("cannot fit a regression on zero rows")
            try:
                self._solution = np.linalg.solve(state["xtx"], state["xty"])
            except np.linalg.LinAlgError:
                self._solution, *_ = np.linalg.lstsq(
                    state["xtx"], state["xty"], rcond=None
                )
            self.rows = state["rows"]
            self.mean_y = state["sum_y"] / state["rows"]
            self.phase = "score"
            return False
        ss_res, ss_tot = state["ss_res"], state["ss_tot"]
        self._result = LinRegResult(
            intercept=float(self._solution[0]),
            coefficients=self._solution[1:],
            r_squared=1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0,
            rmse=float(np.sqrt(ss_res / self.rows)),
        )
        return True

    def result(self) -> LinRegResult:
        return self._result


def linreg_procedure(ctx: ProcedureContext) -> str:
    """``CALL INZA.LINEAR_REGRESSION('intable=T, target=Y, model=M,
    incolumn=A;B, id=ID [, outtable=O]')``."""
    intable = ctx.require("intable").upper()
    target_column = ctx.require("target").upper()
    model_name = ctx.require("model")
    id_column = (ctx.get("id") or "").upper()

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
        raise AnalyticsError("no numeric feature columns to regress on")

    source = uda.TrainingSource.from_context(
        ctx, intable, features + [target_column]
    )
    aggregate = LinRegAggregate(len(features))
    report = uda.train(aggregate, source)
    result = aggregate.result()

    ctx.system.models.register(
        Model(
            name=model_name,
            kind="LINREG",
            features=features,
            target=target_column,
            payload={
                "intercept": result.intercept,
                "coefficients": result.coefficients,
            },
            metrics={"r_squared": result.r_squared, "rmse": result.rmse},
            owner=ctx.connection.user.name,
            rows_trained=report.rows,
            epochs_trained=report.epochs,
            trained_generation=ctx.system.catalog.generation,
        ),
        replace=True,
    )
    outtable = ctx.get("outtable")
    if outtable:
        # Coefficient table: one row per term, like INZA's model tables.
        ctx.create_output_table(
            outtable.upper(),
            [("TERM", _varchar(64)), ("COEFFICIENT", DOUBLE)],
        )
        rows = [("INTERCEPT", result.intercept)] + [
            (name, float(value))
            for name, value in zip(features, result.coefficients)
        ]
        ctx.insert_rows(outtable.upper(), rows)
    ctx.log(f"fit on {report.rows} rows, {len(features)} features")
    return (
        f"LINEAR_REGRESSION ok: r2={result.r_squared:.4f}, "
        f"rmse={result.rmse:.4f}"
    )


def predict_linreg(ctx: ProcedureContext) -> str:
    """``CALL INZA.PREDICT_LINEAR_REGRESSION('model=M, intable=T,
    outtable=O, id=ID')``."""
    model = ctx.system.models.get(ctx.require("model"))
    if model.kind != "LINREG":
        raise AnalyticsError(f"model {model.name} is not a LINREG model")
    intable = ctx.require("intable").upper()
    outtable = ctx.require("outtable").upper()
    id_column = ctx.require("id").upper()
    predictions = linear_margins(
        ctx.read_matrix(intable, model.features),
        float(model.payload["intercept"]),
        np.asarray(model.payload["coefficients"], dtype=np.float64),
    )
    rows = ctx.write_row_scores(
        intable, id_column, outtable, [("PREDICTION", DOUBLE, predictions)]
    )
    return f"PREDICT_LINEAR_REGRESSION ok: scored {rows} rows"


def _varchar(length: int):
    from repro.sql.types import VarcharType

    return VarcharType(length)
