"""One scoring kernel per model kind, and the ``PREDICT`` scorers built on them.

Both executors compile ``PREDICT(model, col, ...)`` down to a
:class:`ModelScorer` built here. Every kernel is strictly row-independent
with a fixed per-feature accumulation order, so scoring one row at a time
(the DB2 row engine) is bitwise identical to scoring a whole batch (the
accelerator's vector engine) — the cross-engine byte-identity contract
extends to PREDICT for free.

Each kind has exactly one kernel, and the trainers and the ``PREDICT_*``
procedures import it from here: :func:`kmeans_sq_distances` (k-means),
:func:`linear_margins` (linear regression, and under the sigmoid
:func:`logistic_probabilities`), :func:`naive_bayes_kernel` (naive
Bayes) and :func:`tree_leaves` (decision trees). A model's training
metric, its procedure's out-table and its ``PREDICT(...)`` column
therefore cannot disagree.

This module deliberately imports only numpy and ``repro.errors``; fitted
models are duck-typed (a tree node has ``left``/``feature``/``threshold``,
a naive-Bayes fit has ``classes``/``priors``/``means``/``variances``), so
no trainer module (and thus no SQL-layer module) is pulled into the
expression-kernel import path.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AnalyticsError

__all__ = [
    "ModelScorer",
    "build_scorer",
    "kmeans_sq_distances",
    "linear_margins",
    "logistic_probabilities",
    "naive_bayes_kernel",
    "tree_leaves",
    "tree_predictions",
]


def kmeans_sq_distances(
    matrix: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """(rows, clusters) squared Euclidean distances.

    Accumulated per cluster, one feature at a time: elementwise only, so
    a 1-row call and an n-row call produce identical floats. Below eight
    features this is also bitwise the ``(n, k, d)`` broadcast-and-sum
    (numpy sums fewer than eight terms left to right).
    """
    rows = matrix.shape[0]
    clusters, features = centroids.shape
    distances = np.empty((rows, clusters))
    for cluster in range(clusters):
        acc = np.zeros(rows)
        for j in range(features):
            diff = matrix[:, j] - centroids[cluster, j]
            acc += diff * diff
        distances[:, cluster] = acc
    return distances


def linear_margins(
    matrix: np.ndarray, intercept: float, coefficients: np.ndarray
) -> np.ndarray:
    """``intercept + matrix · coefficients`` per row, accumulated one
    feature at a time (elementwise only, unlike BLAS ``@``, so a 1-row
    call and an n-row call produce identical floats)."""
    margins = np.full(matrix.shape[0], intercept)
    for j in range(coefficients.shape[0]):
        margins += coefficients[j] * matrix[:, j]
    return margins


def logistic_probabilities(
    matrix: np.ndarray, intercept: float, coefficients: np.ndarray
) -> np.ndarray:
    """P(class = 1) per row: the numerically stable sigmoid of
    :func:`linear_margins`."""
    margins = linear_margins(matrix, intercept, coefficients)
    out = np.empty_like(margins)
    positive = margins >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-margins[positive]))
    exp_m = np.exp(margins[~positive])
    out[~positive] = exp_m / (1.0 + exp_m)
    return out


def naive_bayes_kernel(fit):
    """Compile a Gaussian naive-Bayes fit into its log-likelihood kernel.

    Returns ``(classes, log_likelihoods)``: the class labels as an
    object array, and a function from a feature matrix to its
    (rows, classes) joint log-likelihoods ``log prior + Σ log N(x | mean,
    var)``. The per-(class, feature) constants are computed once here,
    so the per-row work is pure elementwise accumulation in feature
    order; ``argmax`` over the columns is the prediction.
    """
    classes = np.empty(len(fit.classes), dtype=object)
    classes[:] = list(fit.classes)
    log_priors = np.log(np.asarray(fit.priors, dtype=np.float64))
    means = np.asarray(fit.means, dtype=np.float64)
    variances = np.asarray(fit.variances, dtype=np.float64)
    log_norms = np.log(2 * np.pi * variances)
    n_classes, features = means.shape

    def log_likelihoods(matrix: np.ndarray) -> np.ndarray:
        rows = matrix.shape[0]
        out = np.empty((rows, n_classes))
        for index in range(n_classes):
            acc = np.full(rows, log_priors[index])
            for j in range(features):
                diff = matrix[:, j] - means[index, j]
                acc += -0.5 * (
                    log_norms[index, j] + diff * diff / variances[index, j]
                )
            out[:, index] = acc
        return out

    return classes, log_likelihoods


def tree_leaves(root, matrix: np.ndarray) -> tuple[list, np.ndarray]:
    """One masked walk: the leaf each row of ``matrix`` lands in.

    Returns ``(leaves, positions)`` — the leaves some row reached, and
    per row its index into them. Every node splits its row set with
    ``value <= threshold``: a tie goes left and a NaN goes right, as in
    a row-at-a-time descent. Nodes are duck-typed (a leaf has ``left is
    None``), which keeps this module free of trainer imports.
    """
    positions = np.empty(matrix.shape[0], dtype=np.intp)
    leaves: list = []
    stack = [(root, np.arange(matrix.shape[0]))]
    while stack:
        node, indexes = stack.pop()
        if not indexes.size:
            continue
        if node.left is None:
            positions[indexes] = len(leaves)
            leaves.append(node)
            continue
        goes_left = matrix[indexes, node.feature] <= node.threshold
        stack.append((node.right, indexes[~goes_left]))
        stack.append((node.left, indexes[goes_left]))
    return leaves, positions


def tree_predictions(root, matrix: np.ndarray) -> np.ndarray:
    """The class each row's leaf predicts, as an object array."""
    leaves, positions = tree_leaves(root, matrix)
    predictions = np.empty(len(leaves), dtype=object)
    for index, leaf in enumerate(leaves):
        predictions[index] = leaf.prediction
    return predictions[positions]


class ModelScorer:
    """A compiled scorer: ``score(matrix)`` → one value per row.

    ``matrix`` is (rows, feature_count) float64; NULL features arrive as
    NaN and the caller masks those rows out of the result afterwards.
    """

    __slots__ = ("kind", "feature_count", "_score")

    def __init__(self, kind: str, feature_count: int, score_fn) -> None:
        self.kind = kind
        self.feature_count = feature_count
        self._score = score_fn

    def score(self, matrix: np.ndarray) -> np.ndarray:
        if matrix.shape[1] != self.feature_count:
            raise AnalyticsError(
                f"PREDICT expects {self.feature_count} feature(s), "
                f"got {matrix.shape[1]}"
            )
        return self._score(matrix)


def build_scorer(model) -> ModelScorer:
    """Compile ``model`` (an analytics ``Model``) into a vector scorer."""
    kind = model.kind
    if kind == "KMEANS":
        return _kmeans_scorer(model)
    if kind == "LINREG":
        return _linreg_scorer(model)
    if kind == "LOGREG":
        return _logreg_scorer(model)
    if kind == "NAIVEBAYES":
        return _naive_bayes_scorer(model)
    if kind == "DECTREE":
        return _decision_tree_scorer(model)
    raise AnalyticsError(
        f"model {model.name} of kind {kind} cannot be scored with PREDICT"
    )


def _kmeans_scorer(model) -> ModelScorer:
    centroids = np.asarray(model.payload["centroids"], dtype=np.float64)

    def score(matrix: np.ndarray) -> np.ndarray:
        distances = kmeans_sq_distances(matrix, centroids)
        return distances.argmin(axis=1).astype(np.int64)

    return ModelScorer("KMEANS", centroids.shape[1], score)


def _linreg_scorer(model) -> ModelScorer:
    intercept = float(model.payload["intercept"])
    coefficients = np.asarray(model.payload["coefficients"], dtype=np.float64)

    def score(matrix: np.ndarray) -> np.ndarray:
        return linear_margins(matrix, intercept, coefficients)

    return ModelScorer("LINREG", coefficients.shape[0], score)


def _logreg_scorer(model) -> ModelScorer:
    intercept = float(model.payload["intercept"])
    coefficients = np.asarray(model.payload["coefficients"], dtype=np.float64)

    def score(matrix: np.ndarray) -> np.ndarray:
        return logistic_probabilities(matrix, intercept, coefficients)

    return ModelScorer("LOGREG", coefficients.shape[0], score)


def _naive_bayes_scorer(model) -> ModelScorer:
    fit = model.payload["fit"]
    classes, log_likelihoods = naive_bayes_kernel(fit)

    def score(matrix: np.ndarray) -> np.ndarray:
        return classes[log_likelihoods(matrix).argmax(axis=1)]

    return ModelScorer("NAIVEBAYES", np.shape(fit.means)[1], score)


def _decision_tree_scorer(model) -> ModelScorer:
    root = model.payload["root"]
    return ModelScorer(
        "DECTREE",
        len(model.features),
        lambda matrix: tree_predictions(root, matrix),
    )
