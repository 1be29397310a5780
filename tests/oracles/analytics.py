"""The per-row and single-pass training and scoring loops, kept as the oracles.

Each is the body ``repro.analytics`` shipped before its trainers moved
onto the ``ModelAggregate`` contract and its hot loops were hoisted,
unchanged; the differential tests hold the product to them.

- ``kmeans_fit`` (with its own ``(n, k, d)`` broadcast distance,
  ``_pairwise_sq_distances``) is what ``KMeansAggregate`` must equal —
  bitwise below eight features;
- ``linreg_fit`` is the ``lstsq`` fit ``LinRegAggregate``'s normal
  equations must agree with to 1e-9;
- ``naive_bayes_fit`` and its ``naive_bayes_predict`` are the
  single-pass Gaussian fit and scorer ``NaiveBayesAggregate`` must
  reproduce;
- ``decision_tree_fit`` (with ``_best_split`` and ``_majority``) is the
  recursive CART ``DecisionTreeAggregate`` must grow structurally
  identically, and ``decision_tree_predict`` the row-at-a-time descent
  the masked walk (``repro.analytics.scoring.tree_leaves``) must agree
  with;
- ``logreg_sgd_reference`` is the straight-line SGD that
  ``LogisticSGDAggregate`` must equal bitwise;
  ``sigmoid`` is the array round-trip it pays per row, which is part of
  what defines its rounding.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.analytics.decision_tree import TreeNode
from repro.analytics.kmeans import KMeansResult, _kmeanspp_init
from repro.analytics.naive_bayes import _VARIANCE_EPSILON, NaiveBayesResult
from repro.analytics.regression import LinRegResult
from repro.errors import AnalyticsError


def sigmoid(values: np.ndarray) -> np.ndarray:
    """Numerically stable elementwise logistic function."""
    values = np.asarray(values, dtype=np.float64)
    out = np.empty_like(values)
    positive = values >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-values[positive]))
    exp_v = np.exp(values[~positive])
    out[~positive] = exp_v / (1.0 + exp_v)
    return out


def logreg_sgd_reference(
    matrix: np.ndarray,
    target: np.ndarray,
    epochs: int = 20,
    rate: float = 0.5,
    decay: float = 0.0,
) -> np.ndarray:
    """Straight-line sequential SGD; oracle for the differential tests.

    Returns the weight vector (intercept first), reproducing exactly
    what the aggregate computes.
    """
    weights = np.zeros(matrix.shape[1] + 1)
    for epoch in range(epochs):
        step = rate / (1.0 + decay * epoch)
        for index in range(matrix.shape[0]):
            row = matrix[index]
            margin = weights[0] + float(np.dot(weights[1:], row))
            gradient = step * (float(sigmoid(margin)) - float(target[index]))
            weights[0] -= gradient
            weights[1:] -= gradient * row
    return weights


def decision_tree_predict(
    matrix: np.ndarray, root: TreeNode
) -> tuple[list[object], list[float]]:
    predictions: list[object] = []
    confidences: list[float] = []
    for row in matrix:
        node = root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        predictions.append(node.prediction)
        confidences.append(node.confidence)
    return predictions, confidences


def kmeans_fit(
    matrix: np.ndarray,
    k: int,
    max_iterations: int = 50,
    seed: int = 1,
    tolerance: float = 1e-6,
) -> KMeansResult:
    """Cluster ``matrix`` rows into ``k`` groups.

    Deterministic for a given seed. Raises if there are fewer rows than
    clusters.
    """
    rows = matrix.shape[0]
    if rows < k:
        raise AnalyticsError(f"cannot form {k} clusters from {rows} rows")
    if k < 1:
        raise AnalyticsError("k must be >= 1")
    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_init(matrix, k, rng)
    assignments = np.zeros(rows, dtype=np.int64)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        distances = _pairwise_sq_distances(matrix, centroids)
        new_assignments = distances.argmin(axis=1)
        updated = centroids.copy()
        for cluster in range(k):
            members = matrix[new_assignments == cluster]
            if len(members):
                updated[cluster] = members.mean(axis=0)
        shift = float(np.abs(updated - centroids).max())
        centroids = updated
        assignments = new_assignments
        if shift <= tolerance:
            break
    distances = _pairwise_sq_distances(matrix, centroids)
    best = distances[np.arange(rows), assignments]
    return KMeansResult(
        centroids=centroids,
        assignments=assignments,
        distances=np.sqrt(best),
        inertia=float(best.sum()),
        iterations=iterations,
    )


def _pairwise_sq_distances(matrix: np.ndarray, centroids: np.ndarray):
    # (n, 1, d) - (1, k, d) without materialising when small enough.
    diffs = matrix[:, None, :] - centroids[None, :, :]
    return (diffs * diffs).sum(axis=2)


def linreg_fit(matrix: np.ndarray, target: np.ndarray) -> LinRegResult:
    """Ordinary least squares with intercept via ``numpy.linalg.lstsq``."""
    if matrix.shape[0] != len(target):
        raise AnalyticsError("feature matrix and target length differ")
    if matrix.shape[0] == 0:
        raise AnalyticsError("cannot fit a regression on zero rows")
    design = np.column_stack([np.ones(matrix.shape[0]), matrix])
    solution, *_ = np.linalg.lstsq(design, target, rcond=None)
    predictions = design @ solution
    residuals = target - predictions
    ss_res = float((residuals**2).sum())
    ss_tot = float(((target - target.mean()) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    rmse = float(np.sqrt(ss_res / len(target)))
    return LinRegResult(
        intercept=float(solution[0]),
        coefficients=solution[1:],
        r_squared=r_squared,
        rmse=rmse,
    )


def naive_bayes_fit(matrix: np.ndarray, labels: list[object]) -> NaiveBayesResult:
    """Fit per-class Gaussian feature distributions."""
    if matrix.shape[0] != len(labels):
        raise AnalyticsError("feature matrix and label length differ")
    if matrix.shape[0] == 0:
        raise AnalyticsError("cannot fit a classifier on zero rows")
    label_array = np.array(labels, dtype=object)
    classes = sorted(set(labels), key=repr)
    priors = np.empty(len(classes))
    means = np.empty((len(classes), matrix.shape[1]))
    variances = np.empty((len(classes), matrix.shape[1]))
    for index, cls in enumerate(classes):
        members = matrix[label_array == cls]
        priors[index] = len(members) / len(labels)
        means[index] = members.mean(axis=0)
        variances[index] = members.var(axis=0) + _VARIANCE_EPSILON
    result = NaiveBayesResult(
        classes=classes,
        priors=priors,
        means=means,
        variances=variances,
        training_accuracy=0.0,
    )
    predictions, __ = naive_bayes_predict(matrix, result)
    correct = sum(p == t for p, t in zip(predictions, labels))
    result.training_accuracy = correct / len(labels)
    return result


def naive_bayes_predict(
    matrix: np.ndarray, model: NaiveBayesResult
) -> tuple[list[object], np.ndarray]:
    """Predicted class + log-probability margin per row."""
    # log P(c | x) ∝ log prior + Σ log N(x | mean, var)
    log_likelihood = np.empty((matrix.shape[0], len(model.classes)))
    for index in range(len(model.classes)):
        mean = model.means[index]
        variance = model.variances[index]
        log_prob = -0.5 * (
            np.log(2 * np.pi * variance) + (matrix - mean) ** 2 / variance
        )
        log_likelihood[:, index] = log_prob.sum(axis=1) + np.log(
            model.priors[index]
        )
    best = log_likelihood.argmax(axis=1)
    predictions = [model.classes[i] for i in best]
    scores = log_likelihood.max(axis=1)
    return predictions, scores


def _majority(labels: np.ndarray) -> tuple[object, float]:
    values, counts = np.unique(labels, return_counts=True)
    best = counts.argmax()
    return values[best], float(counts[best] / counts.sum())


def _best_split(
    matrix: np.ndarray, labels: np.ndarray, min_rows: int
) -> Optional[tuple[int, float, float]]:
    """(feature, threshold, gain) of the best Gini split, or None.

    All candidate cuts of one feature are evaluated in one vectorised
    pass using cumulative per-class counts (O(n·classes) per feature).
    """
    total = len(labels)
    classes, encoded = np.unique(labels, return_inverse=True)
    class_totals = np.bincount(encoded, minlength=len(classes)).astype(
        np.float64
    )
    parent_impurity = 1.0 - ((class_totals / total) ** 2).sum()
    best: Optional[tuple[int, float, float]] = None
    for feature in range(matrix.shape[1]):
        values = matrix[:, feature]
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
        one_hot = np.zeros((total, len(classes)))
        one_hot[np.arange(total), encoded[order]] = 1.0
        prefix = one_hot.cumsum(axis=0)  # prefix[i] = counts of rows 0..i
        cuts = np.nonzero(np.diff(sorted_values))[0]
        if not len(cuts):
            continue
        left_n = (cuts + 1).astype(np.float64)
        right_n = total - left_n
        valid = (left_n >= min_rows) & (right_n >= min_rows)
        if not valid.any():
            continue
        cuts = cuts[valid]
        left_n = left_n[valid]
        right_n = right_n[valid]
        left_counts = prefix[cuts]
        right_counts = class_totals - left_counts
        left_impurity = 1.0 - ((left_counts / left_n[:, None]) ** 2).sum(axis=1)
        right_impurity = 1.0 - ((right_counts / right_n[:, None]) ** 2).sum(
            axis=1
        )
        weighted = (left_n * left_impurity + right_n * right_impurity) / total
        gains = parent_impurity - weighted
        winner = int(gains.argmax())
        gain = float(gains[winner])
        if gain > 1e-12 and (best is None or gain > best[2]):
            cut = int(cuts[winner])
            threshold = float(
                (sorted_values[cut] + sorted_values[cut + 1]) / 2.0
            )
            best = (feature, threshold, gain)
    return best


def decision_tree_fit(
    matrix: np.ndarray,
    labels: list[object],
    max_depth: int = 6,
    min_rows: int = 2,
) -> TreeNode:
    """Grow a binary classification tree."""
    if matrix.shape[0] != len(labels):
        raise AnalyticsError("feature matrix and label length differ")
    if matrix.shape[0] == 0:
        raise AnalyticsError("cannot fit a tree on zero rows")
    label_array = np.array(labels, dtype=object)

    def grow(rows: np.ndarray, depth: int) -> TreeNode:
        node_labels = label_array[rows]
        prediction, confidence = _majority(node_labels)
        if depth >= max_depth or len(rows) < 2 * min_rows or confidence == 1.0:
            return TreeNode(prediction=prediction, confidence=confidence)
        split = _best_split(matrix[rows], node_labels, min_rows)
        if split is None:
            return TreeNode(prediction=prediction, confidence=confidence)
        feature, threshold, __ = split
        goes_left = matrix[rows, feature] <= threshold
        return TreeNode(
            prediction=prediction,
            confidence=confidence,
            feature=feature,
            threshold=threshold,
            left=grow(rows[goes_left], depth + 1),
            right=grow(rows[~goes_left], depth + 1),
        )

    return grow(np.arange(matrix.shape[0]), depth=1)
