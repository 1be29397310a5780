"""The per-row training and scoring loops, kept as the oracles.

``logreg_sgd_reference`` is the straight-line SGD that
``LogisticSGDAggregate`` must equal bitwise on a sequential pass, and
``decision_tree_predict`` is the row-at-a-time tree descent that the
masked walk (``repro.analytics.scoring.tree_leaves``) must agree with.
Both are the bodies ``repro.analytics`` shipped before its hot loops were
hoisted, unchanged; ``sigmoid`` is the array round-trip the reference
pays per row, which is part of what defines its rounding.
"""

from __future__ import annotations

import numpy as np

from repro.analytics.decision_tree import TreeNode


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
    what the aggregate computes on a single sequential partition.
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
