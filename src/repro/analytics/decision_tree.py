"""CART-style decision tree (Gini impurity, binary numeric splits)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analytics import uda
from repro.analytics.framework import ProcedureContext
from repro.analytics.model_store import Model
from repro.analytics.scoring import tree_leaves, tree_predictions
from repro.errors import AnalyticsError
from repro.sql.types import DOUBLE, VarcharType

__all__ = [
    "DecisionTreeAggregate",
    "TreeNode",
    "decision_tree_procedure",
    "predict_decision_tree",
]


@dataclass
class TreeNode:
    """A node of the fitted tree; leaves carry a class prediction."""

    prediction: object
    #: Fraction of training rows at this node with the majority class.
    confidence: float
    feature: Optional[int] = None
    threshold: Optional[float] = None
    left: Optional["TreeNode"] = None  # feature <= threshold
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def depth(self) -> int:
        if self.is_leaf:
            return 1
        return 1 + max(self.left.depth(), self.right.depth())

    def leaf_count(self) -> int:
        if self.is_leaf:
            return 1
        return self.left.leaf_count() + self.right.leaf_count()


class DecisionTreeAggregate(uda.ModelAggregate):
    """Level-wise (PLANET-style) CART as a mergeable aggregate.

    One epoch grows one tree level.  ``transition`` routes chunk rows
    through the partially built tree to the current frontier nodes and
    builds, per (frontier node, feature), an *exact* histogram of
    distinct feature values × class counts.  Histograms merge by value
    union and integer addition, so the merged statistics are identical
    to what a single pass over the node's full row set would collect.
    ``finalize`` then replays the reference's ``_best_split`` arithmetic
    over the histograms — cumulative per-class counts at every
    distinct-value boundary, in the same shapes, class order, and
    operation order, so thresholds and gains match bitwise and the grown
    tree is *structurally identical* to the recursive reference fit in
    ``tests/oracles/analytics.py``.
    A final epoch scores the training accuracy through the finished
    tree.
    """

    kind = "DECTREE"

    def __init__(self, max_depth: int = 6, min_rows: int = 2) -> None:
        self.max_depth = max_depth
        self.min_rows = min_rows
        self.phase = "grow"
        self.root = TreeNode(prediction=None, confidence=0.0)
        self._frontier: dict[int, TreeNode] = {0: self.root}
        self._depths: dict[int, int] = {0: 1}
        self._next_id = 1
        self._accuracy = 0.0

    # -- contract -----------------------------------------------------------

    def init(self):
        if self.phase == "grow":
            return {}
        return {"correct": 0, "total": 0}

    def transition(self, state, chunk):
        if self.phase != "grow":
            predictions = tree_predictions(self.root, chunk.matrix)
            state["correct"] += int((predictions == chunk.labels).sum())
            state["total"] += chunk.rows
            return state
        leaves, positions = tree_leaves(self.root, chunk.matrix)
        # A frontier node is still a leaf, so the walk that scores rows
        # also routes them; labels were encoded once for the chunk.
        reached = {id(leaf): index for index, leaf in enumerate(leaves)}
        all_classes, codes = chunk.label_codes
        for fid, node in self._frontier.items():
            position = reached.get(id(node))
            if position is None:
                continue
            mask = positions == position
            sub = chunk.matrix[mask]
            node_codes = codes[mask]
            code_counts = np.bincount(node_codes, minlength=len(all_classes))
            present = code_counts > 0
            # Re-number onto the classes present at this node: the split
            # arithmetic sums over exactly those, in sorted order.
            classes = all_classes[present]
            encoded = (np.cumsum(present) - 1)[node_codes]
            class_counts = code_counts[present].astype(np.int64)
            hists = {}
            for feature in range(sub.shape[1]):
                values, inverse = np.unique(
                    sub[:, feature], return_inverse=True
                )
                combined = inverse * len(classes) + encoded
                counts = np.bincount(
                    combined, minlength=len(values) * len(classes)
                ).astype(np.int64)
                hists[feature] = (
                    values, counts.reshape(len(values), len(classes))
                )
            node_state = {
                "classes": list(classes),
                "counts": class_counts,
                "hists": hists,
            }
            if fid in state:
                state[fid] = _merge_node_state(state[fid], node_state)
            else:
                state[fid] = node_state
        return state

    def merge(self, a, b):
        if self.phase != "grow":
            a["correct"] += b["correct"]
            a["total"] += b["total"]
            return a
        for fid, node_state in b.items():
            if fid in a:
                a[fid] = _merge_node_state(a[fid], node_state)
            else:
                a[fid] = node_state
        return a

    def finalize(self, state) -> bool:
        if self.phase != "grow":
            self._accuracy = state["correct"] / state["total"]
            return True
        if not state:
            raise AnalyticsError("cannot fit a tree on zero rows")
        next_frontier: dict[int, TreeNode] = {}
        next_depths: dict[int, int] = {}
        for fid in sorted(self._frontier):
            node = self._frontier[fid]
            depth = self._depths[fid]
            node_state = state.get(fid)
            if node_state is None:  # defensive: no rows reached this node
                continue
            counts = node_state["counts"]
            total = int(counts.sum())
            best = int(counts.argmax())
            node.prediction = node_state["classes"][best]
            node.confidence = float(counts[best] / counts.sum())
            if (
                depth >= self.max_depth
                or total < 2 * self.min_rows
                or node.confidence == 1.0
            ):
                continue
            split = self._best_split_from_stats(node_state, total)
            if split is None:
                continue
            node.feature, node.threshold = split
            node.left = TreeNode(prediction=None, confidence=0.0)
            node.right = TreeNode(prediction=None, confidence=0.0)
            for child in (node.left, node.right):
                child_id = self._next_id
                self._next_id += 1
                next_frontier[child_id] = child
                next_depths[child_id] = depth + 1
        self._frontier = next_frontier
        self._depths = next_depths
        if not next_frontier:
            self.phase = "accuracy"
        return False

    def result(self) -> tuple[TreeNode, float]:
        return self.root, self._accuracy

    # -- internals ----------------------------------------------------------

    def _best_split_from_stats(self, node_state, total):
        """(feature, threshold) replaying the reference's ``_best_split``
        (``tests/oracles/analytics.py``) exactly.

        ``cum_counts`` at distinct-value boundaries equals the
        reference's sorted-row one-hot prefix sums at its cut indexes
        (exact integers either way), so every division, impurity sum,
        and the argmax tie-break see bitwise-identical operands.
        """
        class_totals = node_state["counts"].astype(np.float64)
        parent_impurity = 1.0 - ((class_totals / total) ** 2).sum()
        best = None
        for feature in sorted(node_state["hists"]):
            values, counts = node_state["hists"][feature]
            if len(values) < 2:
                continue
            cum_counts = counts.cumsum(axis=0)
            cum_rows = counts.sum(axis=1).cumsum()
            left_n = cum_rows[:-1].astype(np.float64)
            right_n = total - left_n
            valid = (left_n >= self.min_rows) & (right_n >= self.min_rows)
            if not valid.any():
                continue
            boundaries = np.nonzero(valid)[0]
            left_n = left_n[valid]
            right_n = right_n[valid]
            left_counts = cum_counts[:-1][valid].astype(np.float64)
            right_counts = class_totals - left_counts
            left_impurity = 1.0 - (
                (left_counts / left_n[:, None]) ** 2
            ).sum(axis=1)
            right_impurity = 1.0 - (
                (right_counts / right_n[:, None]) ** 2
            ).sum(axis=1)
            weighted = (
                left_n * left_impurity + right_n * right_impurity
            ) / total
            gains = parent_impurity - weighted
            winner = int(gains.argmax())
            gain = float(gains[winner])
            if gain > 1e-12 and (best is None or gain > best[2]):
                boundary = int(boundaries[winner])
                threshold = float(
                    (values[boundary] + values[boundary + 1]) / 2.0
                )
                best = (feature, threshold, gain)
        if best is None:
            return None
        return best[0], best[1]


def _merge_node_state(a, b):
    """Combine two per-node statistic sets (value union + integer adds)."""
    classes = sorted(set(a["classes"]) | set(b["classes"]))
    position = {cls: i for i, cls in enumerate(classes)}
    a_map = np.array([position[c] for c in a["classes"]], dtype=np.int64)
    b_map = np.array([position[c] for c in b["classes"]], dtype=np.int64)
    counts = np.zeros(len(classes), dtype=np.int64)
    counts[a_map] += a["counts"]
    counts[b_map] += b["counts"]
    hists = {}
    for feature in a["hists"]:
        a_values, a_counts = a["hists"][feature]
        b_values, b_counts = b["hists"][feature]
        values = np.union1d(a_values, b_values)
        merged = np.zeros((len(values), len(classes)), dtype=np.int64)
        merged[np.ix_(np.searchsorted(values, a_values), a_map)] += a_counts
        merged[np.ix_(np.searchsorted(values, b_values), b_map)] += b_counts
        hists[feature] = (values, merged)
    return {"classes": classes, "counts": counts, "hists": hists}


def decision_tree_procedure(ctx: ProcedureContext) -> str:
    """``CALL INZA.DECTREE('intable=T, class=Y, model=M, id=ID,
    maxdepth=6')``."""
    intable = ctx.require("intable").upper()
    class_column = ctx.require("class").upper()
    model_name = ctx.require("model")
    id_column = (ctx.get("id") or "").upper()
    max_depth = ctx.get_int("maxdepth", 6)
    min_rows = ctx.get_int("minsplit", 2)
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
    aggregate = DecisionTreeAggregate(max_depth=max_depth, min_rows=min_rows)
    report = uda.train(aggregate, source)
    root, accuracy = aggregate.result()
    ctx.system.models.register(
        Model(
            name=model_name,
            kind="DECTREE",
            features=features,
            target=class_column,
            payload={"root": root},
            metrics={
                "training_accuracy": accuracy,
                "depth": root.depth(),
                "leaves": root.leaf_count(),
            },
            owner=ctx.connection.user.name,
            rows_trained=report.rows,
            epochs_trained=report.epochs,
            trained_generation=ctx.system.catalog.generation,
        ),
        replace=True,
    )
    return (
        f"DECTREE ok: depth={root.depth()}, leaves={root.leaf_count()}, "
        f"accuracy={accuracy:.4f}"
    )


def predict_decision_tree(ctx: ProcedureContext) -> str:
    """``CALL INZA.PREDICT_DECTREE('model=M, intable=T, outtable=O,
    id=ID')``."""
    model = ctx.system.models.get(ctx.require("model"))
    if model.kind != "DECTREE":
        raise AnalyticsError(f"model {model.name} is not a DECTREE model")
    intable = ctx.require("intable").upper()
    outtable = ctx.require("outtable").upper()
    id_column = ctx.require("id").upper()
    leaves, positions = tree_leaves(
        model.payload["root"], ctx.read_matrix(intable, model.features)
    )
    predictions = np.array([str(leaf.prediction) for leaf in leaves])
    confidences = np.array([leaf.confidence for leaf in leaves])
    rows = ctx.write_row_scores(
        intable,
        id_column,
        outtable,
        [
            ("PREDICTION", VarcharType(64), predictions[positions]),
            ("CONFIDENCE", DOUBLE, confidences[positions]),
        ],
    )
    return f"PREDICT_DECTREE ok: scored {rows} rows"
