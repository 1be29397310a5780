"""Pure-algorithm correctness: k-means, regression, NB, tree, Apriori."""

import math

import numpy as np
import pytest

from repro.analytics.association import (
    apriori_frequent_itemsets,
    association_rules,
)
from repro.analytics.model_store import Model
from repro.analytics.scoring import build_scorer, naive_bayes_kernel
from repro.errors import AnalyticsError
from tests.oracles.analytics import (
    decision_tree_fit,
    decision_tree_predict,
    kmeans_fit,
    linreg_fit,
    naive_bayes_fit,
)


def score(kind, payload, feature_count, matrix):
    """Score ``matrix`` the way ``PREDICT(...)`` does."""
    model = Model(
        name="M",
        kind=kind,
        features=[f"F{j}" for j in range(feature_count)],
        payload=payload,
    )
    return build_scorer(model).score(matrix)


class TestKMeans:
    def two_blobs(self, n=100):
        rng = np.random.default_rng(5)
        a = rng.normal((0, 0), 0.3, size=(n, 2))
        b = rng.normal((10, 10), 0.3, size=(n, 2))
        return np.vstack([a, b])

    def test_separates_two_blobs(self):
        matrix = self.two_blobs()
        result = kmeans_fit(matrix, k=2, seed=3)
        first_half = set(result.assignments[:100].tolist())
        second_half = set(result.assignments[100:].tolist())
        assert len(first_half) == 1 and len(second_half) == 1
        assert first_half != second_half

    def test_centroids_near_blob_centers(self):
        result = kmeans_fit(self.two_blobs(), k=2, seed=3)
        centers = sorted(result.centroids[:, 0].tolist())
        assert centers[0] == pytest.approx(0.0, abs=0.5)
        assert centers[1] == pytest.approx(10.0, abs=0.5)

    def test_deterministic_for_seed(self):
        matrix = self.two_blobs()
        a = kmeans_fit(matrix, k=2, seed=7)
        b = kmeans_fit(matrix, k=2, seed=7)
        assert np.array_equal(a.assignments, b.assignments)
        assert a.inertia == b.inertia

    def test_k_equals_n(self):
        matrix = np.array([[0.0], [1.0], [2.0]])
        result = kmeans_fit(matrix, k=3, seed=1)
        assert result.inertia == pytest.approx(0.0)

    def test_too_few_rows(self):
        with pytest.raises(AnalyticsError):
            kmeans_fit(np.zeros((2, 2)), k=3)

    def test_invalid_k(self):
        with pytest.raises(AnalyticsError):
            kmeans_fit(np.zeros((5, 2)), k=0)

    def test_identical_points(self):
        matrix = np.ones((10, 2))
        result = kmeans_fit(matrix, k=2, seed=1)
        assert result.inertia == pytest.approx(0.0)

    def test_distances_match_assignments(self):
        matrix = self.two_blobs(20)
        result = kmeans_fit(matrix, k=2, seed=1)
        for i in range(len(matrix)):
            own = np.linalg.norm(
                matrix[i] - result.centroids[result.assignments[i]]
            )
            assert result.distances[i] == pytest.approx(own)


class TestLinearRegression:
    def test_recovers_exact_linear_relation(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-5, 5, size=(200, 2))
        y = 3.0 + 2.0 * x[:, 0] - 0.5 * x[:, 1]
        result = linreg_fit(x, y)
        assert result.intercept == pytest.approx(3.0, abs=1e-8)
        assert result.coefficients[0] == pytest.approx(2.0, abs=1e-8)
        assert result.coefficients[1] == pytest.approx(-0.5, abs=1e-8)
        assert result.r_squared == pytest.approx(1.0)
        assert result.rmse == pytest.approx(0.0, abs=1e-8)

    def test_noisy_fit_r_squared_below_one(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-5, 5, size=(500, 1))
        y = 1.0 + x[:, 0] + rng.normal(0, 1.0, 500)
        result = linreg_fit(x, y)
        assert 0.5 < result.r_squared < 1.0

    def test_predict(self):
        x = np.array([[1.0], [2.0]])
        predictions = score(
            "LINREG", {"intercept": 1.0, "coefficients": np.array([2.0])}, 1, x
        )
        assert predictions.tolist() == [3.0, 5.0]

    def test_constant_target(self):
        x = np.arange(10, dtype=float).reshape(-1, 1)
        result = linreg_fit(x, np.full(10, 7.0))
        assert result.r_squared == pytest.approx(1.0)
        assert result.coefficients[0] == pytest.approx(0.0, abs=1e-9)

    def test_zero_rows_rejected(self):
        with pytest.raises(AnalyticsError):
            linreg_fit(np.empty((0, 1)), np.empty(0))

    def test_length_mismatch(self):
        with pytest.raises(AnalyticsError):
            linreg_fit(np.zeros((3, 1)), np.zeros(4))


class TestNaiveBayes:
    def separable(self):
        rng = np.random.default_rng(8)
        a = rng.normal(0, 0.5, size=(100, 2))
        b = rng.normal(5, 0.5, size=(100, 2))
        matrix = np.vstack([a, b])
        labels = ["neg"] * 100 + ["pos"] * 100
        return matrix, labels

    def test_separable_classes_high_accuracy(self):
        matrix, labels = self.separable()
        model = naive_bayes_fit(matrix, labels)
        assert model.training_accuracy > 0.99

    def test_priors_reflect_frequencies(self):
        matrix = np.vstack([np.zeros((30, 1)), np.ones((10, 1))])
        labels = ["a"] * 30 + ["b"] * 10
        model = naive_bayes_fit(matrix, labels)
        priors = dict(zip(model.classes, model.priors))
        assert priors["a"] == pytest.approx(0.75)

    def test_predict_new_points(self):
        matrix, labels = self.separable()
        model = naive_bayes_fit(matrix, labels)
        points = np.array([[0.1, 0.1], [5.1, 4.9]])
        predictions = score("NAIVEBAYES", {"fit": model}, 2, points)
        assert predictions.tolist() == ["neg", "pos"]
        __, log_likelihoods = naive_bayes_kernel(model)
        assert all(math.isfinite(s) for s in log_likelihoods(points).max(axis=1))

    def test_zero_variance_feature_survives(self):
        matrix = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 0.5], [1.0, 0.7]])
        model = naive_bayes_fit(matrix, ["a", "a", "b", "b"])
        predictions = score("NAIVEBAYES", {"fit": model}, 2, matrix)
        assert len(predictions) == 4

    def test_empty_rejected(self):
        with pytest.raises(AnalyticsError):
            naive_bayes_fit(np.empty((0, 1)), [])


class TestDecisionTree:
    def test_learns_threshold_rule(self):
        matrix = np.arange(100, dtype=float).reshape(-1, 1)
        labels = ["lo" if v < 50 else "hi" for v in matrix[:, 0]]
        root = decision_tree_fit(matrix, labels, max_depth=3)
        predictions, __ = decision_tree_predict(matrix, root)
        assert predictions == labels
        assert root.feature == 0
        assert 49.0 <= root.threshold <= 50.0

    def test_learns_quadrants_with_depth(self):
        points = [(x, y) for x in range(10) for y in range(10)]
        matrix = np.array(points, dtype=float)
        labels = [f"q{int(x < 5)}{int(y < 5)}" for x, y in points]
        root = decision_tree_fit(matrix, labels, max_depth=4)
        predictions, __ = decision_tree_predict(matrix, root)
        accuracy = sum(p == t for p, t in zip(predictions, labels)) / 100
        assert accuracy == 1.0
        assert root.depth() >= 3  # needs two levels of splits plus leaves

    def test_max_depth_limits_tree(self):
        rng = np.random.default_rng(3)
        matrix = rng.uniform(size=(200, 3))
        labels = [str(int(v * 8)) for v in matrix[:, 0]]
        shallow = decision_tree_fit(matrix, labels, max_depth=2)
        deep = decision_tree_fit(matrix, labels, max_depth=6)
        assert shallow.depth() <= 2
        assert deep.depth() <= 6
        assert deep.leaf_count() >= shallow.leaf_count()

    def test_pure_node_stops_early(self):
        matrix = np.zeros((20, 1))
        root = decision_tree_fit(matrix, ["same"] * 20)
        assert root.is_leaf
        assert root.confidence == 1.0

    def test_min_rows_respected(self):
        matrix = np.arange(10, dtype=float).reshape(-1, 1)
        labels = ["a"] * 9 + ["b"]
        root = decision_tree_fit(matrix, labels, min_rows=5)
        # A split isolating the single 'b' would violate min_rows.
        if not root.is_leaf:
            assert min(root.left.leaf_count(), root.right.leaf_count()) >= 1

    def test_confidence_in_unit_interval(self):
        rng = np.random.default_rng(4)
        matrix = rng.uniform(size=(100, 2))
        labels = [rng.choice(["x", "y"]) for __ in range(100)]
        root = decision_tree_fit(matrix, list(labels))
        __, confidences = decision_tree_predict(matrix, root)
        assert all(0.0 < c <= 1.0 for c in confidences)


class TestApriori:
    BASKETS = [
        {"beer", "chips"},
        {"beer", "chips", "salsa"},
        {"beer", "diapers"},
        {"chips", "salsa"},
        {"beer", "chips", "diapers"},
    ]

    def test_support_counts(self):
        frequent = apriori_frequent_itemsets(self.BASKETS, min_support=0.4)
        assert frequent[frozenset(["beer"])] == pytest.approx(0.8)
        assert frequent[frozenset(["beer", "chips"])] == pytest.approx(0.6)

    def test_min_support_filters(self):
        frequent = apriori_frequent_itemsets(self.BASKETS, min_support=0.5)
        assert frozenset(["diapers"]) not in frequent

    def test_downward_closure(self):
        frequent = apriori_frequent_itemsets(self.BASKETS, min_support=0.2)
        for itemset in frequent:
            for item in itemset:
                assert itemset - {item} in frequent or len(itemset) == 1

    def test_rules_confidence_and_lift(self):
        frequent = apriori_frequent_itemsets(self.BASKETS, min_support=0.4)
        rules = association_rules(frequent, min_confidence=0.7)
        by_key = {(r.antecedent, r.consequent): r for r in rules}
        rule = by_key[(("chips",), ("beer",))]
        assert rule.confidence == pytest.approx(0.75)
        assert rule.lift == pytest.approx(0.75 / 0.8)

    def test_min_confidence_filters(self):
        frequent = apriori_frequent_itemsets(self.BASKETS, min_support=0.2)
        strict = association_rules(frequent, min_confidence=0.99)
        loose = association_rules(frequent, min_confidence=0.1)
        assert len(strict) < len(loose)

    def test_max_size_caps_itemsets(self):
        frequent = apriori_frequent_itemsets(
            self.BASKETS, min_support=0.2, max_size=1
        )
        assert all(len(s) == 1 for s in frequent)

    def test_empty_baskets(self):
        assert apriori_frequent_itemsets([], min_support=0.5) == {}

    def test_invalid_support(self):
        with pytest.raises(AnalyticsError):
            apriori_frequent_itemsets(self.BASKETS, min_support=0.0)

    def test_rules_sorted_by_confidence(self):
        frequent = apriori_frequent_itemsets(self.BASKETS, min_support=0.2)
        rules = association_rules(frequent, min_confidence=0.1)
        confidences = [r.confidence for r in rules]
        assert confidences == sorted(confidences, reverse=True)
