"""Differential tests: unified-aggregate trainers vs. legacy fits.

Every trainer runs on the shared ModelAggregate contract, one
sequential pass per epoch.  These tests prove it is numerically
faithful: for each workload and each trainer, the model produced
through ``CALL INZA.*`` must match what the untouched reference
implementations (``kmeans_fit``, ``linreg_fit``, ... in
``tests/oracles/analytics.py``) compute on the same matrix — bitwise
for k-means and logistic SGD, exactly for counts, trees and
assignments, and within 1e-9 for the other floating-point parameters.
"""

import numpy as np
import pytest

from repro import AcceleratedDatabase, IdaaLoader, IterableSource
from repro.analytics import uda
from repro.analytics.decision_tree import TreeNode
from repro.analytics.framework import ProcedureContext
from repro.analytics.logistic import LogisticSGDAggregate
from repro.analytics.scoring import tree_leaves, tree_predictions
from repro.workloads import SOCIAL_COLUMNS, create_churn_table, generate_posts
from repro.workloads.socialmedia import SOCIAL_DDL
from repro.workloads.starschema import create_star_schema
from tests.oracles.analytics import (
    decision_tree_fit,
    decision_tree_predict,
    kmeans_fit,
    linreg_fit,
    logreg_sgd_reference,
    naive_bayes_fit,
)


#: Shard counts every CALL is trained at: the oracle is shard-blind, so
#: matching it at each count also proves the model ignores the count.
#: ``None`` takes the ``SHARDS`` environment default (1 when unset), so
#: a run under ``SHARDS=2`` covers 2 and 4 shards.
SHARDS = (None, 4)


def make_system(shards: int | None, **options) -> AcceleratedDatabase:
    return AcceleratedDatabase(
        slice_count=2, chunk_rows=64, shards=shards, **options
    )


def reference_frame(db, conn, table, feature_columns, label_column=None):
    """The exact matrix/labels the legacy procedures would have read."""
    ctx = ProcedureContext(db, conn, {})
    matrix = ctx.read_matrix(table, feature_columns)
    labels = (
        ctx.read_labels(table, label_column) if label_column else None
    )
    return matrix, labels


def assert_same_tree(a, b):
    assert a.prediction == b.prediction
    assert a.confidence == b.confidence
    assert a.feature == b.feature
    assert a.threshold == b.threshold
    assert a.is_leaf == b.is_leaf
    if not a.is_leaf:
        assert_same_tree(a.left, b.left)
        assert_same_tree(a.right, b.right)


class TestChurnWorkload:
    FEATURES = ["TENURE_MONTHS", "MONTHLY_CHARGES", "SUPPORT_CALLS"]

    @pytest.fixture(params=SHARDS)
    def setup(self, request):
        db = make_system(request.param)
        conn = db.connect()
        create_churn_table(conn, count=600, accelerate=True)
        return db, conn

    def test_kmeans_identical(self, setup):
        db, conn = setup
        conn.execute(
            "CALL INZA.KMEANS('intable=CHURN, outtable=KM_OUT, id=CUST_ID, "
            "k=4, randseed=7, model=KM_CHURN, "
            "incolumn=TENURE_MONTHS;MONTHLY_CHARGES;SUPPORT_CALLS')"
        )
        matrix, __ = reference_frame(db, conn, "CHURN", self.FEATURES)
        reference = kmeans_fit(matrix, 4, seed=7)
        model = db.models.get("KM_CHURN")
        np.testing.assert_array_equal(
            model.payload["centroids"], reference.centroids
        )
        assert model.metrics["iterations"] == reference.iterations
        assert model.metrics["inertia"] == reference.inertia
        out = conn.execute(
            "SELECT cust_id, cluster_id, distance FROM km_out ORDER BY cust_id"
        ).rows
        assert [r[1] for r in out] == [
            int(c) for c in reference.assignments
        ]
        np.testing.assert_array_equal(
            np.array([r[2] for r in out]), reference.distances
        )

    def test_kmeans_sequential_bitwise(self, setup):
        db, conn = setup
        conn.execute(
            "CALL INZA.KMEANS('intable=CHURN, outtable=KB_OUT, id=CUST_ID, "
            "k=3, randseed=3, model=KM_BITS, "
            "incolumn=TENURE_MONTHS;MONTHLY_CHARGES;SUPPORT_CALLS')"
        )
        matrix, __ = reference_frame(db, conn, "CHURN", self.FEATURES)
        reference = kmeans_fit(matrix, 3, seed=3)
        model = db.models.get("KM_BITS")
        assert np.array_equal(model.payload["centroids"], reference.centroids)
        assert model.metrics["inertia"] == reference.inertia

    def test_linreg_identical(self, setup):
        db, conn = setup
        conn.execute(
            "CALL INZA.LINEAR_REGRESSION('intable=CHURN, "
            "target=MONTHLY_CHARGES, model=LR_CHURN, id=CUST_ID, "
            "incolumn=TENURE_MONTHS;SUPPORT_CALLS;CONTRACT_MONTHS')"
        )
        matrix, __ = reference_frame(
            db, conn, "CHURN",
            ["TENURE_MONTHS", "SUPPORT_CALLS", "CONTRACT_MONTHS"],
        )
        target, __ = reference_frame(db, conn, "CHURN", ["MONTHLY_CHARGES"])
        reference = linreg_fit(matrix, target[:, 0])
        model = db.models.get("LR_CHURN")
        assert model.payload["intercept"] == pytest.approx(
            reference.intercept, rel=1e-9, abs=1e-9
        )
        np.testing.assert_allclose(
            model.payload["coefficients"], reference.coefficients,
            rtol=1e-9, atol=1e-9,
        )
        assert model.metrics["r_squared"] == pytest.approx(
            reference.r_squared, rel=1e-9, abs=1e-9
        )
        assert model.metrics["rmse"] == pytest.approx(
            reference.rmse, rel=1e-9
        )

    def test_naive_bayes_identical(self, setup):
        db, conn = setup
        conn.execute(
            "CALL INZA.NAIVEBAYES('intable=CHURN, class=CHURNED, "
            "model=NB_CHURN, id=CUST_ID, incolumn=TENURE_MONTHS;"
            "MONTHLY_CHARGES;SUPPORT_CALLS;CONTRACT_MONTHS')"
        )
        matrix, labels = reference_frame(
            db, conn, "CHURN",
            ["TENURE_MONTHS", "MONTHLY_CHARGES", "SUPPORT_CALLS",
             "CONTRACT_MONTHS"],
            label_column="CHURNED",
        )
        reference = naive_bayes_fit(matrix, labels)
        fit = db.models.get("NB_CHURN").payload["fit"]
        assert fit.classes == reference.classes
        np.testing.assert_array_equal(fit.priors, reference.priors)
        np.testing.assert_allclose(
            fit.means, reference.means, rtol=1e-9, atol=1e-12
        )
        np.testing.assert_allclose(
            fit.variances, reference.variances, rtol=1e-9, atol=1e-12
        )
        assert fit.training_accuracy == reference.training_accuracy

    def test_decision_tree_identical(self, setup):
        db, conn = setup
        conn.execute(
            "CALL INZA.DECTREE('intable=CHURN, class=CHURNED, "
            "model=DT_CHURN, id=CUST_ID, maxdepth=5, incolumn=TENURE_MONTHS;"
            "MONTHLY_CHARGES;SUPPORT_CALLS;CONTRACT_MONTHS')"
        )
        matrix, labels = reference_frame(
            db, conn, "CHURN",
            ["TENURE_MONTHS", "MONTHLY_CHARGES", "SUPPORT_CALLS",
             "CONTRACT_MONTHS"],
            label_column="CHURNED",
        )
        reference = decision_tree_fit(matrix, labels, max_depth=5)
        model = db.models.get("DT_CHURN")
        assert_same_tree(model.payload["root"], reference)
        predictions, __ = decision_tree_predict(matrix, reference)
        accuracy = sum(
            p == t for p, t in zip(predictions, labels)
        ) / len(labels)
        assert model.metrics["training_accuracy"] == accuracy


class TestStarSchemaWorkload:
    @pytest.fixture(params=SHARDS)
    def setup(self, request):
        db = make_system(request.param)
        conn = db.connect()
        create_star_schema(
            conn, customers=80, products=30, transactions=700
        )
        return db, conn

    def test_kmeans_on_fact_table(self, setup):
        db, conn = setup
        conn.execute(
            "CALL INZA.KMEANS('intable=TRANSACTIONS, outtable=TX_SEG, "
            "id=T_ID, k=3, randseed=11, model=KM_TX, "
            "incolumn=T_QUANTITY;T_AMOUNT')"
        )
        matrix, __ = reference_frame(
            db, conn, "TRANSACTIONS", ["T_QUANTITY", "T_AMOUNT"]
        )
        reference = kmeans_fit(matrix, 3, seed=11)
        model = db.models.get("KM_TX")
        np.testing.assert_array_equal(
            model.payload["centroids"], reference.centroids
        )
        assert model.metrics["iterations"] == reference.iterations
        assert model.metrics["inertia"] == reference.inertia

    def test_linreg_amount_from_quantity(self, setup):
        db, conn = setup
        conn.execute(
            "CALL INZA.LINEAR_REGRESSION('intable=TRANSACTIONS, "
            "target=T_AMOUNT, model=LR_TX, id=T_ID, incolumn=T_QUANTITY')"
        )
        matrix, __ = reference_frame(db, conn, "TRANSACTIONS", ["T_QUANTITY"])
        target, __ = reference_frame(db, conn, "TRANSACTIONS", ["T_AMOUNT"])
        reference = linreg_fit(matrix, target[:, 0])
        model = db.models.get("LR_TX")
        assert model.payload["intercept"] == pytest.approx(
            reference.intercept, rel=1e-9, abs=1e-9
        )
        np.testing.assert_allclose(
            model.payload["coefficients"], reference.coefficients,
            rtol=1e-9, atol=1e-9,
        )
        assert model.metrics["rmse"] == pytest.approx(
            reference.rmse, rel=1e-9
        )


class TestSocialMediaWorkload:
    @pytest.fixture(params=SHARDS)
    def setup(self, request):
        db = make_system(request.param)
        conn = db.connect()
        conn.execute(SOCIAL_DDL)
        IdaaLoader(db, batch_size=200).load(
            IterableSource(list(generate_posts(500)), SOCIAL_COLUMNS),
            "SOCIAL_POSTS",
            conn,
        )
        return db, conn

    def test_naive_bayes_topic_from_engagement(self, setup):
        db, conn = setup
        conn.execute(
            "CALL INZA.NAIVEBAYES('intable=SOCIAL_POSTS, class=TOPIC, "
            "model=NB_SOCIAL, id=POST_ID, incolumn=SENTIMENT;LIKES')"
        )
        matrix, labels = reference_frame(
            db, conn, "SOCIAL_POSTS", ["SENTIMENT", "LIKES"],
            label_column="TOPIC",
        )
        reference = naive_bayes_fit(matrix, labels)
        fit = db.models.get("NB_SOCIAL").payload["fit"]
        assert fit.classes == reference.classes
        np.testing.assert_array_equal(fit.priors, reference.priors)
        np.testing.assert_allclose(
            fit.means, reference.means, rtol=1e-9, atol=1e-12
        )
        np.testing.assert_allclose(
            fit.variances, reference.variances, rtol=1e-9, atol=1e-12
        )
        assert fit.training_accuracy == reference.training_accuracy

    def test_decision_tree_exact_structure(self, setup):
        db, conn = setup
        conn.execute(
            "CALL INZA.DECTREE('intable=SOCIAL_POSTS, class=TOPIC, "
            "model=DT_SOCIAL, id=POST_ID, maxdepth=4, "
            "incolumn=SENTIMENT;LIKES')"
        )
        matrix, labels = reference_frame(
            db, conn, "SOCIAL_POSTS", ["SENTIMENT", "LIKES"],
            label_column="TOPIC",
        )
        reference = decision_tree_fit(matrix, labels, max_depth=4)
        model = db.models.get("DT_SOCIAL")
        assert_same_tree(model.payload["root"], reference)


class TestTrainingTelemetry:
    @pytest.mark.parametrize("shards", SHARDS)
    def test_epochs_metrics_and_profiler_rows(self, shards):
        db = make_system(shards)
        conn = db.connect()
        create_churn_table(conn, count=200, accelerate=True)
        before = db.metrics.counter("analytics.epochs").value
        conn.execute(
            "CALL INZA.NAIVEBAYES('intable=CHURN, class=CHURNED, "
            "model=NB_T, id=CUST_ID, incolumn=TENURE_MONTHS')"
        )
        # counts + ssd + accuracy epochs
        assert db.metrics.counter("analytics.epochs").value == before + 3
        model = db.models.get("NB_T")
        assert model.epochs_trained == 3
        assert model.rows_trained == 200
        profiles = [
            p for p in db.profiler.profiles()
            if p.fingerprint == "TRAIN:NAIVEBAYES:CHURN"
        ]
        assert profiles
        assert [op.operator for op in profiles[-1].operators] == [
            "TrainEpoch"
        ] * 3
        assert all(op.actual_rows == 200 for op in profiles[-1].operators)

    @pytest.mark.parametrize("shards", SHARDS)
    def test_train_spans_emitted(self, shards):
        db = make_system(shards)
        conn = db.connect()
        create_churn_table(conn, count=150, accelerate=True)
        conn.execute(
            "CALL INZA.KMEANS('intable=CHURN, outtable=S_OUT, id=CUST_ID, "
            "k=2, incolumn=TENURE_MONTHS;MONTHLY_CHARGES')"
        )
        names = [
            name
            for trace in db.tracer.traces()
            for name in trace.span_names()
        ]
        assert "proc.call" in names
        assert "analytics.train" in names
        assert names.count("analytics.epoch") >= 3


class TestLogisticSGD:
    """The SGD trainer: every ``CALL`` must match a straight-line SGD
    oracle bit-for-bit, at every shard count."""

    EPOCHS = 10
    RATE = 0.5

    @pytest.fixture(params=SHARDS)
    def setup(self, request):
        db = make_system(request.param)
        conn = db.connect()
        conn.execute(
            "CREATE TABLE PTS (ID INTEGER NOT NULL, X1 DOUBLE, "
            "X2 DOUBLE, Y INTEGER) IN ACCELERATOR"
        )
        rng = np.random.RandomState(11)
        x1 = rng.normal(0.0, 1.0, 400)
        x2 = rng.normal(0.0, 1.0, 400)
        label = (x1 + 2.0 * x2 + rng.normal(0.0, 0.3, 400) > 0).astype(int)
        values = ", ".join(
            f"({i}, {float(x1[i])}, {float(x2[i])}, {int(label[i])})"
            for i in range(400)
        )
        conn.execute(f"INSERT INTO PTS VALUES {values}")
        return db, conn

    def _train(self, conn):
        return conn.execute(
            "CALL INZA.LOGISTIC_REGRESSION('intable=PTS, target=Y, "
            "model=LR, id=ID, incolumn=X1;X2, "
            f"epochs={self.EPOCHS}, rate={self.RATE}')"
        )

    def test_model_matches_reference(self, setup):
        db, conn = setup
        self._train(conn)
        model = db.models.get("LR")
        matrix, labels = reference_frame(db, conn, "PTS", ["X1", "X2"], "Y")
        target = np.array(labels, dtype=np.float64)
        reference = logreg_sgd_reference(
            matrix, target, epochs=self.EPOCHS, rate=self.RATE
        )
        # Layout-order SGD: bitwise-equal to the oracle.
        assert model.payload["intercept"] == reference[0]
        np.testing.assert_array_equal(
            model.payload["coefficients"], reference[1:]
        )
        assert model.metrics["accuracy"] >= 0.9

    def test_default_system_at_sixteen_thousand_rows(self):
        # 16,384 rows on a default system is where training once split
        # the snapshot across worker threads and averaged their models;
        # one sequential pass must give the oracle's SGD.
        rows = 16_384
        db = AcceleratedDatabase()
        conn = db.connect()
        conn.execute(
            "CREATE TABLE WIDE_PTS (ID INTEGER NOT NULL, X DOUBLE, "
            "Y INTEGER) IN ACCELERATOR"
        )
        rng = np.random.default_rng(16_384)
        x = rng.normal(0.0, 1.0, rows)
        y = x + rng.normal(0.0, 0.5, rows) < 0.0
        IdaaLoader(db, batch_size=rows).load(
            IterableSource(
                [(i, float(x[i]), int(y[i])) for i in range(rows)],
                ["ID", "X", "Y"],
            ),
            "WIDE_PTS",
            conn,
        )
        conn.execute(
            "CALL INZA.LOGISTIC_REGRESSION('intable=WIDE_PTS, target=Y, "
            "model=LR_WIDE, id=ID, incolumn=X, epochs=2')"
        )
        matrix, labels = reference_frame(db, conn, "WIDE_PTS", ["X"], "Y")
        reference = logreg_sgd_reference(
            matrix, np.array(labels, dtype=np.float64), epochs=2
        )
        model = db.models.get("LR_WIDE")
        assert model.rows_trained == rows
        assert model.payload["intercept"] == reference[0]
        np.testing.assert_array_equal(
            model.payload["coefficients"], reference[1:]
        )

    def test_predict_expression_matches_procedure(self, setup):
        db, conn = setup
        self._train(conn)
        conn.execute(
            "CALL INZA.PREDICT_LOGISTIC_REGRESSION('model=LR, "
            "intable=PTS, outtable=LR_OUT, id=ID')"
        )
        proc_rows = conn.execute(
            "SELECT id, probability FROM lr_out ORDER BY id"
        ).rows
        expr_rows = conn.execute(
            "SELECT id, PREDICT(LR, x1, x2) FROM pts ORDER BY id"
        ).rows
        assert proc_rows == expr_rows

    def test_rejects_non_binary_target(self, setup):
        from repro.errors import AnalyticsError

        db, conn = setup
        conn.execute("UPDATE PTS SET Y = 2 WHERE ID = 250")
        scanned_before = db.accelerator.rows_scanned
        with pytest.raises(AnalyticsError) as raised:
            self._train(conn)
        # A plain Python number, not numpy 2's ``np.float64(2.0)`` repr.
        assert str(raised.value) == (
            "logistic regression target must be 0/1; got 2.0"
        )
        # Checked on the first pass over the one cached scan.
        assert db.accelerator.rows_scanned - scanned_before == 400
        assert "LR" not in db.models


def sgd_sequential(matrix, target, source_order="C", **params):
    """The trained weights of the aggregate, driven as the
    epoch driver drives it: one cached chunk, every epoch over it."""
    stacked = np.column_stack([matrix, target])
    if source_order == "F":
        stacked = np.asfortranarray(stacked)
        assert not stacked.flags.c_contiguous
    chunk = uda.TrainingChunk(matrix=stacked, labels=None, rows=len(target))
    aggregate = LogisticSGDAggregate(matrix.shape[1], **params)
    done = False
    while not done:
        done = aggregate.finalize(
            aggregate.transition(aggregate.init(), chunk)
        )
    result = aggregate.result()
    return np.concatenate([[result.intercept], result.coefficients])


class TestLogisticSGDBitwise:
    """The hoisted SGD loop keeps ``np.dot`` and ``np.exp`` and nothing
    else of numpy on the rounding path, so a sequential pass equals the
    per-row oracle to the bit — at unit scale too, where the sigmoid is
    not saturated and a one-ulp difference would not hide behind
    ``1.0 + 1e-30 == 1.0``."""

    ROWS = 500

    @staticmethod
    def dataset(features, scale, seed, rows=ROWS):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(0.0, scale, (rows, features))
        truth = rng.normal(0.0, 1.0, features)
        noise = rng.normal(0.0, 0.3 * scale, rows)
        target = (matrix @ truth + noise > 0).astype(np.float64)
        return matrix, target

    @pytest.mark.parametrize("features", [1, 2, 4, 9, 40])
    @pytest.mark.parametrize("decay", [0.0, 0.25])
    def test_unit_scale_features(self, features, decay):
        matrix, target = self.dataset(features, 1.0, seed=100 + features)
        own = sgd_sequential(
            matrix, target, epochs=6, rate=0.5, decay=decay
        )
        reference = logreg_sgd_reference(
            matrix, target, epochs=6, rate=0.5, decay=decay
        )
        assert own.tobytes() == reference.tobytes()
        # Not saturated, and both branches of the stable sigmoid ran:
        # margins of either sign survive to the final model.
        margins = reference[0] + matrix @ reference[1:]
        assert (margins >= 0).any() and (margins < 0).any()
        assert np.abs(margins).min() < 1.0

    @pytest.mark.parametrize("features", [1, 4, 9])
    def test_churn_scale_unnormalised_features(self, features):
        # Tenure-in-months / charges-in-currency magnitudes: margins in
        # the hundreds, the sigmoid pinned at 0 or 1 for most rows.
        matrix, target = self.dataset(features, 60.0, seed=7)
        matrix += 40.0
        own = sgd_sequential(matrix, target, epochs=5, rate=0.5, decay=0.1)
        reference = logreg_sgd_reference(
            matrix, target, epochs=5, rate=0.5, decay=0.1
        )
        assert own.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("features", [4, 9])
    def test_non_contiguous_source_matrix(self, features):
        # The loop runs over a C-contiguous copy whatever the source
        # layout: BLAS takes another code path for strided rows (the
        # oracle fed the same column-major matrix lands elsewhere), and
        # the model must not depend on how a chunk happened to be laid
        # out in memory.
        matrix, target = self.dataset(features, 1.0, seed=3)
        own = sgd_sequential(
            matrix, target, source_order="F", epochs=4, rate=0.5
        )
        reference = logreg_sgd_reference(matrix, target, epochs=4, rate=0.5)
        assert own.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("shards", SHARDS)
    def test_churn_table_through_call(self, shards):
        db = make_system(shards)
        conn = db.connect()
        create_churn_table(conn, count=400, accelerate=True)
        features = ["TENURE_MONTHS", "MONTHLY_CHARGES", "SUPPORT_CALLS",
                    "CONTRACT_MONTHS"]
        conn.execute(
            "CALL INZA.LOGISTIC_REGRESSION('intable=CHURN, target=CHURNED, "
            "model=LR_CHURN, id=CUST_ID, epochs=7, rate=0.25, decay=0.5, "
            f"incolumn={';'.join(features)}')"
        )
        matrix, labels = reference_frame(db, conn, "CHURN", features, "CHURNED")
        reference = logreg_sgd_reference(
            matrix, np.array(labels, dtype=np.float64),
            epochs=7, rate=0.25, decay=0.5,
        )
        model = db.models.get("LR_CHURN")
        assert model.payload["intercept"] == reference[0]
        np.testing.assert_array_equal(
            model.payload["coefficients"], reference[1:]
        )


def one_scan(db, conn, table):
    """What a single snapshot scan of ``table`` adds to rows_scanned."""
    before = db.accelerator.rows_scanned
    ProcedureContext(db, conn, {}).row_count(table)
    return db.accelerator.rows_scanned - before


def analytics_admissions(db):
    stats = db.wlm.gates["ACCELERATOR"].class_stats().get("ANALYTICS")
    return stats.admitted + stats.bypassed if stats else 0


class TestScanOncePerCall:
    """The data cannot change inside one CALL, so it is scanned once:
    every epoch runs over the cached chunks while admission, the epoch
    counter and the report stay per epoch."""

    FEATURES = "TENURE_MONTHS;MONTHLY_CHARGES;SUPPORT_CALLS"
    #: procedure call → scans it makes: one to train, and KMEANS reads
    #: the id column again to write its out-table.
    CALLS = {
        "KM": ("CALL INZA.KMEANS('intable=CHURN, outtable=KM_OUT, "
               "id=CUST_ID, k=3, model=KM, incolumn={features}')", 2),
        "LIN": ("CALL INZA.LINEAR_REGRESSION('intable=CHURN, "
                "target=TOTAL_SPEND, model=LIN, id=CUST_ID, "
                "incolumn={features}')", 1),
        "NB": ("CALL INZA.NAIVEBAYES('intable=CHURN, class=CHURNED, "
               "model=NB, id=CUST_ID, incolumn={features}')", 1),
        "DT": ("CALL INZA.DECTREE('intable=CHURN, class=CHURNED, model=DT, "
               "id=CUST_ID, maxdepth=4, incolumn={features}')", 1),
        "LOG": ("CALL INZA.LOGISTIC_REGRESSION('intable=CHURN, "
                "target=CHURNED, model=LOG, id=CUST_ID, epochs=5, "
                "incolumn={features}')", 1),
    }

    @pytest.mark.parametrize("model", sorted(CALLS))
    @pytest.mark.parametrize("shards", SHARDS)
    def test_each_trainer_scans_once(self, shards, model):
        db = make_system(shards, wlm_enabled=True)
        conn = db.connect()
        create_churn_table(conn, count=300, accelerate=True)
        conn.execute(
            "CREATE TABLE CHURN_SPEND AS (SELECT CUST_ID, TENURE_MONTHS, "
            "MONTHLY_CHARGES, SUPPORT_CALLS, CHURNED, "
            "TENURE_MONTHS * MONTHLY_CHARGES AS TOTAL_SPEND FROM CHURN) "
            "WITH DATA IN ACCELERATOR"
        )
        sql, scans = self.CALLS[model]
        sql = sql.format(features=self.FEATURES).replace(
            "intable=CHURN,", "intable=CHURN_SPEND,"
        )
        scan = one_scan(db, conn, "CHURN_SPEND")
        assert scan == 300
        scanned = db.accelerator.rows_scanned
        epochs = db.metrics.counter("analytics.epochs").value
        admitted = analytics_admissions(db)
        conn.execute(sql)
        assert db.accelerator.rows_scanned - scanned == scans * scan
        trained = db.models.get(model)
        assert trained.rows_trained == 300
        assert trained.epochs_trained >= 2
        assert (
            db.metrics.counter("analytics.epochs").value - epochs
            == trained.epochs_trained
        )
        assert analytics_admissions(db) - admitted == trained.epochs_trained

    @pytest.mark.parametrize("shards", SHARDS)
    def test_inside_a_transaction_with_an_own_delta(self, shards):
        db = make_system(shards)
        conn = db.connect()
        conn.execute(
            "CREATE TABLE PTS (ID INTEGER NOT NULL, X DOUBLE, Y INTEGER) "
            "IN ACCELERATOR"
        )
        conn.execute("INSERT INTO PTS VALUES " + ", ".join(
            f"({i}, {(i % 13) / 13.0 - 0.5}, {int(i % 13 > 6)})"
            for i in range(200)
        ))
        conn.execute("BEGIN")
        conn.execute("INSERT INTO PTS VALUES (900, 0.4, 1), (901, -0.4, 0)")
        conn.execute("DELETE FROM PTS WHERE ID = 3")
        # The scan counts committed rows; the delta is merged on top.
        scan = one_scan(db, conn, "PTS")
        assert scan == 200
        scanned = db.accelerator.rows_scanned
        conn.execute(
            "CALL INZA.LOGISTIC_REGRESSION('intable=PTS, target=Y, "
            "model=LR_TXN, id=ID, incolumn=X, epochs=6')"
        )
        assert db.accelerator.rows_scanned - scanned == scan
        model = db.models.get("LR_TXN")
        assert model.rows_trained == 201  # own writes visible, every epoch
        assert model.epochs_trained == 7
        conn.execute("ROLLBACK")

    @pytest.mark.parametrize("shards", SHARDS)
    def test_epochs_share_one_gather(self, shards):
        db = make_system(shards)
        conn = db.connect()
        create_churn_table(conn, count=600, accelerate=True)
        scan = one_scan(db, conn, "CHURN")
        scanned = db.accelerator.rows_scanned
        source = uda.TrainingSource.from_context(
            ProcedureContext(db, conn, {}), "CHURN",
            ["TENURE_MONTHS", "SUPPORT_CALLS", "CHURNED"],
        )
        report = uda.train(LogisticSGDAggregate(2, epochs=3), source)
        assert db.accelerator.rows_scanned - scanned == scan == 600
        assert report.epochs == 4 and report.rows == 600


def hand_built_tree():
    """Ties, an empty branch and a NaN-fed split in one tree.

    feature 0 <= 1.0 ─┬─ feature 1 <= 0.5 ─┬─ "a"
                      │                    └─ "b"
                      └─ feature 0 <= 100.0 ─┬─ "c"
                                             └─ "d"   (no row reaches it)
    """

    def leaf(label, confidence):
        return TreeNode(prediction=label, confidence=confidence)

    return TreeNode(
        prediction="a", confidence=0.4, feature=0, threshold=1.0,
        left=TreeNode(
            prediction="a", confidence=0.6, feature=1, threshold=0.5,
            left=leaf("a", 0.9), right=leaf("b", 0.8),
        ),
        right=TreeNode(
            prediction="c", confidence=0.7, feature=0, threshold=100.0,
            left=leaf("c", 0.75), right=leaf("d", 1.0),
        ),
    )


class TestMaskedTreeWalk:
    """One masked walk (``scoring.tree_leaves``) under the trainer's
    routing, the accuracy epoch, PREDICT_DECTREE and PREDICT(...) — it
    must put every row in the leaf the per-row descent puts it in."""

    MATRIX = np.array([
        [0.0, 0.0],          # left, left
        [1.0, 0.5],          # ties at both thresholds go left
        [1.0, 0.5000001],    # tie, then just right
        [2.0, np.nan],       # right subtree; NaN never consulted
        [0.5, np.nan],       # NaN <= 0.5 is False: goes right
        [np.nan, 0.0],       # NaN at the root goes right, then right
        [50.0, 9.0],
    ])

    def test_leaf_per_row_matches_the_descent(self):
        root = hand_built_tree()
        predictions, confidences = decision_tree_predict(self.MATRIX, root)
        assert predictions == ["a", "a", "b", "c", "b", "d", "c"]
        leaves, positions = tree_leaves(root, self.MATRIX)
        assert [leaves[i].prediction for i in positions] == predictions
        assert [leaves[i].confidence for i in positions] == confidences
        assert tree_predictions(root, self.MATRIX).tolist() == predictions
        # Only reached leaves are returned, and an empty input is fine.
        finite = self.MATRIX[:5]
        leaves, positions = tree_leaves(root, finite)
        assert sorted(leaf.prediction for leaf in leaves) == ["a", "b", "c"]
        leaves, positions = tree_leaves(root, np.empty((0, 2)))
        assert leaves == [] and positions.shape == (0,)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fitted_tree_with_ties_and_nans(self, seed):
        rng = np.random.default_rng(seed)
        # Few distinct values per feature: thresholds sit between them
        # and scoring rows sit exactly on them.
        matrix = rng.integers(0, 5, (300, 3)).astype(np.float64)
        labels = [
            "hi" if a + b > 4 else "lo" if c < 2 else "mid"
            for a, b, c in matrix
        ]
        root = decision_tree_fit(matrix, labels, max_depth=5)
        thresholds = []
        stack = [root]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                thresholds.append((node.feature, node.threshold))
                stack += [node.left, node.right]
        probe = rng.integers(0, 5, (200, 3)).astype(np.float64)
        for row, (feature, threshold) in zip(probe, thresholds):
            row[feature] = threshold
        probe[rng.random(probe.shape) < 0.1] = np.nan
        predictions, confidences = decision_tree_predict(probe, root)
        leaves, positions = tree_leaves(root, probe)
        assert [leaves[i].prediction for i in positions] == predictions
        assert [leaves[i].confidence for i in positions] == confidences

    @pytest.mark.parametrize("shards", SHARDS)
    def test_procedure_and_expression_score_like_the_descent(self, shards):
        db = make_system(shards)
        conn = db.connect()
        conn.execute(
            "CREATE TABLE GRID (ID INTEGER NOT NULL, A DOUBLE, B DOUBLE, "
            "LABEL VARCHAR(8)) IN ACCELERATOR"
        )
        rng = np.random.default_rng(4)
        cells = rng.integers(0, 4, (400, 2))
        conn.execute("INSERT INTO GRID VALUES " + ", ".join(
            f"({i}, {float(a)}, {float(b)}, "
            f"'{'x' if a > b else 'y' if a < b else 'z'}')"
            for i, (a, b) in enumerate(cells)
        ))
        conn.execute(
            "CALL INZA.DECTREE('intable=GRID, class=LABEL, model=DT_GRID, "
            "id=ID, maxdepth=6, incolumn=A;B')"
        )
        matrix, labels = reference_frame(db, conn, "GRID", ["A", "B"], "LABEL")
        model = db.models.get("DT_GRID")
        assert_same_tree(
            model.payload["root"], decision_tree_fit(matrix, labels, max_depth=6)
        )
        predictions, confidences = decision_tree_predict(
            matrix, model.payload["root"]
        )
        assert model.metrics["training_accuracy"] == sum(
            p == t for p, t in zip(predictions, labels)
        ) / len(labels)
        conn.execute(
            "CALL INZA.PREDICT_DECTREE('model=DT_GRID, intable=GRID, "
            "outtable=GRID_OUT, id=ID')"
        )
        __, ids = reference_frame(db, conn, "GRID", ["A"], "ID")
        expected = sorted(zip(ids, predictions, confidences))
        assert conn.execute(
            "SELECT id, prediction, confidence FROM grid_out ORDER BY id"
        ).rows == expected
        assert conn.execute(
            "SELECT id, PREDICT(DT_GRID, a, b) FROM grid ORDER BY id"
        ).rows == [(i, p) for i, p, __ in expected]
