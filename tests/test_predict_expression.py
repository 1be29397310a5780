"""PREDICT(model, features...) — in-kernel scoring in the query path."""

import numpy as np
import pytest

from repro import AcceleratedDatabase
from repro.analytics.model_store import Model
from repro.analytics.scoring import kmeans_sq_distances
from repro.errors import (
    AnalyticsError,
    AuthorizationError,
    UnknownObjectError,
)
from repro.workloads import create_churn_table
from tests.oracles.analytics import _pairwise_sq_distances


@pytest.fixture
def db():
    return AcceleratedDatabase(slice_count=2, chunk_rows=256)


@pytest.fixture
def conn(db):
    connection = db.connect()
    create_churn_table(connection, count=300, accelerate=True)
    connection.execute(
        "CALL INZA.KMEANS('intable=CHURN, outtable=KM_OUT, id=CUST_ID, "
        "k=3, model=SEG, incolumn=TENURE_MONTHS;MONTHLY_CHARGES')"
    )
    connection.execute(
        "CALL INZA.LINEAR_REGRESSION('intable=CHURN, "
        "target=MONTHLY_CHARGES, model=PRICE, id=CUST_ID, "
        "incolumn=TENURE_MONTHS;SUPPORT_CALLS')"
    )
    return connection


def run_on(conn, engine, sql):
    conn.set_acceleration("ALL" if engine == "ACCELERATOR" else "NONE")
    try:
        return conn.execute(sql)
    finally:
        conn.set_acceleration("ALL")


class TestProjectionsAndPredicates:
    def test_projection_matches_training_assignments(self, conn):
        rows = conn.execute(
            "SELECT cust_id, PREDICT(SEG, tenure_months, monthly_charges) "
            "FROM churn ORDER BY cust_id"
        ).rows
        trained = conn.execute(
            "SELECT cust_id, cluster_id FROM km_out ORDER BY cust_id"
        ).rows
        assert [(r[0], r[1]) for r in rows] == [
            (t[0], t[1]) for t in trained
        ]

    def test_where_predicate(self, conn):
        total = conn.execute("SELECT COUNT(*) FROM churn").scalar()
        counts = [
            conn.execute(
                "SELECT COUNT(*) FROM churn WHERE "
                f"PREDICT(SEG, tenure_months, monthly_charges) = {cluster}"
            ).scalar()
            for cluster in range(3)
        ]
        assert sum(counts) == total
        assert all(count > 0 for count in counts)

    def test_regression_scores_in_expression(self, db, conn):
        row = conn.execute(
            "SELECT PREDICT(PRICE, tenure_months, support_calls) "
            "FROM churn WHERE cust_id = 1"
        ).scalar()
        model = db.models.get("PRICE")
        feature_row = conn.execute(
            "SELECT tenure_months, support_calls FROM churn WHERE cust_id = 1"
        ).rows[0]
        expected = model.payload["intercept"] + float(
            np.dot(
                model.payload["coefficients"],
                np.array(feature_row, dtype=np.float64),
            )
        )
        assert row == pytest.approx(expected, rel=1e-12)

    def test_both_engines_byte_identical(self, conn):
        sql = (
            "SELECT cust_id, PREDICT(SEG, tenure_months, monthly_charges), "
            "PREDICT(PRICE, tenure_months, support_calls) "
            "FROM churn WHERE PREDICT(SEG, tenure_months, monthly_charges) "
            ">= 1 ORDER BY cust_id"
        )
        accelerated = run_on(conn, "ACCELERATOR", sql)
        db2 = run_on(conn, "DB2", sql)
        assert accelerated.rows == db2.rows
        for left, right in zip(accelerated.rows, db2.rows):
            assert type(left[1]) is type(right[1])
            assert type(left[2]) is type(right[2])


class TestNullsAndErrors:
    def test_null_feature_yields_null(self, db, conn):
        db.models.register(
            Model(
                name="TOTALSEG",
                kind="LINREG",
                features=["TOTAL_CHARGES"],
                payload={
                    "intercept": 1.0,
                    "coefficients": np.array([2.0]),
                },
                owner="SYSADM",
            ),
            replace=True,
        )
        nulls = conn.execute(
            "SELECT COUNT(*) FROM churn WHERE total_charges IS NULL"
        ).scalar()
        assert nulls > 0
        predicted_nulls = conn.execute(
            "SELECT COUNT(*) FROM churn "
            "WHERE PREDICT(TOTALSEG, total_charges) IS NULL"
        ).scalar()
        assert predicted_nulls == nulls

    def test_unknown_model(self, conn):
        with pytest.raises(UnknownObjectError):
            conn.execute("SELECT PREDICT(NOPE, tenure_months) FROM churn")

    def test_wrong_arity(self, conn):
        with pytest.raises(AnalyticsError, match="expects 2 feature"):
            conn.execute("SELECT PREDICT(SEG, tenure_months) FROM churn")

    def test_unscorable_model_kind(self, db, conn):
        db.models.register(
            Model(name="RULES", kind="ARULE", features=["X"], owner="SYSADM"),
            replace=True,
        )
        with pytest.raises(AnalyticsError, match="cannot be scored"):
            conn.execute("SELECT PREDICT(RULES, tenure_months) FROM churn")

    def test_non_numeric_feature_rejected(self, db, conn):
        conn.execute("CREATE TABLE WORDS (W VARCHAR(8))")
        conn.execute("INSERT INTO WORDS VALUES ('a'), ('b')")
        db.add_table_to_accelerator("WORDS")
        with pytest.raises(Exception, match="must be numeric"):
            conn.execute("SELECT PREDICT(PRICE, w, w) FROM words")


class TestRetrainInvalidation:
    def test_retrain_is_visible_through_cached_kernels(self, db, conn):
        sql = (
            "SELECT SUM(PREDICT(PRICE, tenure_months, support_calls)) "
            "FROM churn"
        )
        before = conn.execute(sql).scalar()
        generation_before = db.models.get("PRICE").generation
        # Retrain on a different feature set: same name, new parameters.
        conn.execute(
            "CALL INZA.LINEAR_REGRESSION('intable=CHURN, "
            "target=MONTHLY_CHARGES, model=PRICE, id=CUST_ID, "
            "incolumn=TENURE_MONTHS;CONTRACT_MONTHS')"
        )
        assert db.models.get("PRICE").generation > generation_before
        after = conn.execute(sql).scalar()
        assert after != before

    def test_dropped_model_fails_cleanly(self, db, conn):
        sql = "SELECT PREDICT(SEG, tenure_months, monthly_charges) FROM churn"
        conn.execute(sql)
        db.models.drop("SEG")
        with pytest.raises(UnknownObjectError):
            conn.execute(sql)


class TestModelPrivileges:
    def test_non_owner_cannot_score(self, db, conn):
        db.create_user("ANALYST")
        conn.execute("GRANT SELECT ON CHURN TO ANALYST")
        analyst = db.connect("ANALYST")
        with pytest.raises(AuthorizationError, match="lacks READ on model"):
            analyst.execute(
                "SELECT PREDICT(SEG, tenure_months, monthly_charges) "
                "FROM churn"
            )

    def test_owner_and_admin_can_score(self, db, conn):
        db.create_user("ANALYST")
        conn.execute("GRANT SELECT ON CHURN TO ANALYST")
        conn.execute("GRANT EXECUTE ON PROCEDURE INZA.KMEANS TO ANALYST")
        analyst = db.connect("ANALYST")
        analyst.execute(
            "CALL INZA.KMEANS('intable=CHURN, outtable=A_OUT, id=CUST_ID, "
            "k=2, model=MINE, incolumn=TENURE_MONTHS;MONTHLY_CHARGES')"
        )
        assert analyst.execute(
            "SELECT COUNT(*) FROM churn "
            "WHERE PREDICT(MINE, tenure_months, monthly_charges) = 0"
        ).scalar() > 0
        # The admin may read any model regardless of ownership.
        assert conn.execute(
            "SELECT COUNT(*) FROM churn "
            "WHERE PREDICT(MINE, tenure_months, monthly_charges) = 0"
        ).scalar() > 0


# -- one kernel per kind: the procedure and the expression agree -------------

BLOB_COLUMNS = [f"X{j}" for j in range(1, 10)]

#: kind → (training CALL, scoring procedure, input table, id column,
#: out-table score column, PREDICT features). One model per kind, each
#: scored by its ``INZA.PREDICT_*`` procedure into ``O_<kind>``.
AGREEMENT = {
    "LINREG": (
        "CALL INZA.LINEAR_REGRESSION('intable=CHURN, target=MONTHLY_CHARGES, "
        "model=M_LINREG, id=CUST_ID, "
        "incolumn=TENURE_MONTHS;SUPPORT_CALLS;CONTRACT_MONTHS')",
        "INZA.PREDICT_LINEAR_REGRESSION", "CHURN", "CUST_ID", "PREDICTION",
        "TENURE_MONTHS, SUPPORT_CALLS, CONTRACT_MONTHS",
    ),
    "LOGREG": (
        "CALL INZA.LOGISTIC_REGRESSION('intable=CHURN, target=CHURNED, "
        "model=M_LOGREG, id=CUST_ID, epochs=3, "
        "incolumn=TENURE_MONTHS;MONTHLY_CHARGES;SUPPORT_CALLS')",
        "INZA.PREDICT_LOGISTIC_REGRESSION", "CHURN", "CUST_ID", "PROBABILITY",
        "TENURE_MONTHS, MONTHLY_CHARGES, SUPPORT_CALLS",
    ),
    "NAIVEBAYES": (
        "CALL INZA.NAIVEBAYES('intable=LABELLED, class=LABEL, "
        "model=M_NAIVEBAYES, id=CUST_ID, "
        "incolumn=TENURE_MONTHS;MONTHLY_CHARGES;SUPPORT_CALLS')",
        "INZA.PREDICT_NAIVEBAYES", "LABELLED", "CUST_ID", "PREDICTION",
        "TENURE_MONTHS, MONTHLY_CHARGES, SUPPORT_CALLS",
    ),
    "DECTREE": (
        "CALL INZA.DECTREE('intable=LABELLED, class=LABEL, model=M_DECTREE, "
        "id=CUST_ID, maxdepth=5, "
        "incolumn=TENURE_MONTHS;MONTHLY_CHARGES;SUPPORT_CALLS')",
        "INZA.PREDICT_DECTREE", "LABELLED", "CUST_ID", "PREDICTION",
        "TENURE_MONTHS, MONTHLY_CHARGES, SUPPORT_CALLS",
    ),
    "KMEANS3": (
        "CALL INZA.KMEANS('intable=BLOBS, outtable=T_KMEANS3, id=ID, k=3, "
        "randseed=5, model=M_KMEANS3, incolumn=X1;X2;X3')",
        "INZA.PREDICT_KMEANS", "BLOBS", "ID", "CLUSTER_ID", "X1, X2, X3",
    ),
    "KMEANS9": (
        "CALL INZA.KMEANS('intable=BLOBS, outtable=T_KMEANS9, id=ID, k=3, "
        f"randseed=5, model=M_KMEANS9, incolumn={';'.join(BLOB_COLUMNS)}')",
        "INZA.PREDICT_KMEANS", "BLOBS", "ID", "CLUSTER_ID",
        ", ".join(BLOB_COLUMNS),
    ),
}


@pytest.fixture(scope="module")
def scored():
    """Every kind trained once and scored by its procedure."""
    db = AcceleratedDatabase(slice_count=2, chunk_rows=256)
    conn = db.connect()
    create_churn_table(conn, count=2000, accelerate=True)
    conn.execute(
        "CREATE TABLE LABELLED (CUST_ID INTEGER NOT NULL PRIMARY KEY, "
        "TENURE_MONTHS INTEGER NOT NULL, MONTHLY_CHARGES DOUBLE NOT NULL, "
        "SUPPORT_CALLS INTEGER NOT NULL, LABEL VARCHAR(8) NOT NULL)"
    )
    conn.execute(
        "INSERT INTO LABELLED SELECT cust_id, tenure_months, "
        "monthly_charges, support_calls, "
        "CASE WHEN churned = 1 THEN 'yes' ELSE 'no' END FROM churn"
    )
    db.add_table_to_accelerator("LABELLED")
    # Three well-separated blobs in nine dimensions: Lloyd reaches an
    # exact fixed point, so the trainer's last assignment is the argmin
    # over its final centroids.
    rng = np.random.default_rng(17)
    centers = rng.uniform(-50.0, 50.0, (3, len(BLOB_COLUMNS)))
    points = centers[np.arange(300) % 3] + rng.normal(
        0.0, 1.0, (300, len(BLOB_COLUMNS))
    )
    conn.execute(
        "CREATE TABLE BLOBS (ID INTEGER NOT NULL PRIMARY KEY, "
        + ", ".join(f"{name} DOUBLE NOT NULL" for name in BLOB_COLUMNS)
        + ")"
    )
    conn.execute("INSERT INTO BLOBS VALUES " + ", ".join(
        f"({i}, " + ", ".join(repr(float(v)) for v in row) + ")"
        for i, row in enumerate(points)
    ))
    db.add_table_to_accelerator("BLOBS")
    for kind, (train, procedure, intable, id_column, *__) in (
        AGREEMENT.items()
    ):
        conn.execute(train)
        conn.execute(
            f"CALL {procedure}('model=M_{kind}, intable={intable}, "
            f"outtable=O_{kind}, id={id_column}')"
        )
    return conn


@pytest.mark.parametrize("engine", ["ACCELERATOR", "DB2"])
@pytest.mark.parametrize("kind", sorted(AGREEMENT))
def test_procedure_out_table_equals_predict(scored, kind, engine):
    """``INZA.PREDICT_*`` and ``PREDICT(...)`` run one kernel per kind,
    so the out-table and the expression column agree to the bit."""
    conn = scored
    *__, intable, id_column, column, features = AGREEMENT[kind]
    out = conn.execute(
        f"SELECT {id_column}, {column} FROM O_{kind} ORDER BY {id_column}"
    ).rows
    expression = run_on(
        conn, engine,
        f"SELECT {id_column}, PREDICT(M_{kind}, {features}) "
        f"FROM {intable} ORDER BY {id_column}",
    ).rows
    assert len(out) == conn.execute(
        f"SELECT COUNT(*) FROM {intable}"
    ).scalar()
    assert out == expression


@pytest.mark.parametrize("width", [3, 9])
def test_kmeans_out_table_equals_predict_kmeans(scored, width):
    """The trainer's out-table is what scoring the training table with
    the finished model writes — on either side of numpy's eight-term
    pairwise-summation cut-over."""
    conn = scored
    trained, scored_out = (
        conn.execute(
            f"SELECT id, cluster_id, distance FROM {table} ORDER BY id"
        ).rows
        for table in (f"T_KMEANS{width}", f"O_KMEANS{width}")
    )
    assert len(trained) == 300
    assert len({cluster for __, cluster, __ in trained}) == 3
    assert trained == scored_out


@pytest.mark.parametrize("features", range(1, 8))
def test_kmeans_kernel_is_the_broadcast_below_eight_features(features):
    """Why the trainer stays bitwise equal to the ``kmeans_fit`` oracle
    on every standing workload's k-means: below eight features the
    per-feature kernel and the broadcast sum round identically."""
    rng = np.random.default_rng(features)
    matrix = rng.normal(0.0, 1.0, (2000, features)) * rng.uniform(
        1.0, 100.0, features
    )
    centroids = rng.normal(0.0, 30.0, (4, features))
    assert np.array_equal(
        kmeans_sq_distances(matrix, centroids),
        _pairwise_sq_distances(matrix, centroids),
    )
