"""Seeded data and statement schedules for the standing benchmark.

Everything the program receives is generated here from ``--seed``: table
rows (through ``repro.workloads``' seeded generators), the set-up SQL, the
warm-up statements and the per-round statement schedules. Nothing in this
module touches a database, so the same seed always yields the same bytes;
:func:`schedule_sha256` pins them.

A *round* is a fixed-count schedule. Round ``r`` of a workload has the same
template counts as every other round and differs only in its literals, so a
run that fits more rounds into ``--seconds`` does more of the same work, not
different work, and per-round medians compare like with like.
"""

from __future__ import annotations

import datetime
import hashlib
import random

from repro.workloads import (
    generate_churn_rows,
    generate_customers,
    generate_posts,
    generate_products,
    generate_transactions,
)
from repro.workloads.churn import CHURN_DDL
from repro.workloads.socialmedia import SOCIAL_DDL
from repro.workloads.starschema import CUSTOMER_DDL, PRODUCT_DDL, TRANSACTION_DDL

DEFAULT_SEED = 20160315
HOLDOUT_SEED = 706707

WORKLOADS = ("star_olap", "star_olap_shards4", "oltp_replicated", "elt_mining")

#: The non-admin user every measured statement runs as, so the authorize
#: path does real work (SYSADM short-circuits it).
BENCH_USER = "BENCH"

#: Frozen sizes. ``transactions`` stays above the accelerator's
#: 16384-row parallel-scan threshold so the default worker pool is on the
#: path; ``smoke`` is 1/20 of ``full`` for a quick oracle-on pass.
SIZES = {
    "full": {
        "star": {"customers": 2000, "products": 200, "transactions": 16000},
        "star_round": 50,
        "oltp": {"transactions": 20000, "churn_zone": 1000},
        "oltp_round": 1500,
        "oltp_txns": 30,
        "elt": {"churn": 20000, "posts": 20000, "logreg_sample": 5000},
    },
    "smoke": {
        "star": {"customers": 100, "products": 20, "transactions": 1000},
        "star_round": 50,
        "oltp": {"transactions": 1000, "churn_zone": 50},
        "oltp_round": 150,
        "oltp_txns": 3,
        "elt": {"churn": 1000, "posts": 1000, "logreg_sample": 250},
    },
}

#: Rounds whose statement texts enter the schedule hash.
HASHED_ROUNDS = 2


def _rng(seed: int, *salt) -> random.Random:
    return random.Random(f"{seed}:{':'.join(str(s) for s in salt)}")


def render_row(row: tuple) -> str:
    parts = []
    for value in row:
        if value is None:
            parts.append("NULL")
        elif isinstance(value, (datetime.date, datetime.datetime, str)):
            parts.append("'" + str(value).replace("'", "''") + "'")
        else:
            parts.append(repr(value))
    return "(" + ", ".join(parts) + ")"


def insert_statements(table: str, rows: list, batch: int = 1000) -> list[str]:
    return [
        f"INSERT INTO {table} VALUES "
        + ", ".join(render_row(row) for row in rows[start : start + batch])
        for start in range(0, len(rows), batch)
    ]


def _grants(tables=(), procedures=()) -> list[str]:
    return [
        f"GRANT {privileges} ON {table} TO {BENCH_USER}"
        for table, privileges in tables
    ] + [
        f"GRANT EXECUTE ON PROCEDURE {procedure} TO {BENCH_USER}"
        for procedure in procedures
    ]


# -- star_olap / star_olap_shards4 ------------------------------------------

#: Statements per template in a 50-statement round, and how many of them
#: reuse a hot text (20 of 50 = the 40% exact-repeat share). The two
#: object-predicate templates together hold the 10% share.
STAR_MIX = {
    # template: (count, hot)
    "join2": (10, 4),
    "join3": (10, 4),
    "topn": (8, 3),
    "numagg": (15, 6),
    "wide": (2, 2),
    "date_scan": (4, 1),
    "varchar_scan": (1, 0),
}

_STAR_SQL = {
    "join2": (
        "SELECT c_region, COUNT(*), SUM(t_amount) FROM transactions t "
        "JOIN customers c ON t.t_customer = c.c_id WHERE t_amount > {x} "
        "GROUP BY c_region ORDER BY c_region"
    ),
    "join3": (
        "SELECT c_segment, p_category, COUNT(*), SUM(t_amount) "
        "FROM transactions t JOIN customers c ON t.t_customer = c.c_id "
        "JOIN products p ON t.t_product = p.p_id WHERE t_amount > {x} "
        "GROUP BY c_segment, p_category ORDER BY c_segment, p_category"
    ),
    "topn": (
        "SELECT t_id, t_customer, t_amount FROM transactions "
        "WHERE t_amount > {x} ORDER BY t_amount DESC, t_id LIMIT 10"
    ),
    "numagg": (
        "SELECT COUNT(*), AVG(t_amount), MAX(t_quantity) FROM transactions "
        "WHERE t_amount > {x} AND t_quantity <= {q}"
    ),
    # t_quantity is uniform on 1..8: >= 7 returns a quarter of the fact
    # table, >= 6 three eighths (4000 and 6000 rows at full size).
    "wide": (
        "SELECT t_id, t_customer, t_product, t_amount FROM transactions "
        "WHERE t_quantity >= {q}"
    ),
    "date_scan": (
        "SELECT COUNT(*), SUM(t_amount) FROM transactions "
        "WHERE t_date >= '{d}'"
    ),
    "varchar_scan": (
        "SELECT c_segment, COUNT(*), AVG(c_income) FROM customers "
        "WHERE c_region = '{r}' AND c_income > {x} "
        "GROUP BY c_segment ORDER BY c_segment"
    ),
}

_REGIONS = ("EU", "US", "AP", "LA")


def _star_text(template: str, rng: random.Random) -> str:
    """A fresh text. Literals stay in bands of similar selectivity (60-80%
    of the amounts, the middle months), so a statement's cost depends on
    its template and hardly on the seed."""
    day = datetime.date(2015, 1, 1) + datetime.timedelta(days=rng.randint(120, 240))
    return _STAR_SQL[template].format(
        x=f"{rng.uniform(800.0, 1600.0):.2f}",
        q=rng.randint(6, 7) if template == "wide" else rng.randint(5, 7),
        d=day.isoformat(),
        r=rng.choice(_REGIONS),
    )


def _star_hot_texts(seed: int) -> dict[str, list[str]]:
    """Three fixed texts per template, reused by every round (cache hits)."""
    rng = _rng(seed, "star", "hot")
    hot = {t: [_star_text(t, rng) for _ in range(3)] for t in STAR_MIX}
    hot["wide"] = [_STAR_SQL["wide"].format(q=6), _STAR_SQL["wide"].format(q=7)]
    return hot


def star_data(seed: int, sizes: dict) -> dict[str, list]:
    star = sizes["star"]
    return {
        "CUSTOMERS": generate_customers(star["customers"], seed),
        "PRODUCTS": generate_products(star["products"], seed + 1),
        "TRANSACTIONS": generate_transactions(
            star["transactions"], star["customers"], star["products"], seed + 2
        ),
    }


def star_setup(seed: int, sizes: dict) -> list[str]:
    """Admin SQL: schema, population, acceleration, placement, grants.

    Identical for both shard counts; only ``AcceleratedDatabase(shards=)``
    differs, so the two workloads see byte-identical data and schedule.
    """
    data = star_data(seed, sizes)
    statements = [CUSTOMER_DDL, PRODUCT_DDL, TRANSACTION_DDL]
    for table, rows in data.items():
        statements += insert_statements(table, rows)
    statements += [
        "CALL SYSPROC.ACCEL_ADD_TABLES('tables=CUSTOMERS;PRODUCTS;TRANSACTIONS')",
        "ALTER TABLE TRANSACTIONS ACCELERATE DISTRIBUTE BY HASH(T_CUSTOMER)",
    ]
    statements += _grants(
        tables=[(t, "SELECT") for t in data],
        procedures=["INZA.KMEANS", "INZA.DROP_MODEL"],
    )
    return statements


def star_warmup(seed: int) -> list[tuple[str, str]]:
    """Every hot text once, so round 0 already sees the steady-state plan
    cache; the first text of each template is also the oracle set."""
    hot = _star_hot_texts(seed)
    return [(template, sql) for template in STAR_MIX for sql in hot[template]]


def star_round(seed: int, index: int, sizes: dict) -> list[tuple[str, str]]:
    """One round: ``sizes['star_round']`` (template, sql) pairs."""
    scale = sizes["star_round"] // 50
    rng = _rng(seed, "star", index)
    hot = _star_hot_texts(seed)
    schedule = []
    for template, (count, hot_count) in STAR_MIX.items():
        for n in range(count * scale):
            if n < hot_count * scale:
                sql = hot[template][n % len(hot[template])]
            else:
                sql = _star_text(template, rng)
            schedule.append((template, sql))
    rng.shuffle(schedule)
    return schedule


# -- oltp_replicated ---------------------------------------------------------

#: Shares of the base statements; each explicit transaction adds five more.
OLTP_MIX = {
    "point_select": 0.32,
    "hot_select": 0.15,
    "update": 0.20,
    "insert": 0.15,
    "delete": 0.10,
    # 8%, not the 5% first planned: the accelerated aggregates are the
    # slowest class, and at 5% p95_ms sat on its lower edge and flapped
    # between 1.4 and 2.4 ms from run to run; at 8% it sits inside it.
    "accel_agg": 0.08,
}
OLTP_TXN = ("txn_begin", "txn_aot_insert", "txn_update", "txn_aot_read", "txn_end")
ROLLBACK_EVERY = 10

AUDIT_DDL = (
    "CREATE TABLE AUDIT_LOG (A_TXN INTEGER NOT NULL, A_KEY INTEGER NOT NULL, "
    "A_NOTE VARCHAR(16) NOT NULL) IN ACCELERATOR"
)

#: What the harness checks on each result, cheaply, inside the loop.
CHECK_NONE, CHECK_ONE_ROW, CHECK_SCALAR_ONE = 0, 1, 2


_OLTP_SQL = {
    "point_select": (
        "SELECT t_customer, t_quantity, t_amount FROM transactions WHERE t_id = {k}"
    ),
    "update": (
        "UPDATE transactions SET t_quantity = {q}, t_amount = {a} WHERE t_id = {k}"
    ),
    "insert": "INSERT INTO transactions VALUES ({k}, {c}, {p}, {q}, {a}, '{d}')",
    "delete": "DELETE FROM transactions WHERE t_id = {k}",
    "accel_agg": (
        "SELECT COUNT(*), SUM(t_amount) FROM transactions WHERE t_amount > {x}"
    ),
    "txn_aot_insert": "INSERT INTO audit_log VALUES ({t}, {k}, 'r{r}')",
    "txn_aot_read": "SELECT COUNT(*) FROM audit_log WHERE a_txn = {t}",
}


def oltp_data(seed: int, sizes: dict) -> list:
    count = sizes["oltp"]["transactions"]
    return generate_transactions(count, 500, 100, seed + 2)


def oltp_setup(seed: int, sizes: dict) -> list[str]:
    statements = [TRANSACTION_DDL, AUDIT_DDL]
    statements += insert_statements("TRANSACTIONS", oltp_data(seed, sizes))
    statements.append("CALL SYSPROC.ACCEL_ADD_TABLES('tables=TRANSACTIONS')")
    statements += _grants(
        tables=[
            ("TRANSACTIONS", "SELECT, INSERT, UPDATE, DELETE"),
            ("AUDIT_LOG", "SELECT, INSERT"),
        ],
        procedures=["INZA.KMEANS", "INZA.DROP_MODEL"],
    )
    return statements


def _oltp_keys(sizes: dict) -> tuple[int, int]:
    """(stable, total): ids 1..stable are only read and updated; ids above
    are the delete queue's head, refilled by the inserts."""
    total = sizes["oltp"]["transactions"]
    return total - sizes["oltp"]["churn_zone"], total


def oltp_hot_keys(seed: int, sizes: dict) -> list[int]:
    stable, _ = _oltp_keys(sizes)
    return _rng(seed, "oltp", "hot").sample(range(1, stable + 1), 20)


def oltp_warmup(seed: int, sizes: dict) -> list[tuple[str, str]]:
    """The read templates, each compared with DB2 by the warm-up."""
    key = oltp_hot_keys(seed, sizes)[0]
    return [
        ("point_select", _OLTP_SQL["point_select"].format(k=key)),
        ("accel_agg", _OLTP_SQL["accel_agg"].format(x="1500.00")),
    ]


def oltp_warmup_writes(seed: int, sizes: dict) -> list[str]:
    """Every write template once inside a transaction that rolls back, so
    round 0 starts from the seeded state; then the hot point-selects, which
    fill the plan cache."""
    stable, _ = _oltp_keys(sizes)
    return [
        "BEGIN",
        _OLTP_SQL["txn_aot_insert"].format(t=0, k=0, r="warm"),
        _OLTP_SQL["update"].format(k=1, q=1, a="1.00"),
        _OLTP_SQL["insert"].format(k=0, c=1, p=1, q=1, a="1.00", d="2016-01-01"),
        _OLTP_SQL["delete"].format(k=stable),
        _OLTP_SQL["txn_aot_read"].format(t=0),
        "ROLLBACK",
    ] + [_OLTP_SQL["point_select"].format(k=k) for k in oltp_hot_keys(seed, sizes)]


def oltp_round(seed: int, index: int, sizes: dict) -> list[tuple[str, str, int]]:
    """One round of (template, sql, check) triples.

    Inserts take fresh ids past the table's end; the n-th delete of the
    run removes the n-th id of the queue ``stable+1, stable+2, …``, which
    the churn zone and then earlier inserts keep ahead of, so every delete
    finds its row and the schedule never depends on execution state.
    """
    base = sizes["oltp_round"]
    txns = sizes["oltp_txns"]
    stable, total = _oltp_keys(sizes)
    rng = _rng(seed, "oltp", index)
    hot = oltp_hot_keys(seed, sizes)
    counts = {t: round(base * share) for t, share in OLTP_MIX.items()}
    slots = [t for t, n in counts.items() for _ in range(n)] + ["txn"] * txns
    rng.shuffle(slots)
    next_insert = total + 1 + index * counts["insert"]
    next_delete = stable + 1 + index * counts["delete"]
    next_txn = 1 + index * txns
    schedule: list[tuple[str, str, int]] = []
    for slot in slots:
        key = rng.randint(1, stable)
        amount = f"{rng.uniform(1.5, 7200.0):.2f}"
        quantity = rng.randint(1, 8)
        if slot == "point_select":
            sql = _OLTP_SQL[slot].format(k=key)
        elif slot == "hot_select":
            sql = _OLTP_SQL["point_select"].format(k=rng.choice(hot))
        elif slot == "update":
            sql = _OLTP_SQL[slot].format(k=key, q=quantity, a=amount)
        elif slot == "insert":
            day = datetime.date(2016, 1, 1) + datetime.timedelta(days=rng.randint(0, 364))
            sql = _OLTP_SQL[slot].format(
                k=next_insert, c=rng.randint(1, 500), p=rng.randint(1, 100),
                q=quantity, a=amount, d=day.isoformat(),
            )
            next_insert += 1
        elif slot == "delete":
            sql = _OLTP_SQL[slot].format(k=next_delete)
            next_delete += 1
        elif slot == "accel_agg":
            sql = _OLTP_SQL[slot].format(x=f"{rng.uniform(500.0, 6000.0):.2f}")
            schedule.append((slot, sql, CHECK_ONE_ROW))
            continue
        else:
            rollback = next_txn % ROLLBACK_EVERY == 0
            schedule += [
                ("txn_begin", "BEGIN", CHECK_NONE),
                (
                    "txn_aot_insert",
                    _OLTP_SQL["txn_aot_insert"].format(t=next_txn, k=key, r=index),
                    CHECK_ONE_ROW,
                ),
                (
                    "txn_update",
                    _OLTP_SQL["update"].format(k=key, q=quantity, a=amount),
                    CHECK_ONE_ROW,
                ),
                (
                    "txn_aot_read",
                    _OLTP_SQL["txn_aot_read"].format(t=next_txn),
                    CHECK_SCALAR_ONE,
                ),
                ("txn_end", "ROLLBACK" if rollback else "COMMIT", CHECK_NONE),
            ]
            next_txn += 1
            continue
        schedule.append((slot, sql, CHECK_ONE_ROW))
    return schedule


def oltp_committed_txns(rounds: int, sizes: dict) -> list[int]:
    """AUDIT_LOG's expected A_TXN values after ``rounds`` rounds."""
    last = rounds * sizes["oltp_txns"]
    return [t for t in range(1, last + 1) if t % ROLLBACK_EVERY]


# -- elt_mining --------------------------------------------------------------

_CHURN_COLUMNS = (
    "CUST_ID INTEGER NOT NULL, TENURE_MONTHS INTEGER NOT NULL, "
    "MONTHLY_CHARGES DOUBLE NOT NULL, TOTAL_CHARGES DOUBLE, "
    "SUPPORT_CALLS INTEGER NOT NULL, CONTRACT_MONTHS INTEGER NOT NULL"
)
_FEATURE_COLUMNS = (
    _CHURN_COLUMNS + ", AVG_MONTHLY DOUBLE, HEAVY_SUPPORT INTEGER, "
    "CHURNED INTEGER NOT NULL"
)

ELT_STAGE_TABLES = (
    "SOCIAL_POSTS", "CHURN_CLEAN", "CHURN_FEATURES", "CHURN_MODEL_INPUT",
    "CHURN_TRAIN", "CHURN_TEST", "CHURN_CLUSTERS", "CHURN_LR_SAMPLE",
    "CHURN_SCORED",
)
ELT_MODELS = ("CHURN_SEG", "CHURN_TREE", "CHURN_LR")
ELT_TRAINERS = ("INZA.KMEANS", "INZA.DECTREE", "INZA.LOGISTIC_REGRESSION")

#: The read the warm-up compares against DB2 (CHURN is the only table of
#: this workload that DB2 holds; the stages read accelerator-only tables).
ELT_ORACLE_SQL = (
    "SELECT contract_months, COUNT(*), "
    "SUM(COALESCE(total_charges, monthly_charges * tenure_months)) "
    "FROM churn GROUP BY contract_months ORDER BY contract_months"
)


def elt_data(seed: int, sizes: dict) -> dict[str, list]:
    elt = sizes["elt"]
    return {
        "CHURN": generate_churn_rows(elt["churn"], seed),
        "SOCIAL_POSTS": list(generate_posts(elt["posts"], seed + 1)),
    }


def elt_setup(seed: int, sizes: dict) -> list[str]:
    statements = [CHURN_DDL]
    statements += insert_statements("CHURN", elt_data(seed, sizes)["CHURN"])
    statements.append("CALL SYSPROC.ACCEL_ADD_TABLES('tables=CHURN')")
    statements += _grants(
        tables=[("CHURN", "SELECT")],
        procedures=["INZA.SPLIT_DATA", "INZA.DROP_MODEL", *ELT_TRAINERS],
    )
    return statements


def _aot(name: str, columns: str) -> str:
    return f"CREATE TABLE {name} ({columns}) IN ACCELERATOR"


def _self_grant(table: str) -> str:
    # Procedures authorise their input tables by grant, not ownership.
    return f"GRANT SELECT ON {table} TO {BENCH_USER}"


def elt_stages(sizes: dict) -> list[tuple[str, list[str]]]:
    """One iteration's SQL, stage by stage — the paper's hot path.

    Three stages are more than their SQL lists and are filled in by the harness:
    ``load`` (``IdaaLoader.load`` after the DDL below), and ``split`` and
    ``train``, which run as :class:`repro.Pipeline` procedure stages from
    :func:`elt_mining_calls`.
    """
    sample = sizes["elt"]["logreg_sample"]
    return [
        ("load", [SOCIAL_DDL]),
        ("impute", [
            _aot("CHURN_CLEAN", _CHURN_COLUMNS + ", CHURNED INTEGER NOT NULL"),
            "INSERT INTO CHURN_CLEAN SELECT cust_id, tenure_months, "
            "monthly_charges, COALESCE(total_charges, monthly_charges * "
            "tenure_months), support_calls, contract_months, churned FROM churn",
        ]),
        ("features", [
            _aot("CHURN_FEATURES", _FEATURE_COLUMNS),
            "INSERT INTO CHURN_FEATURES SELECT cust_id, tenure_months, "
            "monthly_charges, total_charges, support_calls, contract_months, "
            "total_charges / tenure_months, "
            "CASE WHEN support_calls > 4 THEN 1 ELSE 0 END, churned "
            "FROM churn_clean",
        ]),
        ("filter", [
            _aot("CHURN_MODEL_INPUT", _FEATURE_COLUMNS),
            "INSERT INTO CHURN_MODEL_INPUT SELECT * FROM churn_features "
            "WHERE tenure_months >= 2",
        ]),
        ("txn_dml", [
            "BEGIN",
            "UPDATE churn_model_input SET monthly_charges = monthly_charges + 1.0 "
            "WHERE support_calls = 9 AND contract_months = 24",
            "DELETE FROM churn_model_input "
            "WHERE tenure_months = 2 AND support_calls = 0",
            "SELECT COUNT(*), SUM(monthly_charges) FROM churn_model_input",
            "COMMIT",
            _self_grant("CHURN_MODEL_INPUT"),
        ]),
        ("split", []),
        # Its own stage, which also makes the stage count odd: p50_ms then
        # falls inside the middle stage's samples, not between two stages.
        ("sample", [
            _self_grant("CHURN_TRAIN"),
            _aot("CHURN_LR_SAMPLE", _FEATURE_COLUMNS),
            f"INSERT INTO CHURN_LR_SAMPLE SELECT * FROM churn_train "
            f"WHERE cust_id <= {sample}",
            _self_grant("CHURN_LR_SAMPLE"),
        ]),
        ("train", []),
        ("score", [
            _aot(
                "CHURN_SCORED",
                "CUST_ID INTEGER NOT NULL, TREE_CLASS INTEGER, LR_SCORE DOUBLE",
            ),
            "INSERT INTO CHURN_SCORED SELECT cust_id, PREDICT(CHURN_TREE, "
            "tenure_months, monthly_charges, total_charges, support_calls, "
            "contract_months, avg_monthly, heavy_support), PREDICT(CHURN_LR, "
            "tenure_months, monthly_charges, support_calls, contract_months) "
            "FROM churn_model_input",
        ]),
        ("enrich", [
            "SELECT p.topic, COUNT(*), AVG(s.lr_score), AVG(p.sentiment) "
            "FROM churn_scored s JOIN social_posts p ON s.cust_id = p.post_id "
            "GROUP BY p.topic ORDER BY p.topic",
        ]),
        ("cleanup", [f"DROP TABLE {table}" for table in ELT_STAGE_TABLES]
            + [f"CALL INZA.DROP_MODEL('model={model}')" for model in ELT_MODELS]),
    ]


def elt_mining_calls() -> dict[str, str]:
    """The CALLs of the ``split`` and ``train`` stages, by procedure.

    ``maxiter`` and ``epochs`` are fixed so the training work does not
    swing with how fast a given seed's data happens to converge.
    """
    features = "TENURE_MONTHS;MONTHLY_CHARGES;SUPPORT_CALLS;CONTRACT_MONTHS"
    return {
        "INZA.SPLIT_DATA": (
            "CALL INZA.SPLIT_DATA('intable=CHURN_MODEL_INPUT, "
            "traintable=CHURN_TRAIN, testtable=CHURN_TEST, fraction=0.8, "
            "randseed=17')"
        ),
        "INZA.KMEANS": (
            "CALL INZA.KMEANS('intable=CHURN_TRAIN, outtable=CHURN_CLUSTERS, "
            "id=CUST_ID, k=4, maxiter=5, model=CHURN_SEG, "
            "incolumn=TENURE_MONTHS;MONTHLY_CHARGES;SUPPORT_CALLS')"
        ),
        "INZA.DECTREE": (
            "CALL INZA.DECTREE('intable=CHURN_TRAIN, class=CHURNED, "
            "model=CHURN_TREE, id=CUST_ID, maxdepth=5')"
        ),
        "INZA.LOGISTIC_REGRESSION": (
            "CALL INZA.LOGISTIC_REGRESSION('intable=CHURN_LR_SAMPLE, "
            f"target=CHURNED, model=CHURN_LR, id=CUST_ID, incolumn={features}')"
        ),
    }


#: The k-means probe the statement workloads time as ``train_s``.
PROBE_CALL = (
    "CALL INZA.KMEANS('intable=TRANSACTIONS, outtable=PROBE_CLUSTERS, "
    "id=T_ID, k=4, maxiter=5, model=PROBE_SEG, incolumn=T_QUANTITY;T_AMOUNT')"
)
PROBE_CLEANUP = ("DROP TABLE PROBE_CLUSTERS", "CALL INZA.DROP_MODEL('model=PROBE_SEG')")


# -- schedule hash -----------------------------------------------------------


def schedule_texts(workload: str, seed: int, sizes: dict) -> list[str]:
    """Every byte the program will be fed: set-up SQL (which carries the
    rows), loader rows, warm-up and the first rounds' statement texts."""
    if workload.startswith("star_olap"):
        texts = star_setup(seed, sizes)
        texts += [sql for _, sql in star_warmup(seed)]
        for index in range(HASHED_ROUNDS):
            texts += [sql for _, sql in star_round(seed, index, sizes)]
    elif workload == "oltp_replicated":
        texts = oltp_setup(seed, sizes)
        texts += [sql for _, sql in oltp_warmup(seed, sizes)]
        texts += oltp_warmup_writes(seed, sizes)
        for index in range(HASHED_ROUNDS):
            texts += [sql for _, sql, _ in oltp_round(seed, index, sizes)]
    elif workload == "elt_mining":
        texts = elt_setup(seed, sizes)
        texts += [render_row(row) for row in elt_data(seed, sizes)["SOCIAL_POSTS"]]
        texts += [sql for _, stage in elt_stages(sizes) for sql in stage]
        texts += list(elt_mining_calls().values())
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return texts


def schedule_sha256(workload: str, seed: int, sizes: dict) -> str:
    digest = hashlib.sha256()
    for text in schedule_texts(workload, seed, sizes):
        digest.update(text.encode())
        digest.update(b"\x00")
    return digest.hexdigest()

