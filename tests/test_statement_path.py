"""The one statement path: bind → authorize → route → admit → execute → record.

Table-driven over statement kind × CURRENT QUERY ACCELERATION × how the
statement arrived (cached text, second execution of the same text,
pre-parsed AST, sub-select of INSERT … SELECT into an AOT and into a DB2
table, CTAS, EXPLAIN target):

(a) what EXPLAIN says is what execution does — same engine, same reason,
    same error;
(b) every arrival route authorizes, with the same ``AuthorizationError``;
(c) a statement that fails mid-execution leaves nothing of itself on the
    session.
"""

from collections import Counter

import pytest

from repro import AcceleratedDatabase
from repro.errors import AuthorizationError, ReproError
from repro.sql import parse_statement

MODES = ["NONE", "ENABLE", "ENABLE WITH FAILBACK", "ALL"]

#: Query kinds; every one yields (INTEGER, DOUBLE) so it can also arrive
#: as the sub-select of an INSERT or a CTAS.
QUERIES = {
    "agg-copy": "SELECT K, SUM(V) FROM FACT GROUP BY K",
    "point-copy": "SELECT ID, V FROM FACT WHERE ID = 7",
    "scan-copy": "SELECT ID, V FROM FACT WHERE V > 100",
    "aot": "SELECT K, SUM(V) FROM STAGE GROUP BY K",
    "db2-only": "SELECT ID, V FROM SMALL",
    "view": "SELECT K, SUM(V) FROM VFACT GROUP BY K",
    "predict": "SELECT ID, V FROM FACT WHERE PREDICT(SEG, K, V) = 0",
    "set-op": "SELECT ID, V FROM FACT WHERE ID < 3 UNION ALL "
    "SELECT ID, V FROM FACT WHERE ID > 597",
}
MONITOR = "SELECT COUNT(*) FROM SYSACCEL.MON_STATEMENTS"

WRITES = {
    "insert-db2": "INSERT INTO SMALL VALUES (77, 1.0)",
    "insert-aot": "INSERT INTO STAGE VALUES (9000, 1, 1.0)",
    "update-db2": "UPDATE FACT SET V = V + 1 WHERE ID = 3",
    "update-aot": "UPDATE STAGE SET V = V + 1 WHERE ID = 3",
    "delete-db2": "DELETE FROM SMALL WHERE ID = 77",
    "delete-aot": "DELETE FROM STAGE WHERE ID = 9000",
    "insert-select-aot": "INSERT INTO SINK_AOT SELECT ID, V FROM FACT WHERE ID < 9",
    "insert-select-db2": "INSERT INTO SINK_DB2 SELECT ID, V FROM FACT WHERE ID < 9",
}


def make_system(**options):
    # A cooldown no test outlives: OFFLINE stays OFFLINE (no half-open probe).
    db = AcceleratedDatabase(
        slice_count=2, chunk_rows=128, cooldown_seconds=3600.0, **options
    )
    admin = db.connect()
    admin.execute(
        "CREATE TABLE FACT (ID INTEGER NOT NULL PRIMARY KEY, K INTEGER, V DOUBLE)"
    )
    admin.execute(
        "INSERT INTO FACT VALUES "
        + ", ".join(f"({i}, {i % 7}, {float(i)})" for i in range(600))
    )
    db.add_table_to_accelerator("FACT")
    admin.execute("CREATE TABLE SMALL (ID INTEGER NOT NULL PRIMARY KEY, V DOUBLE)")
    admin.execute("INSERT INTO SMALL VALUES (1, 1.0), (2, 2.0)")
    admin.execute("CREATE TABLE STAGE (ID INTEGER, K INTEGER, V DOUBLE) IN ACCELERATOR")
    admin.execute("INSERT INTO STAGE SELECT ID, K, V FROM FACT")
    admin.execute("CREATE VIEW VFACT AS SELECT ID, K, V FROM FACT WHERE K < 5")
    admin.execute(
        "CALL INZA.KMEANS('intable=FACT, outtable=KM_OUT, id=ID, k=2, "
        "model=SEG, incolumn=K;V')"
    )
    admin.execute("CREATE TABLE SINK_DB2 (A INTEGER, B DOUBLE)")
    admin.execute("CREATE TABLE SINK_AOT (A INTEGER, B DOUBLE) IN ACCELERATOR")
    db.create_user("EVE")
    return db


@pytest.fixture(scope="module")
def shared_db():
    """One system for the read-mostly table (a); cases use own sessions.

    The profiler is off so that no cardinality feedback is recorded: an
    EXPLAIN target has no fingerprint, so feedback stored under a
    statement's text corrects that text's later executions but not its
    EXPLAIN. That is a difference in estimator *input*, not a second copy
    of the path, and is not what this table is about.
    """
    return make_system(profiling_enabled=False)


def session(db, mode, user="SYSADM"):
    conn = db.connect(user)
    conn.set_acceleration(mode)
    return conn


def outcome(fn):
    """('ok', engine, reason) or (error type, message) of one attempt."""
    try:
        return ("ok",) + tuple(fn())
    except ReproError as exc:
        return (type(exc).__name__, str(exc))


def explained(conn, target):
    """EXPLAIN's verdict: through SQL for text, through the API for AST."""
    if isinstance(target, str):
        grid = dict(conn.execute(f"EXPLAIN {target}").rows)
        return grid["ENGINE"], grid["REASON"]
    info = conn.explain(target)
    return info["engine"], info["reason"]


def executed(conn, target):
    result = conn.execute(target)
    return result.engine, conn.last_decision


def routed(db):
    """(engine, reason) the last statement's (sub-)select was routed to."""
    (span,) = db.tracer.last().find_spans("route")
    return span.attributes["engine"], span.attributes["reason"]


# -- (a) EXPLAIN is what execution does -------------------------------------------


@pytest.mark.parametrize("arrival", ["text", "text-again", "ast"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", [*QUERIES, "monitor"])
def test_explain_matches_execution(shared_db, kind, mode, arrival):
    sql = QUERIES.get(kind, MONITOR)
    conn = session(shared_db, mode)
    shared_db.plan_cache.clear()
    target = parse_statement(sql) if arrival == "ast" else sql
    if arrival == "text-again":
        outcome(lambda: executed(conn, sql))  # now cached and prepared
    said = outcome(lambda: explained(conn, target))
    did = outcome(lambda: executed(conn, target))
    assert said == did
    if kind == "aot":  # the AOT-only row: no engine but the accelerator
        assert did[0] == ("RoutingError" if mode == "NONE" else "ok")
        assert mode == "NONE" or did[1:] == ("ACCELERATOR", "references an AOT")


#: How a query arrives as a sub-select: wrapper → its target is an AOT.
WRAPPERS = {
    "insert-select-aot": ("INSERT INTO SINK_AOT {q}", True),
    "insert-select-db2": ("INSERT INTO SINK_DB2 {q}", False),
    "ctas-aot": ("CREATE TABLE CT_SINK AS ({q}) IN ACCELERATOR", True),
    "ctas-db2": ("CREATE TABLE CT_SINK AS ({q})", False),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "kind, arrival",
    [
        (kind, arrival)
        for kind in QUERIES
        for arrival in WRAPPERS
        # The CTAS grammar takes a plain SELECT, not a set operation.
        if not (kind == "set-op" and arrival.startswith("ctas"))
    ],
)
def test_explain_matches_subselect_execution(shared_db, kind, arrival, mode):
    """A sub-select is routed as EXPLAIN says the same SELECT would be —
    under mode ALL when its target is an AOT."""
    wrapper, to_aot = WRAPPERS[arrival]
    sql = QUERIES[kind]
    conn = session(shared_db, mode)
    said = outcome(
        lambda: explained(session(shared_db, "ALL" if to_aot else mode), sql)
    )

    def run():
        conn.execute(wrapper.format(q=sql))
        return routed(shared_db)

    try:
        assert said == outcome(run)
    finally:
        conn.execute("DROP TABLE IF EXISTS CT_SINK")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", QUERIES)
def test_explain_matches_execution_while_offline(kind, mode):
    """Health OFFLINE: copies fail back under ENABLE WITH FAILBACK, every
    other would-be offload fails fast — in EXPLAIN exactly as in execution."""
    db = make_system()
    db.health.force_offline()
    conn = session(db, mode)
    said = outcome(lambda: explained(conn, QUERIES[kind]))
    did = outcome(lambda: executed(conn, QUERIES[kind]))
    assert said == did
    if kind == "agg-copy" and mode == "ENABLE WITH FAILBACK":
        assert did == ("ok", "DB2", "failback: accelerator offline")
    if kind == "aot" and mode != "NONE":
        assert did[0] == "AcceleratorUnavailableError"


@pytest.mark.parametrize("offline", [False, True], ids=["online", "offline"])
@pytest.mark.parametrize("kind", WRITES)
def test_explain_matches_write_execution(kind, offline):
    """DML runs where its target lives; EXPLAIN names that engine, and
    AOT DML fails fast in both while the accelerator is OFFLINE."""
    db = make_system()
    if offline:
        db.health.force_offline()
    conn = session(db, "ENABLE WITH FAILBACK")
    said = outcome(lambda: explained(conn, WRITES[kind])[:1])
    did = outcome(lambda: executed(conn, WRITES[kind])[:1])
    assert said == did
    if offline and kind.endswith("aot"):
        assert did[0] == "AcceleratorUnavailableError"


# -- (b) every arrival route authorizes ------------------------------------------------

#: Ungranted object → (a query over it, the refusal EVE must get).
UNGRANTED = {
    "table": (
        "SELECT ID, V FROM FACT WHERE V > 40",
        "user EVE lacks SELECT on TABLE FACT",
    ),
    "view": (
        "SELECT ID, V FROM VFACT WHERE V > 40",
        "user EVE lacks SELECT on TABLE VFACT",
    ),
    "model": (
        "SELECT ID, V FROM SMALL WHERE PREDICT(SEG, ID, V) = 0",
        "user EVE lacks READ on model SEG",
    ),
}

ARRIVALS = {
    "text": lambda c, q: c.execute(q),
    "text-again": lambda c, q: (outcome(lambda: c.execute(q)), c.execute(q)),
    "ast": lambda c, q: c.execute(parse_statement(q)),
    "insert-select-aot": lambda c, q: c.execute(f"INSERT INTO EVE_AOT {q}"),
    "insert-select-db2": lambda c, q: c.execute(f"INSERT INTO EVE_DB2 {q}"),
    "ctas": lambda c, q: c.execute(f"CREATE TABLE EVE_CT AS ({q})"),
    "ctas-aot": lambda c, q: c.execute(
        f"CREATE TABLE EVE_CT AS ({q}) IN ACCELERATOR"
    ),
    "explain": lambda c, q: c.execute(f"EXPLAIN {q}"),
    "explain-api": lambda c, q: c.explain(parse_statement(q)),
    "explain-analyze": lambda c, q: c.execute(f"EXPLAIN ANALYZE {q}"),
    "explain-insert-select": lambda c, q: c.execute(
        f"EXPLAIN INSERT INTO EVE_DB2 {q}"
    ),
    "explain-ctas": lambda c, q: c.execute(
        f"EXPLAIN CREATE TABLE EVE_CT AS ({q})"
    ),
}


@pytest.fixture(scope="module")
def eve_db():
    db = make_system()
    # SMALL is readable, so the model case fails on the model alone.
    db.connect().execute("GRANT SELECT ON SMALL TO EVE")
    eve = db.connect("EVE")
    eve.execute("CREATE TABLE EVE_DB2 (A INTEGER, B DOUBLE)")
    eve.execute("CREATE TABLE EVE_AOT (A INTEGER, B DOUBLE) IN ACCELERATOR")
    return db


@pytest.mark.parametrize("arrival", ARRIVALS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("ungranted", UNGRANTED)
def test_every_arrival_route_authorizes(eve_db, ungranted, mode, arrival):
    query, refusal = UNGRANTED[ungranted]
    eve = session(eve_db, mode, user="EVE")
    with pytest.raises(AuthorizationError) as raised:
        ARRIVALS[arrival](eve, query)
    assert str(raised.value) == refusal
    assert not eve_db.catalog.has_table("EVE_CT")
    assert eve.execute("SELECT COUNT(*) FROM EVE_DB2").scalar() == 0


@pytest.mark.parametrize(
    "write, refusal",
    [
        ("INSERT INTO SMALL VALUES (5, 5.0)", "INSERT on TABLE SMALL"),
        ("UPDATE FACT SET V = 0 WHERE ID = 1", "UPDATE on TABLE FACT"),
        ("DELETE FROM STAGE WHERE ID = 1", "DELETE on TABLE STAGE"),
    ],
)
def test_explain_authorizes_dml_targets(write, refusal):
    db = make_system()
    eve = db.connect("EVE")
    message = f"user EVE lacks {refusal}"
    for sql in (write, f"EXPLAIN {write}"):
        with pytest.raises(AuthorizationError) as raised:
            eve.execute(sql)
        assert str(raised.value) == message


def test_grantees_owners_and_admins_see_the_same_explain():
    db = make_system()
    admin, eve = db.connect(), db.connect("EVE")
    sql = UNGRANTED["table"][0]
    admin.execute("GRANT SELECT ON FACT TO EVE")
    assert eve.explain(sql) == admin.explain(sql)
    assert eve.execute(f"EXPLAIN {sql}").rows == admin.execute(f"EXPLAIN {sql}").rows
    admin.execute("REVOKE SELECT ON FACT FROM EVE")
    with pytest.raises(AuthorizationError):
        eve.explain(sql)
    # Owners need no grant; monitoring views stay open to every session.
    eve.execute("CREATE TABLE MINE (ID INTEGER, V DOUBLE)")
    assert eve.explain("SELECT * FROM MINE")["engine"] == "DB2"
    grid = dict(eve.execute(f"EXPLAIN {MONITOR}").rows)
    assert (grid["ENGINE"], grid["REASON"]) == ("DB2", "monitoring view")
    assert grid["TABLES"] == "SYSACCEL.MON_STATEMENTS=MONITORING VIEW"


# -- (c) a failed statement leaves nothing on the session ---------------------------


def test_failed_statement_leaves_no_per_statement_state_behind():
    db = make_system()
    db.wlm.enabled = True  # so statements hold admission tickets
    conn = session(db, "ENABLE")
    sql = QUERIES["agg-copy"]
    conn.execute("BEGIN")
    conn.execute("INSERT INTO SMALL VALUES (50, 5.0)")
    conn.execute("INSERT INTO STAGE VALUES (9001, 1, 1.0)")
    with db.faults.forced("accelerator", kind="crash"):
        with pytest.raises(ReproError):  # no failback under plain ENABLE
            conn.execute(f"EXPLAIN ANALYZE {sql}", timeout_seconds=30)
    db.health.reset()

    # No ticket, no budget, no profile list: the session carries only
    # what cancel() and the public API read.
    assert conn._budget is None
    assert all(gate.slots_in_use == 0 for gate in db.wlm.gates.values())
    leftovers = {"_ticket", "_statement_class", "_profile_force", "_last_profiles"}
    assert not leftovers & set(vars(conn))
    # The next EXPLAIN ANALYZE reports its own execution only.
    grid = conn.execute(f"EXPLAIN ANALYZE {sql}").rows
    headers = [row[0] for row in grid if row[0].startswith("execution [")]
    assert len(headers) == 1 and "error=" not in headers[0]
    assert all(gate.slots_in_use == 0 for gate in db.wlm.gates.values())
    # The transaction survived the failed statement with its earlier work.
    assert conn.in_transaction
    assert conn.execute("SELECT COUNT(*) FROM SMALL WHERE ID = 50").scalar() == 1
    assert conn.execute("SELECT COUNT(*) FROM STAGE WHERE ID = 9001").scalar() == 1
    conn.execute("COMMIT")
    other = db.connect()
    assert other.execute("SELECT COUNT(*) FROM STAGE WHERE ID = 9001").scalar() == 1


# -- (d) the stages run in one order, and every planning call is visible ------------

#: Statement → the tracer's span names for it, in start order, with the
#: WLM on so that the admit stage shows: parse (resolve), route, admit,
#: execute, then the landing's link send and the commit.
STAGE_ORDER = {
    "SELECT V FROM T WHERE ID = 1": [
        "statement", "parse", "route", "wlm.admit", "db2.execute", "commit",
    ],
    "SELECT COUNT(*) FROM A": [
        "statement", "parse", "route", "wlm.admit", "accelerator.execute",
        "interconnect.send", "interconnect.send", "commit",
    ],
    "INSERT INTO T VALUES (900, 4.0)": [
        "statement", "parse", "wlm.admit", "commit", "replication.drain",
        "interconnect.send",
    ],
    "INSERT INTO A VALUES (5, 5.0)": [
        "statement", "parse", "wlm.admit", "interconnect.send", "commit",
    ],
    "INSERT INTO A SELECT ID, V FROM T WHERE ID < 3": [
        "statement", "parse", "route", "wlm.admit", "accelerator.execute",
        "interconnect.send", "commit",
    ],
    "UPDATE T SET V = 9.0 WHERE ID = 1": [
        "statement", "parse", "wlm.admit", "commit", "replication.drain",
        "interconnect.send",
    ],
    "UPDATE A SET V = 9.0 WHERE ID = 1": [
        "statement", "parse", "wlm.admit", "interconnect.send", "commit",
    ],
    "DELETE FROM T WHERE ID = 900": [
        "statement", "parse", "wlm.admit", "commit", "replication.drain",
        "interconnect.send",
    ],
    "DELETE FROM A WHERE ID = 5": [
        "statement", "parse", "wlm.admit", "interconnect.send", "commit",
    ],
    "CALL INZA.SUMMARY('intable=T, outtable=T_SUM')": [
        "statement", "parse", "proc.call", "interconnect.send", "commit",
    ],
    "EXPLAIN ANALYZE SELECT COUNT(*) FROM A": [
        "statement", "parse", "route", "wlm.admit", "accelerator.execute",
        "interconnect.send", "interconnect.send", "commit",
    ],
}


def small_system(**options):
    db = AcceleratedDatabase(slice_count=2, chunk_rows=64, **options)
    conn = db.connect()
    conn.execute("CREATE TABLE T (ID INTEGER NOT NULL PRIMARY KEY, V DOUBLE)")
    conn.execute(
        "INSERT INTO T VALUES " + ", ".join(f"({i}, {i}.5)" for i in range(200))
    )
    conn.execute("CREATE TABLE A (ID INTEGER, V DOUBLE) IN ACCELERATOR")
    conn.execute("INSERT INTO A VALUES (1, 1.0), (2, 2.0)")
    db.add_table_to_accelerator("T")
    return db, conn


def test_every_statement_kind_runs_its_stages_in_one_order():
    db, conn = small_system(wlm_enabled=True)
    for sql, spans in STAGE_ORDER.items():
        conn.execute(sql)
        assert db.tracer.last().span_names() == spans, sql


def _counting(counts, name, fn):
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counted


def test_planning_functions_and_commit_are_called_where_a_wrapper_sees_them(
    monkeypatch,
):
    """The standing benchmark's layer recorder replaces the three planning
    functions in ``repro.federation.system`` and the session's ``commit``
    on the instance: each call must go through those names."""
    import repro.federation.system as pipeline

    counts = Counter()
    for name in ("parse_statement", "plan_statement", "estimate_plan"):
        monkeypatch.setattr(
            pipeline, name, _counting(counts, name, getattr(pipeline, name))
        )
    db, conn = small_system()
    conn.commit = _counting(counts, "commit", conn.commit)

    def calls(sql):
        counts.clear()
        conn.execute(sql)
        return dict(counts)

    # A cache miss parses, plans and estimates once; the same shape with
    # a new literal only estimates.
    assert calls("SELECT V FROM T WHERE ID = 1") == {
        "parse_statement": 1, "plan_statement": 1, "estimate_plan": 1, "commit": 1,
    }
    assert calls("SELECT V FROM T WHERE ID = 2") == {"estimate_plan": 1, "commit": 1}
    # Every autocommit statement commits once through the instance.
    for sql in (
        "INSERT INTO T VALUES (900, 1.0)",
        "UPDATE A SET V = 2.0 WHERE ID = 1",
        "DELETE FROM T WHERE ID = 900",
        "CALL INZA.SUMMARY('intable=T, outtable=T_SUM')",
    ):
        assert calls(sql).get("commit") == 1, sql
    # Inside a transaction only COMMIT commits.
    assert calls("BEGIN").get("commit") is None
    assert calls("INSERT INTO A VALUES (7, 7.0)").get("commit") is None
    assert calls("COMMIT").get("commit") == 1


def test_predict_models_are_authorized_block_by_block():
    """A query's PREDICT nodes are checked one query block after another:
    the outer block's own expressions first, then the blocks nested in
    them, then those in its FROM clause."""
    db, conn = small_system()
    sql = (
        "SELECT (SELECT MAX(PREDICT(INNER_M, V)) FROM T), PREDICT(OUTER_M, V) "
        "FROM (SELECT V FROM T WHERE PREDICT(FROM_M, V) = 0) AS S"
    )
    with pytest.raises(ReproError, match="OUTER_M"):
        conn.execute(sql)
