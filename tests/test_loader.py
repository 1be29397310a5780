"""IDAA Loader: sources, targets, dual load, direct AOT ingestion."""

import pytest

from repro import AcceleratedDatabase, CsvSource, IdaaLoader, IterableSource, JsonLinesSource
from repro.errors import LoaderError
from repro.workloads import SOCIAL_COLUMNS, generate_posts, write_posts_jsonl
from repro.workloads.socialmedia import SOCIAL_DDL


@pytest.fixture
def db():
    return AcceleratedDatabase(slice_count=2, chunk_rows=128)


@pytest.fixture
def conn(db):
    return db.connect()


@pytest.fixture
def loader(db):
    return IdaaLoader(db, batch_size=100)


class TestSources:
    def test_csv_source(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("ID,NAME,SCORE\n1,alice,2.5\n2,bob,\n")
        source = CsvSource(path)
        assert source.column_names() == ["ID", "NAME", "SCORE"]
        rows = list(source.rows())
        assert rows == [(1, "alice", 2.5), (2, "bob", None)]

    def test_csv_headerless_requires_columns(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n")
        with pytest.raises(LoaderError):
            CsvSource(path, has_header=False)
        source = CsvSource(path, has_header=False, columns=["A", "B"])
        assert list(source.rows()) == [(1, 2)]

    def test_csv_width_mismatch(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("A,B\n1,2,3\n")
        with pytest.raises(LoaderError):
            list(CsvSource(path).rows())

    def test_csv_schema_inference(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("ID,NAME,SCORE\n1,alice,2.5\n")
        schema = CsvSource(path).infer_schema()
        assert schema.column("ID").sql_type.render() == "INTEGER"
        assert schema.column("SCORE").sql_type.render() == "DOUBLE"
        assert schema.column("NAME").sql_type.render().startswith("VARCHAR")

    def test_jsonl_source(self, tmp_path):
        path = write_posts_jsonl(tmp_path / "posts.jsonl", count=5)
        source = JsonLinesSource(path, columns=SOCIAL_COLUMNS)
        rows = list(source.rows())
        assert len(rows) == 5
        assert rows[0][0] == 1

    def test_jsonl_invalid_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"a": 1}\nnot json\n')
        with pytest.raises(LoaderError):
            list(JsonLinesSource(path).rows())

    def test_iterable_generator_consumed_once(self):
        source = IterableSource((row for row in [(1,)]), ["A"])
        assert list(source.rows()) == [(1,)]
        with pytest.raises(LoaderError):
            list(source.rows())

    def test_iterable_list_reusable(self):
        source = IterableSource([(1,), (2,)], ["A"])
        assert len(list(source.rows()))  == 2
        assert len(list(source.rows())) == 2


class TestLoadTargets:
    def test_load_into_db2_only_table(self, db, conn, loader):
        conn.execute("CREATE TABLE T (ID INTEGER, V DOUBLE)")
        report = loader.load(
            IterableSource([(i, float(i)) for i in range(250)], ["ID", "V"]),
            "T",
            conn,
        )
        assert report.rows == 250
        assert report.batches == 3
        assert report.location == "DB2_ONLY"
        assert report.movement.total_bytes == 0  # nothing crossed
        assert conn.execute("SELECT COUNT(*) FROM t").scalar() == 250

    def test_dual_load_into_accelerated_table(self, db, conn, loader):
        conn.execute("CREATE TABLE T (ID INTEGER, V DOUBLE)")
        db.add_table_to_accelerator("T")
        report = loader.load(
            IterableSource([(i, float(i)) for i in range(100)], ["ID", "V"]),
            "T",
            conn,
        )
        assert report.location == "ACCELERATED"
        assert report.movement.bytes_to_accelerator > 0
        # Both sides consistent, without replication involvement.
        assert db.replication.backlog == 0
        conn.set_acceleration("NONE")
        db2_count = conn.execute("SELECT COUNT(*) FROM t").scalar()
        conn.set_acceleration("ALL")
        acc_count = conn.execute("SELECT COUNT(*) FROM t").scalar()
        assert db2_count == acc_count == 100

    def test_direct_aot_load_bypasses_db2(self, db, conn, loader):
        conn.execute(SOCIAL_DDL)
        report = loader.load(
            IterableSource(list(generate_posts(300)), SOCIAL_COLUMNS),
            "SOCIAL_POSTS",
            conn,
        )
        assert report.location == "ACCELERATOR_ONLY"
        assert report.db2_rows_written == 0  # the paper's bypass
        assert report.movement.bytes_to_accelerator > 0
        assert conn.execute(
            "SELECT COUNT(*) FROM social_posts"
        ).scalar() == 300

    def test_create_from_inferred_schema(self, db, conn, loader, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("ID,LABEL\n1,a\n2,b\n")
        report = loader.load(
            CsvSource(path), "NEWTAB", conn, create=True, in_accelerator=True
        )
        assert report.rows == 2
        assert db.catalog.table("NEWTAB").is_aot

    def test_create_rejects_existing_table(self, db, conn, loader):
        conn.execute("CREATE TABLE T (ID INTEGER)")
        with pytest.raises(LoaderError):
            loader.load(
                IterableSource([(1,)], ["ID"]), "T", conn, create=True
            )

    def test_column_mismatch_rejected(self, db, conn, loader):
        conn.execute("CREATE TABLE T (ID INTEGER, V DOUBLE)")
        with pytest.raises(LoaderError):
            loader.load(IterableSource([(1,)], ["ID"]), "T", conn)

    def test_coercion_errors_surface(self, db, conn, loader):
        from repro.errors import TypeError_

        conn.execute("CREATE TABLE T (ID INTEGER)")
        with pytest.raises(TypeError_):
            loader.load(IterableSource([("xyz",)], ["ID"]), "T", conn)

    def test_social_enrichment_join(self, db, conn, loader):
        """The paper's use case: social posts (AOT) joined with an
        accelerated enterprise table."""
        conn.execute(SOCIAL_DDL)
        loader.load(
            IterableSource(list(generate_posts(200)), SOCIAL_COLUMNS),
            "SOCIAL_POSTS",
            conn,
        )
        conn.execute("CREATE TABLE REGIONS (R VARCHAR(4), NAME VARCHAR(16))")
        conn.execute(
            "INSERT INTO REGIONS VALUES ('EU', 'Europe'), ('US', 'States'), "
            "('AP', 'Asia'), ('LA', 'LatAm')"
        )
        db.add_table_to_accelerator("REGIONS")
        result = conn.execute(
            "SELECT r.name, COUNT(*) AS n, AVG(p.sentiment) FROM "
            "social_posts p JOIN regions r ON p.region = r.r "
            "GROUP BY r.name ORDER BY n DESC"
        )
        assert result.engine == "ACCELERATOR"
        assert sum(row[1] for row in result.rows) == 200


class TestLoadReport:
    def test_throughput_metric(self, db, conn, loader):
        conn.execute("CREATE TABLE T (ID INTEGER)")
        report = loader.load(
            IterableSource([(i,) for i in range(50)], ["ID"]), "T", conn
        )
        assert report.rows_per_second > 0

    @pytest.mark.parametrize("placement", ["IN ACCELERATOR", "ACCELERATED"])
    def test_a_load_is_one_trace(self, db, conn, placement):
        """Each batch's link send nests under the load's one span, so a
        load evicts at most one retained statement trace."""
        in_accelerator = placement == "IN ACCELERATOR"
        conn.execute(
            "CREATE TABLE L (K INTEGER, S VARCHAR(8))"
            + (" IN ACCELERATOR" if in_accelerator else "")
        )
        if not in_accelerator:
            db.add_table_to_accelerator("L")
        before = len(db.tracer.traces())
        report = IdaaLoader(db, batch_size=10).load(
            IterableSource([(k, f"s{k}") for k in range(50)], ["K", "S"]),
            "L",
            conn,
        )
        assert report.batches == 5
        traces = db.tracer.traces()
        assert len(traces) == before + 1
        assert traces[-1].name == "loader.load"
        assert len(traces[-1].find_spans("interconnect.send")) == 5
