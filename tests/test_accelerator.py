"""Accelerator engine: epochs, snapshots, deltas, AOT DML."""

import pytest

from repro.accelerator import AcceleratorEngine, DeltaBuffer
from repro.catalog import Catalog, Column, TableLocation, TableSchema
from repro.federation import accelerator_shards
from repro.sql import parse_statement
from repro.sql.types import DOUBLE, INTEGER, VarcharType


@pytest.fixture
def setup():
    catalog = Catalog()
    engine = AcceleratorEngine(catalog, accelerator_shards(), slice_count=2, chunk_rows=32)
    schema = TableSchema(
        [
            Column("ID", INTEGER, nullable=False),
            Column("REGION", VarcharType(4)),
            Column("V", DOUBLE),
        ]
    )
    descriptor = catalog.create_table(
        "T", schema, location=TableLocation.ACCELERATOR_ONLY
    )
    engine.create_storage(descriptor)
    engine.bulk_insert(
        "T", [(i, "EU" if i % 2 else "US", float(i)) for i in range(100)]
    )
    return catalog, engine


def count(engine, **kwargs):
    __, rows = engine.execute_select(
        parse_statement("SELECT COUNT(*) FROM t"), **kwargs
    )
    return rows[0][0]


class TestEpochs:
    def test_each_write_batch_bumps_epoch(self, setup):
        __, engine = setup
        before = engine.current_epoch
        engine.bulk_insert("T", [(1000, "EU", 0.0)])
        assert engine.current_epoch == before + 1

    def test_old_snapshot_is_stable(self, setup):
        __, engine = setup
        epoch = engine.current_epoch
        engine.bulk_insert("T", [(1000, "EU", 0.0)])
        assert count(engine, snapshot_epoch=epoch) == 100
        assert count(engine) == 101

    def test_delete_respects_snapshots(self, setup):
        __, engine = setup
        epoch = engine.current_epoch
        engine.delete_where(parse_statement("DELETE FROM t WHERE id < 50"))
        assert count(engine, snapshot_epoch=epoch) == 100
        assert count(engine) == 50


class TestDml:
    def test_autocommit_insert(self, setup):
        __, engine = setup
        engine.insert_into("T", [(500, "AP", 1.0)])
        assert count(engine) == 101

    def test_delete_where_predicate(self, setup):
        __, engine = setup
        deleted = engine.delete_where(
            parse_statement("DELETE FROM t WHERE region = 'EU'")
        )
        assert deleted == 50
        assert count(engine) == 50

    def test_update_where(self, setup):
        __, engine = setup
        updated = engine.update_where(
            parse_statement("UPDATE t SET v = v * 10 WHERE id < 10")
        )
        assert updated == 10
        __, rows = engine.execute_select(
            parse_statement("SELECT SUM(v) FROM t WHERE id < 10")
        )
        assert rows[0][0] == 450.0

    def test_update_preserves_untouched_columns(self, setup):
        __, engine = setup
        engine.update_where(parse_statement("UPDATE t SET v = 0 WHERE id = 3"))
        __, rows = engine.execute_select(
            parse_statement("SELECT region, v FROM t WHERE id = 3")
        )
        assert rows == [("EU", 0.0)]

    def test_delete_nothing(self, setup):
        __, engine = setup
        assert engine.delete_where(
            parse_statement("DELETE FROM t WHERE id > 9999")
        ) == 0


class TestDeltaVisibility:
    """The paper's Sec. 2 transaction-context requirements."""

    def test_own_uncommitted_insert_visible(self, setup):
        __, engine = setup
        epoch = engine.current_epoch
        delta = DeltaBuffer("T")
        engine.insert_into("T", [(999, "EU", 1.0)], delta=delta)
        own = count(engine, snapshot_epoch=epoch, deltas={"T": delta})
        others = count(engine, snapshot_epoch=epoch)
        assert own == 101
        assert others == 100

    def test_own_uncommitted_delete_visible(self, setup):
        __, engine = setup
        epoch = engine.current_epoch
        delta = DeltaBuffer("T")
        engine.delete_where(
            parse_statement("DELETE FROM t WHERE id < 10"),
            snapshot_epoch=epoch,
            delta=delta,
        )
        assert count(engine, snapshot_epoch=epoch, deltas={"T": delta}) == 90
        assert count(engine, snapshot_epoch=epoch) == 100

    def test_delete_own_uncommitted_insert(self, setup):
        __, engine = setup
        epoch = engine.current_epoch
        delta = DeltaBuffer("T")
        engine.insert_into("T", [(999, "EU", 1.0)], delta=delta)
        deleted = engine.delete_where(
            parse_statement("DELETE FROM t WHERE id = 999"),
            snapshot_epoch=epoch,
            delta=delta,
        )
        assert deleted == 1
        assert count(engine, snapshot_epoch=epoch, deltas={"T": delta}) == 100

    def test_update_own_uncommitted_insert(self, setup):
        __, engine = setup
        epoch = engine.current_epoch
        delta = DeltaBuffer("T")
        engine.insert_into("T", [(999, "EU", 1.0)], delta=delta)
        engine.update_where(
            parse_statement("UPDATE t SET v = 42 WHERE id = 999"),
            snapshot_epoch=epoch,
            delta=delta,
        )
        __, rows = engine.execute_select(
            parse_statement("SELECT v FROM t WHERE id = 999"),
            snapshot_epoch=epoch,
            deltas={"T": delta},
        )
        assert rows == [(42.0,)]

    def test_commit_applies_delta_atomically(self, setup):
        __, engine = setup
        epoch = engine.current_epoch
        delta = DeltaBuffer("T")
        engine.insert_into("T", [(999, "EU", 1.0)], delta=delta)
        engine.delete_where(
            parse_statement("DELETE FROM t WHERE id < 5"),
            snapshot_epoch=epoch,
            delta=delta,
        )
        engine.apply_delta(delta)
        assert count(engine) == 96

    def test_discarding_delta_is_a_rollback(self, setup):
        __, engine = setup
        epoch = engine.current_epoch
        delta = DeltaBuffer("T")
        engine.insert_into("T", [(999, "EU", 1.0)], delta=delta)
        # Simply never applying the buffer = rollback.
        assert count(engine) == 100
        assert engine.current_epoch == epoch

    def test_update_of_base_row_in_delta(self, setup):
        __, engine = setup
        epoch = engine.current_epoch
        delta = DeltaBuffer("T")
        engine.update_where(
            parse_statement("UPDATE t SET v = -1 WHERE id = 7"),
            snapshot_epoch=epoch,
            delta=delta,
        )
        __, rows = engine.execute_select(
            parse_statement("SELECT v FROM t WHERE id = 7"),
            snapshot_epoch=epoch,
            deltas={"T": delta},
        )
        assert rows == [(-1.0,)]
        # Base unchanged for other snapshots until apply.
        __, rows = engine.execute_select(
            parse_statement("SELECT v FROM t WHERE id = 7"),
            snapshot_epoch=epoch,
        )
        assert rows == [(7.0,)]


class TestReplicationApply:
    def test_apply_insert_update_delete(self, setup):
        catalog, engine = setup
        schema = catalog.table("T").schema
        from repro.db2.changelog import ChangeRecord

        records = [
            ChangeRecord(1, 1, "T", "INSERT", after=(200, "AP", 5.0)),
            ChangeRecord(2, 1, "T", "UPDATE",
                         before=(0, "US", 0.0), after=(0, "US", 99.0)),
            ChangeRecord(3, 1, "T", "DELETE", before=(1, "EU", 1.0)),
        ]
        engine.apply_changes("T", records)
        assert count(engine) == 100  # +1 insert, -1 delete
        __, rows = engine.execute_select(
            parse_statement("SELECT v FROM t WHERE id = 0")
        )
        assert rows == [(99.0,)]

    def test_apply_missing_row_raises(self, setup):
        __, engine = setup
        from repro.db2.changelog import ChangeRecord
        from repro.errors import ReplicationError

        record = ChangeRecord(
            1, 1, "T", "DELETE", before=(12345, "XX", 0.0)
        )
        with pytest.raises(ReplicationError):
            engine.apply_changes("T", [record])


class TestInstrumentation:
    def test_zone_map_skips_counted(self, setup):
        __, engine = setup
        engine.execute_select(
            parse_statement("SELECT COUNT(*) FROM t WHERE id BETWEEN 1 AND 3")
        )
        assert engine.chunks_skipped > 0

    def test_zone_maps_disabled_scans_everything(self, setup):
        __, engine = setup
        engine.zone_maps_enabled = False
        before = engine.chunks_skipped
        engine.execute_select(
            parse_statement("SELECT COUNT(*) FROM t WHERE id BETWEEN 1 AND 3")
        )
        assert engine.chunks_skipped == before

    def test_simulated_busy_time_accumulates(self, setup):
        __, engine = setup
        before = engine.simulated_busy_seconds
        engine.execute_select(parse_statement("SELECT COUNT(*) FROM t"))
        assert engine.simulated_busy_seconds > before
