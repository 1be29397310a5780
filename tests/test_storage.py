"""Row store and column store behaviour (incl. MVCC and zone maps)."""

import numpy as np
import pytest

from repro.accelerator import AcceleratorEngine
from repro.catalog import Catalog, Column, TableSchema
from repro.catalog.schema import columns_from_rows, rows_from_columns
from repro.errors import ReproError
from repro.federation import accelerator_shards
from repro.shard.placement import PartitionSpec
from repro.sql.types import DOUBLE, INTEGER, VarcharType
from repro.storage.column_store import ColumnStoreTable, NEVER_DELETED
from repro.storage.row_store import DEFAULT_PAGE_CAPACITY, RowStoreTable
from repro.storage.zone_maps import ZoneMap


@pytest.fixture
def schema():
    return TableSchema(
        [
            Column("ID", INTEGER, nullable=False),
            Column("V", DOUBLE),
            Column("NAME", VarcharType(16)),
        ]
    )


class TestRowStore:
    def test_insert_and_fetch(self, schema):
        table = RowStoreTable(schema)
        row_id = table.insert((1, 2.0, "a"))
        assert table.fetch(row_id) == (1, 2.0, "a")
        assert table.row_count == 1

    def test_pages_fill_and_overflow(self, schema):
        table = RowStoreTable(schema)
        for i in range(DEFAULT_PAGE_CAPACITY + 1):
            table.insert((i, None, None))
        assert table.page_count == 2

    def test_row_ids_stable_across_deletes(self, schema):
        table = RowStoreTable(schema)
        ids = [table.insert((i, None, None)) for i in range(10)]
        table.delete(ids[3])
        assert table.fetch(ids[4]) == (4, None, None)

    def test_delete_then_fetch_raises(self, schema):
        table = RowStoreTable(schema)
        row_id = table.insert((1, None, None))
        table.delete(row_id)
        with pytest.raises(ReproError):
            table.fetch(row_id)

    def test_double_delete_raises(self, schema):
        table = RowStoreTable(schema)
        row_id = table.insert((1, None, None))
        table.delete(row_id)
        with pytest.raises(ReproError):
            table.delete(row_id)

    def test_update_returns_before_image(self, schema):
        table = RowStoreTable(schema)
        row_id = table.insert((1, 2.0, "a"))
        before = table.update(row_id, (1, 9.0, "b"))
        assert before == (1, 2.0, "a")
        assert table.fetch(row_id) == (1, 9.0, "b")

    def test_undelete_restores(self, schema):
        table = RowStoreTable(schema)
        row_id = table.insert((1, 2.0, "a"))
        before = table.delete(row_id)
        table.undelete(row_id, before)
        assert table.fetch(row_id) == (1, 2.0, "a")
        assert table.row_count == 1

    def test_undelete_occupied_slot_raises(self, schema):
        table = RowStoreTable(schema)
        row_id = table.insert((1, None, None))
        with pytest.raises(ReproError):
            table.undelete(row_id, (1, None, None))

    def test_scan_skips_tombstones(self, schema):
        table = RowStoreTable(schema)
        ids = [table.insert((i, None, None)) for i in range(5)]
        table.delete(ids[0])
        table.delete(ids[4])
        assert [row[0] for _, row in table.scan()] == [1, 2, 3]

    def test_byte_count_tracks_changes(self, schema):
        table = RowStoreTable(schema)
        row_id = table.insert((1, 2.0, "abcd"))
        bytes_full = table.byte_count
        table.delete(row_id)
        assert table.byte_count == 0
        assert bytes_full > 0

    def test_truncate(self, schema):
        table = RowStoreTable(schema)
        for i in range(5):
            table.insert((i, None, None))
        assert table.truncate() == 5
        assert table.row_count == 0
        assert list(table.scan()) == []


class TestColumnStore:
    def make(self, schema, rows=100, **kwargs):
        table = ColumnStoreTable(schema, **kwargs)
        data = [(i, float(i), f"n{i}") for i in range(rows)]
        row_ids = table.append_rows(data, epoch=1)
        return table, row_ids

    def test_append_and_read(self, schema):
        table, __ = self.make(schema, rows=50, chunk_rows=16)
        row_ids, columns = table.read_visible(epoch=1)
        # One chunk sequence: the scan returns the rows as appended.
        assert row_ids.tolist() == list(range(50))
        assert columns["ID"].values.tolist() == list(range(50))

    def test_rows_split_into_chunks(self, schema):
        table, __ = self.make(schema, rows=100, chunk_rows=16)
        assert [len(c) for c in table.iter_chunks()] == [16] * 6 + [4]

    def test_snapshot_isolation_of_deletes(self, schema):
        table, row_ids = self.make(schema, rows=20)
        table.mark_deleted(row_ids[:10], epoch=2)
        old_ids, __ = table.read_visible(epoch=1)
        new_ids, __ = table.read_visible(epoch=2)
        assert len(old_ids) == 20
        assert len(new_ids) == 10

    def test_rows_invisible_before_insert_epoch(self, schema):
        table = ColumnStoreTable(schema)
        table.append_rows([(1, 1.0, "a")], epoch=5)
        assert len(table.read_visible(epoch=4)[0]) == 0
        assert len(table.read_visible(epoch=5)[0]) == 1

    def test_double_delete_counts_once(self, schema):
        table, row_ids = self.make(schema, rows=10)
        assert table.mark_deleted(row_ids[:5], epoch=2) == 5
        assert table.mark_deleted(row_ids[:5], epoch=3) == 0
        assert table.row_count == 5

    def test_hash_distribution_is_deterministic(self, schema):
        spec = PartitionSpec("HASH", ("ID",))
        rows = [(i, float(i), "x") for i in range(64)]
        row_ids = np.arange(64)
        routed = [
            spec.shards_for_columns(
                [columns_from_rows(schema, rows)["ID"]], row_ids, 4
            ).tolist()
            for _ in range(2)
        ]
        assert routed[0] == routed[1]
        assert routed[0] == [spec.shard_for_row(row, 0, [0], 4) for row in rows]

    @staticmethod
    def rows_by_id(table, epoch, ids):
        row_ids, columns = table.read_visible(epoch)
        rows = rows_from_columns([columns[c.name] for c in table.schema.columns])
        by_id = dict(zip(row_ids.tolist(), rows))
        return [by_id[int(row_id)] for row_id in ids]

    def test_rows_round_trip_by_id(self, schema):
        table, row_ids = self.make(schema, rows=10)
        rows = self.rows_by_id(table, 1, row_ids[3:5])
        assert rows == [(3, 3.0, "n3"), (4, 4.0, "n4")]
        assert [type(v) for v in rows[0]] == [int, float, str]

    def test_read_preserves_nulls(self, schema):
        table = ColumnStoreTable(schema)
        ids = table.append_rows([(1, None, None)], epoch=1)
        assert self.rows_by_id(table, 1, ids) == [(1, None, None)]

    def test_mark_deleted_counts_each_live_row_once(self, schema):
        table, row_ids = self.make(schema, rows=10, chunk_rows=4)
        assert table.mark_deleted([3], epoch=2) == 1
        assert table.mark_deleted([3], epoch=3) == 0
        assert table.mark_deleted([5, 5, 6, 99, 3], epoch=4) == 2
        assert table.mark_deleted([], epoch=5) == 0
        assert table.row_count == 7
        assert table.stored_rows == 10
        assert sorted(table.read_visible(epoch=4)[0].tolist()) == [
            0, 1, 2, 4, 7, 8, 9,
        ]
        assert len(table.read_visible(epoch=2)[0]) == 9

    def test_mark_deleted_finds_ids_with_gaps(self, schema):
        # What a GROOM after deletes writes: ascending ids with gaps.
        table = ColumnStoreTable(schema, chunk_rows=4)
        ids = np.array([0, 3, 5, 7, 12, 20], dtype=np.int64)
        table.append_rows(
            [(i, float(i), None) for i in ids.tolist()], epoch=1, row_ids=ids
        )
        assert [c.row_ids.tolist() for c in table.iter_chunks()] == [
            [0, 3, 5, 7], [12, 20],
        ]
        assert table.mark_deleted([0, 12, 4, 7], epoch=2) == 3
        live, columns = table.read_visible(epoch=2)
        assert live.tolist() == [3, 5, 20]
        assert columns["ID"].values.tolist() == [3, 5, 20]
        assert table._next_row_id == 21

    def test_truncate_is_versioned(self, schema):
        table, __ = self.make(schema, rows=10)
        removed = table.truncate(epoch=2)
        assert removed == 10
        assert len(table.read_visible(epoch=1)[0]) == 10
        assert len(table.read_visible(epoch=2)[0]) == 0

    def test_zone_map_pruning_skips_chunks(self, schema):
        table, __ = self.make(schema, rows=256, chunk_rows=32)
        table.read_visible(epoch=1, ranges={"ID": (10, 20)})
        assert table.last_scan_chunks_skipped == 7
        # Correctness: pruned scan still returns a superset of the range.
        row_ids, columns = table.read_visible(epoch=1, ranges={"ID": (10, 20)})
        ids = columns["ID"].values
        assert set(range(10, 21)) <= set(ids.tolist())

    def test_zone_maps_can_be_disabled(self, schema):
        table, __ = self.make(schema, rows=256, chunk_rows=32)
        table.zone_maps_enabled = False
        table.read_visible(epoch=1, ranges={"ID": (10, 20)})
        assert table.last_scan_chunks_skipped == 0

    def test_byte_count_shrinks_after_delete(self, schema):
        table, row_ids = self.make(schema, rows=20)
        before = table.byte_count(1)
        table.mark_deleted(row_ids, epoch=2)
        assert table.byte_count(2) == 0
        assert before > 0

    def test_empty_table_read(self, schema):
        table = ColumnStoreTable(schema)
        row_ids, columns = table.read_visible(epoch=1)
        assert len(row_ids) == 0
        assert set(columns) == {"ID", "V", "NAME"}

    def test_invalid_slice_count(self, schema):
        # Slices are the engine's modeled SPU count; storage has none.
        with pytest.raises(ReproError):
            AcceleratorEngine(Catalog(), accelerator_shards(), slice_count=0)
        with pytest.raises(TypeError):
            ColumnStoreTable(schema, slice_count=1)


class TestZoneMap:
    def test_build_and_overlap(self):
        zone = ZoneMap.build(np.array([5.0, 1.0, 9.0]))
        assert zone.minimum == 1.0 and zone.maximum == 9.0
        assert zone.overlaps(0, 2)
        assert zone.overlaps(9, None)
        assert not zone.overlaps(10, None)
        assert not zone.overlaps(None, 0.5)

    def test_open_bounds(self):
        zone = ZoneMap(1.0, 2.0)
        assert zone.overlaps(None, None)

    def test_all_null_column(self):
        values = np.array([0.0, 0.0])
        mask = np.array([True, True])
        assert ZoneMap.build(values, mask) is None

    def test_nan_only_column(self):
        assert ZoneMap.build(np.array([np.nan, np.nan])) is None

    def test_mask_excluded_from_bounds(self):
        values = np.array([100.0, 1.0])
        mask = np.array([True, False])
        zone = ZoneMap.build(values, mask)
        assert zone.maximum == 1.0
