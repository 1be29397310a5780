"""Movement stats, interconnect model, and byte estimation."""

import datetime

import pytest
import decimal

from repro.federation.network import Interconnect
from repro.metrics.counters import (
    MovementStats,
    estimate_rows_bytes,
    estimate_value_bytes,
)


class TestMovementStats:
    def test_clamped_floors_negative_fields(self):
        diff = MovementStats(10, 5, 1, 0.1) - MovementStats(40, 2, 3, 0.5)
        clamped = diff.clamped()
        assert clamped.bytes_to_accelerator == 0
        assert clamped.bytes_from_accelerator == 3
        assert clamped.messages == 0
        assert clamped.simulated_seconds == 0.0

    def test_clamped_identity_when_positive(self):
        stats = MovementStats(10, 5, 2, 0.1)
        assert stats.clamped() == stats

    def test_addition_and_subtraction(self):
        a = MovementStats(100, 50, 3, 0.1)
        b = MovementStats(40, 20, 1, 0.04)
        total = a + b
        assert total.bytes_to_accelerator == 140
        assert total.messages == 4
        diff = a - b
        assert diff.bytes_from_accelerator == 30
        assert diff.simulated_seconds == pytest.approx(0.06)

    def test_total_bytes(self):
        assert MovementStats(10, 5).total_bytes == 15

    def test_defaults_zero(self):
        stats = MovementStats()
        assert stats.total_bytes == 0


class TestInterconnect:
    def test_directional_counters(self):
        link = Interconnect()
        link.send_to_accelerator(100)
        link.send_to_db2(30)
        assert link.bytes_to_accelerator == 100
        assert link.bytes_from_accelerator == 30
        assert link.messages == 2

    def test_simulated_time_model(self):
        link = Interconnect(
            bandwidth_bytes_per_second=1000, message_latency_seconds=0.01
        )
        link.send_to_accelerator(500)
        assert link.simulated_seconds == 0.01 + 0.5

    def test_snapshot_and_since(self):
        link = Interconnect()
        link.send_to_accelerator(10)
        snapshot = link.snapshot()
        link.send_to_accelerator(25)
        delta = link.since(snapshot)
        assert delta.bytes_to_accelerator == 25
        assert delta.messages == 1

    def test_reset(self):
        link = Interconnect()
        link.send_to_db2(10)
        link.reset()
        assert link.snapshot().total_bytes == 0


class TestByteEstimation:
    def test_value_sizes(self):
        assert estimate_value_bytes(None) == 1
        assert estimate_value_bytes(True) == 1
        assert estimate_value_bytes(7) == 8
        assert estimate_value_bytes(1.5) == 8
        assert estimate_value_bytes("abc") == 7
        assert estimate_value_bytes("") == 4
        assert estimate_value_bytes(decimal.Decimal("1.5")) == 16
        assert estimate_value_bytes(datetime.date(2016, 1, 1)) == 4
        assert estimate_value_bytes(datetime.datetime(2016, 1, 1)) == 10
        # Unknown types fall back to the 16-byte estimate.
        assert estimate_value_bytes(b"blob") == 16
        assert estimate_value_bytes(object()) == 16

    def test_datetime_checked_before_date(self):
        """datetime is a date subclass; the 10-byte branch must win."""
        value = datetime.datetime(2016, 1, 1, 12, 30)
        assert isinstance(value, datetime.date)
        assert estimate_value_bytes(value) == 10

    def test_bool_checked_before_int(self):
        """bool is an int subclass; the 1-byte branch must win."""
        assert estimate_value_bytes(False) == 1

    def test_rows_bytes(self):
        rows = [(1, "ab"), (None, "c")]
        expected = (1 + 8) + (1 + 6) + (1 + 1) + (1 + 5)
        assert estimate_rows_bytes(rows) == expected

    def test_empty(self):
        assert estimate_rows_bytes([]) == 0


class TestSystemMovement:
    def _system(self):
        from repro.federation.system import AcceleratedDatabase

        db = AcceleratedDatabase()
        conn = db.connect()
        conn.execute("CREATE TABLE T (A INTEGER, B VARCHAR(8))")
        conn.execute("INSERT INTO T VALUES (1, 'x'), (2, 'y')")
        return db, conn

    def test_movement_snapshot_and_since(self):
        db, conn = self._system()
        before = db.movement_snapshot()
        db.add_table_to_accelerator("T")
        delta = db.movement_since(before)
        assert delta.bytes_to_accelerator > 0
        assert delta.bytes_from_accelerator == 0

    def test_movement_since_clamps_across_reset(self):
        """A snapshot taken before ``interconnect.reset()`` must not
        produce negative movement deltas."""
        db, conn = self._system()
        db.add_table_to_accelerator("T")
        snapshot = db.movement_snapshot()
        assert snapshot.total_bytes > 0
        db.interconnect.reset()
        delta = db.movement_since(snapshot)
        assert delta.bytes_to_accelerator == 0
        assert delta.bytes_from_accelerator == 0
        assert delta.messages == 0
        assert delta.simulated_seconds == 0.0


class TestThreadSafety:
    """Concurrent accumulation must be exact (no lost updates).

    ``sys.setswitchinterval`` is lowered so the interpreter preempts
    threads mid-bytecode-sequence often enough to expose unsynchronized
    read-modify-write races deterministically-ish.
    """

    def _hammer(self, fn, threads=8, rounds=2000):
        import sys
        import threading

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            barrier = threading.Barrier(threads)

            def work():
                barrier.wait()
                for _ in range(rounds):
                    fn()

            workers = [threading.Thread(target=work) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            sys.setswitchinterval(old)
        return threads * rounds

    def test_interconnect_concurrent_sends_lose_nothing(self):
        link = Interconnect(
            bandwidth_bytes_per_second=1e9, message_latency_seconds=0.001
        )

        def send():
            link.send_to_accelerator(100)
            link.send_to_db2(50)

        expected = self._hammer(send)
        stats = link.snapshot()
        assert stats.bytes_to_accelerator == expected * 100
        assert stats.bytes_from_accelerator == expected * 50
        assert stats.messages == expected * 2
        assert stats.simulated_seconds == pytest.approx(
            expected * 2 * 0.001 + (expected * 150) / 1e9
        )

    def test_metrics_counter_concurrent_inc_is_exact(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        counter = registry.counter("stress.hits")
        expected = self._hammer(lambda: counter.inc())
        assert counter.value == expected

    def test_histogram_concurrent_observe_and_summary(self):
        """Writers and a summary() reader may interleave freely; totals
        stay exact and percentile reads never crash on a mutating
        window."""
        import threading

        from repro.obs.metrics import Histogram

        histogram = Histogram("stress.latency", window=256)
        stop = threading.Event()
        errors = []

        def read_loop():
            while not stop.is_set():
                try:
                    summary = histogram.summary()
                    assert summary["count"] >= 0
                except Exception as exc:  # pragma: no cover - the bug
                    errors.append(exc)
                    return

        reader = threading.Thread(target=read_loop)
        reader.start()
        try:
            expected = self._hammer(lambda: histogram.observe(1.5))
        finally:
            stop.set()
            reader.join()
        assert not errors
        summary = histogram.summary()
        assert summary["count"] == expected
        assert summary["total"] == pytest.approx(expected * 1.5)
        assert summary["min"] == 1.5
        assert summary["max"] == 1.5

    def test_registry_collect_during_registration(self):
        """collect() must not blow up while other threads get-or-create
        new instruments."""
        import threading

        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        stop = threading.Event()
        errors = []

        def collect_loop():
            while not stop.is_set():
                try:
                    registry.collect()
                except Exception as exc:  # pragma: no cover - the bug
                    errors.append(exc)
                    return

        reader = threading.Thread(target=collect_loop)
        reader.start()
        counter = [0]

        def register():
            counter[0] += 1
            registry.counter(f"c{counter[0]}").inc()
            registry.gauge(f"g{counter[0]}").set(1.0)
            registry.histogram(f"h{counter[0]}").observe(1.0)

        try:
            self._hammer(register, threads=4, rounds=250)
        finally:
            stop.set()
            reader.join()
        assert not errors
        collected = registry.collect()
        assert collected  # every registered instrument is visible
