"""Metrics registry: named counters, gauges, and streaming histograms.

The registry is the single place monitoring reads numbers from. Two
kinds of metrics live here:

* **owned instruments** — counters/gauges/histograms the instrumented
  code updates directly (statement latency, failbacks, batch sizes);
* **sources** — callables that snapshot existing counter structures
  (:class:`~repro.metrics.counters.MovementStats`,
  :class:`~repro.metrics.counters.ReplicationStats`, the health
  monitor) on demand. Sources keep the pre-existing stats dataclasses
  as the system of record instead of replacing them; ``collect()``
  flattens everything into one ``name -> number`` mapping.

Histograms are streaming: they keep exact count/total/min/max plus a
bounded window of recent observations from which p50/p95/p99 are
computed — constant memory no matter how many statements run.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """Monotonic named counter.

    ``inc`` is a read-modify-write, so it takes a per-instrument lock:
    concurrent statements (and the WLM admission path) increment shared
    counters from many threads, and unsynchronized ``+=`` loses updates.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> int:
        with self._lock:
            self.value += amount
            return self.value


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Streaming distribution: exact totals + windowed percentiles."""

    __slots__ = ("name", "count", "total", "min", "max", "_window", "_lock")

    def __init__(self, name: str, window: int = 1024) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._window: deque[float] = deque(maxlen=window)
        # count/total/min/max must move together, and sorting the window
        # while another thread appends raises "deque mutated during
        # iteration" — one lock covers both hazards.
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            self._window.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """q-th percentile (0..100) of the retained window."""
        with self._lock:
            window = sorted(self._window)
        return _percentile(window, q)

    def summary(self) -> dict[str, float]:
        with self._lock:
            count = self.count
            total = self.total
            minimum = self.min
            maximum = self.max
            window = sorted(self._window)
        return {
            "count": count,
            "total": total,
            "mean": total / count if count else 0.0,
            "min": minimum if minimum is not None else 0.0,
            "max": maximum if maximum is not None else 0.0,
            "p50": _percentile(window, 50),
            "p95": _percentile(window, 95),
            "p99": _percentile(window, 99),
        }


def _percentile(window: list[float], q: float) -> float:
    """Linearly interpolated q-th percentile (0..100) of a sorted window."""
    if not window:
        return 0.0
    rank = (len(window) - 1) * (q / 100.0)
    low = int(rank)
    high = min(low + 1, len(window) - 1)
    fraction = rank - low
    return window[low] * (1.0 - fraction) + window[high] * fraction


class MetricsRegistry:
    """Name -> instrument map plus pluggable snapshot sources."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._sources: dict[str, Callable[[], dict]] = {}
        self._lock = threading.Lock()

    # -- instruments (get-or-create) ----------------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(name, Counter(name))
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(name, Gauge(name))
        return instrument

    def histogram(self, name: str, window: int = 1024) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(
                    name, Histogram(name, window=window)
                )
        return instrument

    # -- sources -------------------------------------------------------------

    def register_source(self, name: str, snapshot: Callable[[], dict]) -> None:
        """Register ``snapshot`` to be flattened under ``name.*``.

        The callable returns a (possibly nested one level) mapping of
        numeric values; non-numeric entries are rendered with ``str``.
        """
        self._sources[name] = snapshot

    def source_names(self) -> list[str]:
        return sorted(self._sources)

    # -- collection ----------------------------------------------------------

    def collect(self) -> dict[str, object]:
        """One flat ``name -> value`` mapping across all metrics."""
        out: dict[str, object] = {}
        with self._lock:
            # Freeze the instrument maps so concurrent get-or-create
            # registration cannot mutate a dict mid-iteration.
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        for name, counter in sorted(counters.items()):
            out[name] = counter.value
        for name, gauge in sorted(gauges.items()):
            out[name] = gauge.value
        for name, histogram in sorted(histograms.items()):
            for key, value in histogram.summary().items():
                out[f"{name}.{key}"] = value
        for source_name, snapshot in sorted(self._sources.items()):
            for key, value in snapshot().items():
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    value = str(value)
                out[f"{source_name}.{key}"] = value
        return out
