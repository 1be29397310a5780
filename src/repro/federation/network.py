"""Interconnect cost model between DB2 and the accelerator.

The real deployment moves data over a private network between System z
and the appliance; what matters for the paper's experiments is *how many
bytes* cross and the simulated transfer time, not socket mechanics. Every
transfer in the federation is routed through this class so experiments
can snapshot/diff the counters around any operation.

The link is also the federation's first failure domain: when a
:class:`~repro.federation.faults.FaultInjector` is attached, every send
consults it first — an ``error``/``crash`` rule aborts the transfer
(nothing is accounted, mirroring a dropped frame), and a ``latency`` rule
inflates the simulated transfer time of an otherwise successful send.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.federation.faults import FaultInjector
from repro.metrics.counters import MovementStats
from repro.obs.trace import NULL_SPAN, Tracer

__all__ = ["Interconnect", "STATEMENT_OVERHEAD_BYTES"]

#: Fault-injection site name for both link directions.
LINK_SITE = "interconnect"

#: Fixed per-statement protocol overhead on the interconnect (bytes).
STATEMENT_OVERHEAD_BYTES = 256


class Interconnect:
    """Byte/message/latency accounting for the DB2 ↔ accelerator link."""

    def __init__(
        self,
        bandwidth_bytes_per_second: float = 1e9,
        message_latency_seconds: float = 0.0005,
        fault_injector: Optional[FaultInjector] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.bandwidth = bandwidth_bytes_per_second
        self.latency = message_latency_seconds
        self.faults = fault_injector
        #: Every send becomes an ``interconnect.send`` span (direction,
        #: bytes, messages) under the current statement trace.
        self.tracer = tracer
        self.bytes_to_accelerator = 0
        self.bytes_from_accelerator = 0
        self.messages = 0
        self.simulated_seconds = 0.0
        #: Injected latency-seconds and dropped sends observed (lifetime;
        #: not part of ``snapshot()`` because a failed send moved nothing).
        self.injected_latency_seconds = 0.0
        self.sends_failed = 0
        # Parallel scan workers and concurrent sessions account transfers
        # from many threads; the ``+=`` accumulation and snapshot/diff
        # reads need one lock so movement totals stay exact.
        self._lock = threading.Lock()

    def send_to_accelerator(self, nbytes: int, messages: int = 1) -> None:
        """Account for data shipped DB2 → accelerator."""
        with self._trace_send("to_accelerator", nbytes, messages):
            extra = self._check_fault()
            with self._lock:
                self.bytes_to_accelerator += int(nbytes)
                self._account(nbytes, messages, extra)

    def send_to_db2(self, nbytes: int, messages: int = 1) -> None:
        """Account for data shipped accelerator → DB2 (query results,
        legacy stage materialisation)."""
        with self._trace_send("to_db2", nbytes, messages):
            extra = self._check_fault()
            with self._lock:
                self.bytes_from_accelerator += int(nbytes)
                self._account(nbytes, messages, extra)

    def _trace_send(self, direction: str, nbytes: int, messages: int):
        """Span for one transfer; the shared no-op when tracing is off.

        An injected fault raising inside the span marks it ``ERROR``
        with the fault's text — that is the trace-level fault-injection
        annotation the monitoring views expose.
        """
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return NULL_SPAN
        return tracer.span(
            "interconnect.send",
            direction=direction,
            bytes=int(nbytes),
            messages=messages,
        )

    def _check_fault(self) -> float:
        """Consult the injector; a raised fault counts as a failed send."""
        if self.faults is None:
            return 0.0
        try:
            return self.faults.check(LINK_SITE)
        except Exception:
            self.sends_failed += 1
            raise

    def _account(self, nbytes: int, messages: int, extra_latency: float) -> None:
        # Caller holds ``self._lock``.
        self.messages += messages
        self.simulated_seconds += messages * self.latency
        self.simulated_seconds += nbytes / self.bandwidth
        if extra_latency:
            self.simulated_seconds += extra_latency
            self.injected_latency_seconds += extra_latency

    def snapshot(self) -> MovementStats:
        with self._lock:
            return MovementStats(
                bytes_to_accelerator=self.bytes_to_accelerator,
                bytes_from_accelerator=self.bytes_from_accelerator,
                messages=self.messages,
                simulated_seconds=self.simulated_seconds,
            )

    def since(self, snapshot: MovementStats) -> MovementStats:
        return self.snapshot() - snapshot

    def reset(self) -> None:
        with self._lock:
            self.bytes_to_accelerator = 0
            self.bytes_from_accelerator = 0
            self.messages = 0
            self.simulated_seconds = 0.0
            self.injected_latency_seconds = 0.0
            self.sends_failed = 0
