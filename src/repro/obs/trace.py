"""Hierarchical tracing for the federated accelerator.

Every ``Connection.execute`` call produces one *trace*: a tree of
:class:`TraceSpan` records covering the statement's phases — parse,
route, interconnect transfers, accelerator/DB2 execution, commit-time
replication drain — each annotated with the quantities the paper's
argument rests on (bytes moved, rows produced, routing reasons,
failback and fault-injection outcomes).

Design constraints:

* **deterministic ids** — trace ids (``T000001``) and span ids
  (``T000001.3``) are allocated from monotonic counters, never from
  clocks or RNGs, so two identical runs yield identical id sequences
  and tests can assert on them;
* **bounded retention** — completed traces land in a ring buffer
  (``deque(maxlen=...)``); monitoring never grows without bound;
* **near-zero cost when disabled** — :meth:`Tracer.span` returns a
  shared no-op handle without allocating anything, so instrumented hot
  paths pay only one attribute check and one method call;
* **thread safety** — the active-span stack is thread-local (concurrent
  sessions each build their own trace); only id allocation and the
  retention ring are shared, guarded by a lock.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["NULL_SPAN", "Trace", "TraceSpan", "Tracer"]


@dataclass
class TraceSpan:
    """One timed phase inside a trace tree."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    #: Nesting depth (the root span is 0).
    depth: int
    #: Start time relative to the trace's root span, in seconds.
    start_offset_seconds: float
    elapsed_seconds: float = 0.0
    #: ``OK``, or ``ERROR`` when the span body raised.
    status: str = "OK"
    attributes: dict = field(default_factory=dict)


@dataclass
class Trace:
    """A completed span tree (root span first, start order preserved)."""

    trace_id: str
    name: str
    spans: list[TraceSpan] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def root(self) -> TraceSpan:
        return self.spans[0]

    def span_names(self) -> list[str]:
        return [span.name for span in self.spans]

    def find_spans(self, name: str) -> list[TraceSpan]:
        return [span for span in self.spans if span.name == name]

    def render(self) -> list[str]:
        """Human-readable indented tree (one line per span)."""
        lines = []
        for span in self.spans:
            attrs = "; ".join(
                f"{key}={value}"
                for key, value in sorted(span.attributes.items())
            )
            status = "" if span.status == "OK" else f" [{span.status}]"
            lines.append(
                f"{'  ' * span.depth}{span.name} "
                f"{span.elapsed_seconds * 1000:.3f}ms{status}"
                + (f" ({attrs})" if attrs else "")
            )
        return lines


class _NullSpan:
    """Shared no-op span handle returned while tracing is disabled."""

    __slots__ = ()
    trace_id = None
    span = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def annotate(self, **attributes) -> None:
        pass


NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Context manager building one span on the thread's active stack."""

    __slots__ = ("_tracer", "_name", "_attrs", "_started", "span")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self.span: Optional[TraceSpan] = None

    @property
    def trace_id(self) -> Optional[str]:
        return self.span.trace_id if self.span is not None else None

    def annotate(self, **attributes) -> None:
        if self.span is not None:
            self.span.attributes.update(attributes)

    def __enter__(self) -> "_SpanHandle":
        tracer = self._tracer
        local = tracer._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        now = time.perf_counter()
        if not stack:
            local.trace = Trace(trace_id=tracer._next_trace_id(), name=self._name)
            local.trace_started = now
            local.span_seq = 0
            parent_id = None
        else:
            parent_id = stack[-1].span.span_id
        trace = local.trace
        local.span_seq += 1
        self.span = TraceSpan(
            trace_id=trace.trace_id,
            span_id=f"{trace.trace_id}.{local.span_seq}",
            parent_id=parent_id,
            name=self._name,
            depth=len(stack),
            start_offset_seconds=now - local.trace_started,
            attributes=self._attrs,
        )
        trace.spans.append(self.span)
        stack.append(self)
        self._started = now
        return self

    def __exit__(self, exc_type, exc, exc_tb) -> bool:
        span = self.span
        span.elapsed_seconds = time.perf_counter() - self._started
        if exc_type is not None:
            span.status = "ERROR"
            span.attributes.setdefault(
                "error", f"{exc_type.__name__}: {exc}"[:200]
            )
        local = self._tracer._local
        stack = local.stack
        # Tolerate a mismatched exit (exception unwound past inner spans).
        while stack and stack[-1] is not self:
            stack.pop()
        if stack:
            stack.pop()
        if not stack:
            trace = local.trace
            trace.elapsed_seconds = span.elapsed_seconds
            local.trace = None
            self._tracer._retain(trace)
        return False


class Tracer:
    """Span factory with deterministic ids and bounded retention."""

    def __init__(self, enabled: bool = True, max_traces: int = 256) -> None:
        self.enabled = enabled
        self.max_traces = max_traces
        self._traces: deque[Trace] = deque(maxlen=max_traces)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._trace_seq = 0

    # -- span construction ---------------------------------------------------

    def span(self, name: str, **attributes):
        """Open a span under the thread's current trace.

        Outside any trace a root span (a new trace) is started; the no-op
        singleton is returned while tracing is disabled.
        """
        if not self.enabled:
            return NULL_SPAN
        return _SpanHandle(self, name, attributes)

    def annotate(self, **attributes) -> None:
        """Attach attributes to the thread's innermost active span."""
        if not self.enabled:
            return
        stack = getattr(self._local, "stack", None)
        if stack:
            stack[-1].span.attributes.update(attributes)

    # -- retention / lookup --------------------------------------------------

    def _next_trace_id(self) -> str:
        with self._lock:
            self._trace_seq += 1
            return f"T{self._trace_seq:06d}"

    def _retain(self, trace: Trace) -> None:
        with self._lock:
            self._traces.append(trace)

    def traces(self) -> list[Trace]:
        """Retained (completed) traces, oldest first."""
        with self._lock:
            return list(self._traces)

    def last(self) -> Optional[Trace]:
        with self._lock:
            return self._traces[-1] if self._traces else None

    def find(self, trace_id: str) -> Optional[Trace]:
        with self._lock:
            for trace in self._traces:
                if trace.trace_id == trace_id:
                    return trace
        return None

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()

    def set_retention(self, max_traces: int) -> None:
        """Resize the retained-trace ring buffer at runtime.

        A ``deque`` cannot change ``maxlen`` in place, so the buffer is
        rebuilt; when shrinking, the oldest traces are discarded.
        """
        if max_traces < 1:
            raise ValueError("trace retention must be >= 1")
        with self._lock:
            self.max_traces = max_traces
            self._traces = deque(self._traces, maxlen=max_traces)
