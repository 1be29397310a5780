"""Per-operator execution profiler (the EXPLAIN ANALYZE machinery).

Phase-level spans (repro.obs.trace) say where a *statement* spent its
time; this module says where a *plan* spent it. Every logical operator
(Scan/Filter/Join/Project/Aggregate/Sort/Limit/SetOp/SubqueryBind) of an
executed statement gets one :class:`OperatorStats` record — rows in/out,
batches, inclusive wall time, zone-map chunks pruned, engine — filled in
by the plan walkers of both executors. Three consumers sit on top:

* ``EXPLAIN ANALYZE`` renders the annotated tree (actual vs. estimated
  cardinality and per-operator Q-error) through the same formatter plain
  ``EXPLAIN`` uses for the unannotated tree;
* :class:`CardinalityFeedback` accumulates (estimate, actual) pairs per
  plan-node fingerprint — the training data for the planned cost-based
  optimizer (ROADMAP item 1), surfaced as ``SYSACCEL.MON_QERROR``;
* :class:`SlowQueryLog` captures the full annotated plan of statements
  over a runtime-configurable latency threshold.

Design constraints (mirroring repro.obs.trace):

* **near-zero cost when disabled** — executors hold ``profile=None`` and
  pay one ``is None`` check per operator;
* **deterministic ids** — profile ids (``P000001``) come from a
  monotonic counter, so identical runs produce identical ids;
* **observation only** — the profiler never changes operator semantics,
  row order, or result bytes (the E14/E17 differential harnesses check
  profiled and unprofiled executions byte-for-byte);
* **finite Q-error** — estimates and actuals are clamped to >= 1 before
  dividing, so zero-row operators export clean JSON (no NaN/inf);
* **bounded retention** — completed profiles, feedback entries, and slow
  queries all live in capacity-bounded structures.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from repro.sql import ast, logical
from repro.sql.planning import split_conjuncts

__all__ = [
    "CardinalityFeedback",
    "FeedbackEntry",
    "OperatorStats",
    "QueryProfiler",
    "SlowQueryLog",
    "SlowQueryRecord",
    "StatementProfile",
    "counted_rows",
    "counted_source",
    "estimate_plan",
    "format_operator",
    "plan_tree_lines",
    "q_error",
    "walk_plan",
]

#: Selectivity assumed for a predicate whose true selectivity is unknown
#: (pushed scan predicates and residual filters). Deliberately crude —
#: the Q-error this produces is exactly what the feedback store measures.
_FILTER_SELECTIVITY = 3
#: Group-count divisor for GROUP BY cardinality guesses.
_GROUP_FANIN = 10


def q_error(estimated: float, actual: float) -> float:
    """Classic Q-error: ``max(est/act, act/est)`` with inputs clamped to
    >= 1 so zero-row operators stay finite (and JSON-safe)."""
    est = max(float(estimated), 1.0)
    act = max(float(actual), 1.0)
    return est / act if est >= act else act / est


# ---------------------------------------------------------------------------
# Plan walking + the shared EXPLAIN / EXPLAIN ANALYZE formatter
# ---------------------------------------------------------------------------


def _node_children(node: logical.PlanNode) -> tuple:
    if isinstance(node, logical.SubqueryBind):
        return (node.plan,)
    if isinstance(node, (logical.Join, logical.SetOp)):
        return (node.left, node.right)
    child = getattr(node, "child", None)
    return (child,) if child is not None else ()


def node_detail(node: logical.PlanNode) -> str:
    """Short operator qualifier shown in brackets after the label."""
    if isinstance(node, logical.Scan):
        detail = node.table
        if node.binding.upper() != node.table.upper():
            detail += f" AS {node.binding}"
        if node.columns is not None:
            detail += f" cols={len(node.columns)}"
        if node.predicate is not None:
            detail += " pushed-predicate"
        return detail
    if isinstance(node, logical.SubqueryBind):
        return node.alias
    if isinstance(node, logical.Join):
        return node.join_type
    if isinstance(node, logical.SetOp):
        return node.op
    if isinstance(node, logical.Project):
        detail = f"cols={len(node.select_items)}"
        return detail + " distinct" if node.distinct else detail
    if isinstance(node, logical.Aggregate):
        detail = f"group_by={len(node.group_by)}"
        if node.having is not None:
            detail += " having"
        return detail
    if isinstance(node, logical.Sort):
        return f"keys={len(node.order_by)}"
    if isinstance(node, logical.Limit):
        parts = []
        if node.offset is not None:
            parts.append(f"offset={node.offset}")
        if node.limit is not None:
            parts.append(f"limit={node.limit}")
        return " ".join(parts)
    return ""


def walk_plan(
    plan: logical.PlanNode,
) -> list[tuple[str, int, logical.PlanNode]]:
    """Preorder walk: ``(path, depth, node)`` with span-style paths
    (root ``"1"``, its second child ``"1.2"``, ...)."""
    out: list[tuple[str, int, logical.PlanNode]] = []

    def visit(node: logical.PlanNode, path: str, depth: int) -> None:
        out.append((path, depth, node))
        for i, child in enumerate(_node_children(node)):
            visit(child, f"{path}.{i + 1}", depth + 1)

    visit(plan, "1", 0)
    return out


def format_operator(label: str, detail: str, depth: int) -> str:
    """THE formatter: one plan-tree line, shared by ``EXPLAIN`` (bare
    tree) and ``EXPLAIN ANALYZE`` (OPERATOR column of the annotated
    grid)."""
    rendered = f"{'  ' * depth}{label}"
    return f"{rendered} [{detail}]" if detail else rendered


def plan_tree_lines(plan: logical.PlanNode) -> list[str]:
    """Indented logical-plan rendering (one line per operator)."""
    return [
        format_operator(type(node).__name__, node_detail(node), depth)
        for __, depth, node in walk_plan(plan)
    ]


# ---------------------------------------------------------------------------
# Cardinality estimation (per plan node)
# ---------------------------------------------------------------------------


def _scaled_rows(rows: int, selectivity: float) -> int:
    """Apply a fractional selectivity: empty inputs stay 0, and a
    nonzero input with nonzero selectivity never rounds below 1."""
    if rows <= 0:
        return 0
    if selectivity <= 0.0:
        return 0
    return max(1, int(round(rows * selectivity)))


def _column_binding_stats(
    expr: "ast.Expression", binding_stats: dict[str, object]
):
    """Resolve a column ref to its table's statistics via the plan's
    binding map; unqualified refs resolve only when exactly one scanned
    table exposes the column."""
    if not isinstance(expr, ast.ColumnRef):
        return None
    if expr.table is not None:
        stats = binding_stats.get(expr.table.upper())
        return stats if stats is not None else None
    matches = [
        stats
        for stats in binding_stats.values()
        if stats.column(expr.name) is not None
    ]
    return matches[0] if len(matches) == 1 else None


def estimate_plan(
    plan: logical.PlanNode,
    table_rows: Callable[[str], int],
    stats=None,
    feedback: Optional[Callable[[str], Optional[int]]] = None,
    params: Sequence[object] = (),
) -> dict[int, int]:
    """Estimated output rows per node, keyed by ``id(node)``.

    Without ``stats``, the legacy model applies: base-table counts plus
    fixed selectivities — the estimator whose error the feedback store
    quantifies, and the E17/E18 comparison baseline.

    ``stats`` (a duck-typed :class:`repro.sql.stats.StatisticsManager`)
    upgrades the model: scan predicates use per-column histograms and
    NDVs, equi-joins use ``|L|*|R| / max(ndv)``, and GROUP BY uses the
    product of group-column NDVs. ``feedback`` (path -> last observed
    actual rows, from the PR-7 cardinality-feedback store) overrides the
    model wherever an earlier execution of the same plan fingerprint
    recorded ground truth; corrections propagate upward through the
    plan. Empty inputs always estimate 0 — never the old ``max(1, ...)``
    floor, which charged every empty-table scan a phantom row. With
    ``stats``, predicates read ``?`` markers as the values ``params``
    binds them to (the legacy model never reads a constant).
    """
    estimates: dict[int, int] = {}
    binding_stats: dict[str, object] = {}
    if stats is not None:

        def map_bindings(node: logical.PlanNode) -> None:
            if isinstance(node, logical.Scan):
                table_stats = stats.table(node.table)
                if table_stats is not None:
                    binding_stats[node.binding.upper()] = table_stats
            for child in _node_children(node):
                map_bindings(child)

        map_bindings(plan)

    def conjunct_selectivity(conjunct) -> float:
        """Selectivity of one (possibly multi-table) filter conjunct."""
        if not binding_stats:
            return 1.0 / _FILTER_SELECTIVITY
        for expr in (
            getattr(conjunct, "left", None),
            getattr(conjunct, "operand", None),
        ):
            owner = _column_binding_stats(expr, binding_stats)
            if owner is not None:
                return owner.predicate_selectivity(conjunct, params)
        return 1.0 / _FILTER_SELECTIVITY

    def equi_join_selectivity(condition) -> Optional[float]:
        """``1 / max(ndv_left, ndv_right)`` over the equi conjuncts, or
        None when no NDV is known for any key pair."""
        selectivity: Optional[float] = None
        for conjunct in split_conjuncts(condition):
            if not (
                isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="
            ):
                continue
            ndvs = []
            for side in (conjunct.left, conjunct.right):
                owner = _column_binding_stats(side, binding_stats)
                if owner is not None and isinstance(side, ast.ColumnRef):
                    ndv = owner.distinct_count(side.name)
                    if ndv is not None:
                        ndvs.append(ndv)
            if ndvs:
                factor = 1.0 / max(ndvs)
                selectivity = (
                    factor if selectivity is None else selectivity * factor
                )
        return selectivity

    def group_count(node: logical.Aggregate, child_rows: int) -> int:
        if binding_stats:
            product = 1
            known = False
            for expr in node.group_by:
                owner = _column_binding_stats(expr, binding_stats)
                if owner is not None and isinstance(expr, ast.ColumnRef):
                    ndv = owner.distinct_count(expr.name)
                    if ndv is not None:
                        product *= ndv
                        known = True
                        continue
                product *= _GROUP_FANIN
            if known:
                return min(child_rows, max(1, product))
        return min(child_rows, max(1, child_rows // _GROUP_FANIN))

    def visit(node: logical.PlanNode, path: str) -> int:
        if isinstance(node, logical.Scan):
            table_stats = (
                binding_stats.get(node.binding.upper())
                if binding_stats
                else None
            )
            if table_stats is not None:
                rows = max(0, int(table_stats.row_count))
            else:
                rows = max(0, int(table_rows(node.table)))
            if node.predicate is not None:
                if table_stats is not None:
                    rows = _scaled_rows(
                        rows,
                        table_stats.predicate_selectivity(
                            node.predicate, params
                        ),
                    )
                else:
                    rows = max(1, rows // _FILTER_SELECTIVITY) if rows else 0
        elif isinstance(node, logical.Filter):
            child = visit(node.child, f"{path}.1")
            if binding_stats:
                selectivity = 1.0
                for conjunct in split_conjuncts(node.predicate):
                    selectivity *= conjunct_selectivity(conjunct)
                rows = _scaled_rows(child, selectivity)
            else:
                rows = (
                    max(1, child // _FILTER_SELECTIVITY) if child else 0
                )
        elif isinstance(node, logical.SubqueryBind):
            rows = visit(node.plan, f"{path}.1")
        elif isinstance(node, logical.Join):
            left = visit(node.left, f"{path}.1")
            right = visit(node.right, f"{path}.2")
            if node.join_type == "CROSS" or node.condition is None:
                rows = left * right
            else:
                selectivity = (
                    equi_join_selectivity(node.condition)
                    if binding_stats
                    else None
                )
                if selectivity is not None:
                    rows = _scaled_rows(left * right, selectivity)
                else:
                    # Equi-ish join guess: the larger input survives.
                    rows = max(left, right)
                # Outer joins keep at least their preserved side.
                if node.join_type == "LEFT":
                    rows = max(rows, left)
                elif node.join_type == "RIGHT":
                    rows = max(rows, right)
        elif isinstance(node, logical.Project):
            rows = visit(node.child, f"{path}.1") if node.child is not None else 1
        elif isinstance(node, logical.Aggregate):
            child = visit(node.child, f"{path}.1")
            if not node.group_by:
                rows = 1
            elif child == 0:
                rows = 0
            else:
                rows = group_count(node, child)
        elif isinstance(node, logical.Sort):
            rows = visit(node.child, f"{path}.1")
        elif isinstance(node, logical.Limit):
            rows = visit(node.child, f"{path}.1")
            if node.offset is not None:
                rows = max(0, rows - node.offset)
            if node.limit is not None:
                rows = min(rows, node.limit)
        elif isinstance(node, logical.SetOp):
            left = visit(node.left, f"{path}.1")
            right = visit(node.right, f"{path}.2")
            if node.op == "INTERSECT":
                rows = min(left, right)
            elif node.op == "EXCEPT":
                rows = left
            else:  # UNION / UNION ALL
                rows = left + right
        else:  # pragma: no cover - future node kinds
            rows = 1
        if feedback is not None:
            observed = feedback(path)
            if observed is not None:
                rows = max(0, int(observed))
        estimates[id(node)] = rows
        return rows

    visit(plan, "1")
    return estimates


# ---------------------------------------------------------------------------
# Runtime records
# ---------------------------------------------------------------------------


@dataclass
class OperatorStats:
    """Runtime statistics of one plan operator in one execution."""

    path: str
    depth: int
    operator: str
    detail: str
    engine: str
    estimated_rows: int = 0
    #: Rows produced (post-predicate for scans).
    actual_rows: int = 0
    #: Rows consumed (scans: rows read before filtering).
    rows_in: int = 0
    #: Executions/batches: how many times the operator was observed.
    batches: int = 0
    #: Inclusive wall time (the operator plus the subtree it drains).
    wall_seconds: float = 0.0
    #: Zone-map chunks the scan skipped (accelerator scans only).
    chunks_skipped: int = 0
    #: True once the operator actually ran (a pruned/fused node may not).
    executed: bool = False
    #: True when the operator was collapsed into a scan pipeline (its
    #: row count is the pipeline's output, not an independently
    #: observed one).
    fused: bool = False

    @property
    def q_error(self) -> float:
        return q_error(self.estimated_rows, self.actual_rows)

    def observe(
        self,
        rows_out: int,
        wall_seconds: float,
        rows_in: Optional[int] = None,
    ) -> None:
        self.executed = True
        self.batches += 1
        self.actual_rows += rows_out
        if rows_in is not None:
            self.rows_in += rows_in
        self.wall_seconds += wall_seconds

    def describe(self) -> str:
        """Tree line for this operator (the shared formatter)."""
        return format_operator(self.operator, self.detail, self.depth)

    def flags(self) -> str:
        """How the operator ran — EXPLAIN ANALYZE's DETAIL column and
        the rendered profile share this."""
        flags = []
        if self.fused:
            flags.append("fused")
        if not self.executed:
            flags.append("not-executed")
        if self.chunks_skipped:
            flags.append(f"chunks_skipped={self.chunks_skipped}")
        if self.batches > 1:
            flags.append(f"batches={self.batches}")
        if self.rows_in:
            flags.append(f"rows_in={self.rows_in}")
        return " ".join(flags)


def counted_rows(stats: OperatorStats, rows: Iterator[tuple]) -> Iterator[tuple]:
    """Wrap a streaming operator's output, counting rows into ``stats``.

    Used by the row-at-a-time DB2 executor, whose operators are lazy
    generators: counts and the inclusive wall clock are accumulated
    locally and flushed once on exhaustion (or early close), so the
    per-row cost is one integer increment.
    """
    started = time.perf_counter()
    count = 0
    try:
        for row in rows:
            count += 1
            yield row
    finally:
        stats.executed = True
        stats.batches += 1
        stats.actual_rows += count
        stats.wall_seconds += time.perf_counter() - started


def counted_source(
    stats: OperatorStats, rows: Iterator[tuple]
) -> Iterator[tuple]:
    """Count a scan's *input* side (rows read before its predicate)."""
    count = 0
    try:
        for row in rows:
            count += 1
            yield row
    finally:
        stats.rows_in += count


class StatementProfile:
    """All operator stats of one statement execution on one engine."""

    __slots__ = (
        "profile_id",
        "fingerprint",
        "generation",
        "engine",
        "elapsed_seconds",
        "failback",
        "error",
        "operators",
        "_by_node",
        "_plan",
    )

    def __init__(
        self,
        profile_id: str,
        fingerprint: str,
        generation: int,
        engine: str,
    ) -> None:
        self.profile_id = profile_id
        self.fingerprint = fingerprint
        self.generation = generation
        self.engine = engine
        self.elapsed_seconds = 0.0
        #: True when this execution was the transparent DB2 re-run after
        #: a mid-statement accelerator failure.
        self.failback = False
        #: Set when the execution raised (the profile is retained for
        #: EXPLAIN ANALYZE / the slow log, but never feeds the
        #: cardinality store — partial actuals would poison it).
        self.error: Optional[str] = None
        self.operators: list[OperatorStats] = []
        self._by_node: dict[int, OperatorStats] = {}
        self._plan: Optional[logical.PlanNode] = None

    def attach_plan(
        self,
        plan: logical.PlanNode,
        table_rows: Callable[[str], int],
        estimates: Optional[dict[int, int]] = None,
    ) -> None:
        """Index the plan: one stats record per node, with estimates.

        ``estimates`` (``id(node)`` keyed) reuses cardinalities already
        computed for routing/costing; otherwise the legacy model runs.

        Pins ``plan`` for the profile's lifetime — the ``id()``-keyed
        node index is only sound while the nodes cannot be collected.
        """
        if estimates is None:
            estimates = estimate_plan(plan, table_rows)
        for path, depth, node in walk_plan(plan):
            stats = OperatorStats(
                path=path,
                depth=depth,
                operator=type(node).__name__,
                detail=node_detail(node),
                engine=self.engine,
                estimated_rows=estimates[id(node)],
            )
            self.operators.append(stats)
            self._by_node[id(node)] = stats
        self._plan = plan

    def stats_for(self, node: logical.PlanNode) -> Optional[OperatorStats]:
        return self._by_node.get(id(node))

    def mark_fused_filters(
        self, node: logical.PlanNode, rows_out: int
    ) -> None:
        """Credit a Filter chain that an executor collapsed into a scan
        pipeline: each fused filter reports the pipeline's output as its
        own."""
        while isinstance(node, logical.Filter):
            stats = self._by_node.get(id(node))
            if stats is not None and not stats.executed:
                stats.executed = True
                stats.fused = True
                stats.batches += 1
                stats.actual_rows += rows_out
            node = node.child

    def render(self) -> list[str]:
        """Human-readable annotated plan: a header line identifying the
        execution, then one line per operator."""
        header = (
            f"{self.profile_id} engine={self.engine} "
            f"{self.elapsed_seconds * 1000:.3f}ms"
        )
        if self.failback:
            header += " (failback re-execution)"
        if self.error is not None:
            header += f" error={self.error}"
        lines = [header]
        for op in self.operators:
            lines.append(
                f"{op.describe()} rows={op.actual_rows} "
                f"(est={op.estimated_rows} q={op.q_error:.2f}) "
                f"{op.wall_seconds * 1000:.3f}ms {op.flags()}".rstrip()
            )
        return lines


# ---------------------------------------------------------------------------
# Cardinality-feedback store
# ---------------------------------------------------------------------------


@dataclass
class FeedbackEntry:
    """Accumulated estimate/actual pairs of one plan-node fingerprint."""

    fingerprint: str
    generation: int
    path: str
    operator: str
    detail: str
    engine: str
    executions: int = 0
    estimated_total: int = 0
    actual_total: int = 0
    last_estimated: int = 0
    last_actual: int = 0
    q_error_sum: float = 0.0
    q_error_max: float = 1.0

    @property
    def mean_q_error(self) -> float:
        return self.q_error_sum / self.executions if self.executions else 1.0


class CardinalityFeedback:
    """Bounded (estimate, actual) accumulator keyed by plan-node
    fingerprint: (normalised statement text with its literals, catalog
    generation, node path). LRU evicted at ``capacity`` entries."""

    def __init__(self, capacity: int = 2048) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, FeedbackEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self.observations = 0

    def record_profile(self, profile: StatementProfile) -> None:
        with self._lock:
            for stats in profile.operators:
                if not stats.executed:
                    continue
                key = (profile.fingerprint, profile.generation, stats.path)
                entry = self._entries.get(key)
                if entry is None:
                    entry = FeedbackEntry(
                        fingerprint=profile.fingerprint,
                        generation=profile.generation,
                        path=stats.path,
                        operator=stats.operator,
                        detail=stats.detail,
                        engine=stats.engine,
                    )
                    self._entries[key] = entry
                entry.executions += 1
                entry.estimated_total += stats.estimated_rows
                entry.actual_total += stats.actual_rows
                entry.last_estimated = stats.estimated_rows
                entry.last_actual = stats.actual_rows
                error = stats.q_error
                entry.q_error_sum += error
                if error > entry.q_error_max:
                    entry.q_error_max = error
                entry.engine = stats.engine
                self._entries.move_to_end(key)
                self.observations += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def lookup(
        self, fingerprint: str, generation: int, path: str
    ) -> Optional[int]:
        """Last observed actual row count for one plan-node fingerprint,
        or None. Keys carry the catalog generation, so DDL invalidates
        feedback the same way it invalidates cached plans."""
        with self._lock:
            entry = self._entries.get((fingerprint, generation, path))
            return entry.last_actual if entry is not None else None

    def entries(self) -> list[FeedbackEntry]:
        with self._lock:
            return list(self._entries.values())

    def worst(self, limit: int = 10) -> list[FeedbackEntry]:
        """Entries sorted by mean Q-error, worst first."""
        return sorted(
            self.entries(),
            key=lambda e: (-e.mean_q_error, e.fingerprint, e.path),
        )[:limit]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def snapshot(self) -> dict:
        with self._lock:
            entries = list(self._entries.values())
        worst = max((e.q_error_max for e in entries), default=1.0)
        mean = (
            sum(e.mean_q_error for e in entries) / len(entries)
            if entries
            else 1.0
        )
        return {
            "entries": len(entries),
            "observations": self.observations,
            "mean_q_error": round(mean, 6),
            "max_q_error": round(worst, 6),
        }


# ---------------------------------------------------------------------------
# Slow-query log
# ---------------------------------------------------------------------------


@dataclass
class SlowQueryRecord:
    """One over-threshold statement with its full annotated plan."""

    profile: StatementProfile
    elapsed_seconds: float
    threshold_seconds: float
    sequence: int = 0

    @property
    def profile_id(self) -> str:
        return self.profile.profile_id

    @property
    def plan_lines(self) -> list[str]:
        """The full annotated plan of the offending statement."""
        return self.profile.render()


class SlowQueryLog:
    """Ring of statements slower than a runtime-configurable threshold.

    ``SYSPROC.ACCEL_CONTROL_ACCELERATOR('action=slow_log; ...')`` adjusts
    ``threshold_seconds`` and ``capacity`` live; capacity changes rebuild
    the ring (a deque's maxlen is fixed at construction), keeping the
    newest records.
    """

    def __init__(
        self, threshold_seconds: float = 1.0, capacity: int = 64
    ) -> None:
        self.threshold_seconds = float(threshold_seconds)
        self.capacity = int(capacity)
        self._records: deque[SlowQueryRecord] = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self.statements_logged = 0

    def observe(
        self, profile: StatementProfile, elapsed_seconds: float
    ) -> None:
        if elapsed_seconds < self.threshold_seconds:
            return
        with self._lock:
            self._seq += 1
            self._records.append(
                SlowQueryRecord(
                    profile=profile,
                    elapsed_seconds=elapsed_seconds,
                    threshold_seconds=self.threshold_seconds,
                    sequence=self._seq,
                )
            )
            self.statements_logged += 1

    def set_threshold(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("slow-query threshold must be >= 0 seconds")
        self.threshold_seconds = float(seconds)

    def set_capacity(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("slow-query log capacity must be >= 1")
        with self._lock:
            self.capacity = int(capacity)
            self._records = deque(self._records, maxlen=self.capacity)

    def records(self) -> list[SlowQueryRecord]:
        with self._lock:
            return list(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def snapshot(self) -> dict:
        return {
            "threshold_seconds": self.threshold_seconds,
            "capacity": self.capacity,
            "retained": len(self._records),
            "logged": self.statements_logged,
        }


# ---------------------------------------------------------------------------
# The system-owned profiler
# ---------------------------------------------------------------------------


class QueryProfiler:
    """Owns enablement, the recent-profile ring, the feedback store, and
    the slow-query log (one instance per :class:`AcceleratedDatabase`).

    ``enabled=False`` keeps the whole machinery dormant at one branch per
    statement; ``EXPLAIN ANALYZE`` still works by forcing a profile for
    its own statement.
    """

    def __init__(
        self,
        enabled: bool = True,
        retention: int = 128,
        feedback_capacity: int = 2048,
        slow_threshold_seconds: float = 1.0,
        slow_capacity: int = 64,
    ) -> None:
        self.enabled = enabled
        self.retention = retention
        self.feedback = CardinalityFeedback(capacity=feedback_capacity)
        self.slow_log = SlowQueryLog(
            threshold_seconds=slow_threshold_seconds, capacity=slow_capacity
        )
        self._profiles: deque[StatementProfile] = deque(maxlen=retention)
        self._lock = threading.Lock()
        self._seq = 0
        self.statements_profiled = 0

    def begin(
        self,
        plan: logical.PlanNode,
        table_rows: Callable[[str], int],
        engine: str,
        fingerprint: Optional[str] = None,
        generation: int = 0,
        estimates: Optional[dict[int, int]] = None,
    ) -> StatementProfile:
        """Start (and index) a profile for one execution of ``plan``.

        ``estimates`` reuses the cardinalities the system already
        computed for routing (statistics- and feedback-driven when
        available) so the profile's Q-error grades the estimator that
        actually made the decisions.
        """
        with self._lock:
            self._seq += 1
            profile_id = f"P{self._seq:06d}"
        profile = StatementProfile(
            profile_id=profile_id,
            fingerprint=fingerprint or logical.plan_shape(plan),
            generation=generation,
            engine=engine,
        )
        profile.attach_plan(plan, table_rows, estimates=estimates)
        return profile

    def begin_manual(
        self,
        fingerprint: str,
        engine: str,
        generation: int = 0,
    ) -> StatementProfile:
        """Start a profile with no logical plan attached.

        Used by work that is not a SQL statement but still wants
        per-operator rows in the profile ring — e.g. the unified
        analytics trainer records one ``TrainEpoch`` operator per epoch.
        The caller appends :class:`OperatorStats` to
        ``profile.operators`` directly and then calls :meth:`finish`.
        """
        with self._lock:
            self._seq += 1
            profile_id = f"P{self._seq:06d}"
        return StatementProfile(
            profile_id=profile_id,
            fingerprint=fingerprint,
            generation=generation,
            engine=engine,
        )

    def finish(
        self, profile: StatementProfile, elapsed_seconds: float
    ) -> None:
        """Retain a completed profile; feed the feedback store and the
        slow-query log (errored executions are retained but never feed
        the store)."""
        profile.elapsed_seconds = elapsed_seconds
        with self._lock:
            self._profiles.append(profile)
            self.statements_profiled += 1
        if profile.error is None:
            self.feedback.record_profile(profile)
        self.slow_log.observe(profile, elapsed_seconds)

    # -- retention / lookup --------------------------------------------------

    def profiles(self) -> list[StatementProfile]:
        """Retained profiles, oldest first."""
        with self._lock:
            return list(self._profiles)

    def last(self) -> Optional[StatementProfile]:
        with self._lock:
            return self._profiles[-1] if self._profiles else None

    def find(self, profile_id: str) -> Optional[StatementProfile]:
        with self._lock:
            for profile in self._profiles:
                if profile.profile_id == profile_id:
                    return profile
        return None

    def set_retention(self, retention: int) -> None:
        if retention < 1:
            raise ValueError("profile retention must be >= 1")
        with self._lock:
            self.retention = int(retention)
            self._profiles = deque(self._profiles, maxlen=self.retention)

    def clear(self) -> None:
        with self._lock:
            self._profiles.clear()

    def snapshot(self) -> dict:
        """Metrics-source view (``profiler.*`` in the registry)."""
        out = {
            "enabled": int(self.enabled),
            "statements_profiled": self.statements_profiled,
            "retained": len(self._profiles),
        }
        for key, value in self.feedback.snapshot().items():
            out[f"feedback_{key}"] = value
        for key, value in self.slow_log.snapshot().items():
            out[f"slow_log_{key}"] = value
        return out
