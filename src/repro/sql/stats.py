"""Table/column statistics and the cost model behind the optimizer.

This module is the system of record for what the optimizer *believes*
about the data:

* :class:`TableStatistics` / :class:`ColumnStatistics` — row counts,
  NDVs, min/max, null counts, and equi-width histograms per numeric
  column.  Full statistics come from a ``RUNSTATS``-style scan
  (:meth:`StatisticsManager.collect_from_rows`); cheap partial
  statistics (row count + per-column min/max) are seeded from the
  column store's zone maps the moment a table is accelerated.
* :class:`StatisticsManager` — keeps statistics current: replication
  change records fold in incrementally (row counts, min/max widening,
  histogram bin counts), any other accelerator write marks the table
  dirty so the next read rescales against the live storage row count,
  and DDL invalidates.
* :class:`CostModel` — converts per-operator cardinality estimates into
  abstract execution costs for both engines, which drives the
  DB2-vs-accelerator routing decision and the WLM admission weight.

The cardinality *estimator* itself lives in :func:`repro.obs.profile.
estimate_plan`; it consults these statistics (and the cardinality-
feedback store) through duck-typed lookups, so this module has no
dependency on the observability layer.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.sql import ast
from repro.sql import logical
from repro.sql.planning import literal_number, split_conjuncts

__all__ = [
    "ColumnStatistics",
    "CostModel",
    "Histogram",
    "PlanCost",
    "StatisticsManager",
    "TableStatistics",
    "DEFAULT_HISTOGRAM_BINS",
]

#: Bin count for RUNSTATS-built equi-width histograms.
DEFAULT_HISTOGRAM_BINS = 16

#: Selectivity assumed for a conjunct the statistics cannot analyse
#: (mirrors the legacy fixed selectivity so estimates degrade gracefully).
_DEFAULT_SELECTIVITY = 1.0 / 3.0


# ---------------------------------------------------------------------------
# Histograms
# ---------------------------------------------------------------------------


@dataclass
class Histogram:
    """Equi-width histogram over a numeric column.

    ``counts[i]`` holds the rows whose value falls in
    ``[low + i*width, low + (i+1)*width)`` (the last bin is closed on
    both ends). Incremental feed maintenance adds values into the
    nearest bin — out-of-range values clamp to the edge bins, which
    keeps the histogram usable (if increasingly fuzzy) until the next
    RUNSTATS rebuilds it.
    """

    low: float
    high: float
    counts: list[int]

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def width(self) -> float:
        span = self.high - self.low
        return span / len(self.counts) if span > 0 else 0.0

    @classmethod
    def build(
        cls, values: Sequence[float], bins: int = DEFAULT_HISTOGRAM_BINS
    ) -> Optional["Histogram"]:
        if not values:
            return None
        low = float(min(values))
        high = float(max(values))
        counts = [0] * max(1, bins)
        if high <= low:
            counts[0] = len(values)
            return cls(low=low, high=high, counts=counts)
        width = (high - low) / len(counts)
        top = len(counts) - 1
        for value in values:
            index = int((float(value) - low) / width)
            counts[min(max(index, 0), top)] += 1
        return cls(low=low, high=high, counts=counts)

    def add(self, value: float) -> None:
        """Fold one inserted value in (feed maintenance)."""
        if self.width <= 0:
            self.counts[0] += 1
            return
        index = int((float(value) - self.low) / self.width)
        self.counts[min(max(index, 0), len(self.counts) - 1)] += 1

    def scale(self, factor: float) -> None:
        """Rescale bin counts after a bulk row-count change."""
        self.counts = [max(0, int(round(c * factor))) for c in self.counts]

    def fraction_at_most(self, value: float) -> float:
        """Estimated fraction of rows with ``column <= value``."""
        total = self.total
        if total <= 0:
            return 0.0
        if value < self.low:
            return 0.0
        if value >= self.high:
            return 1.0
        if self.width <= 0:
            return 1.0
        position = (value - self.low) / self.width
        index = int(position)
        covered = sum(self.counts[:index])
        # Linear interpolation inside the straddled bin.
        if index < len(self.counts):
            covered += self.counts[index] * (position - index)
        return min(1.0, covered / total)

    def range_fraction(
        self, low: Optional[float], high: Optional[float]
    ) -> float:
        """Estimated fraction of rows with ``low <= column <= high``."""
        upper = self.fraction_at_most(high) if high is not None else 1.0
        lower = self.fraction_at_most(low) if low is not None else 0.0
        return max(0.0, upper - lower)


# ---------------------------------------------------------------------------
# Per-column / per-table statistics
# ---------------------------------------------------------------------------


@dataclass
class ColumnStatistics:
    """Statistics of one column. ``ndv == 0`` means unknown (seeded
    statistics know min/max from zone maps but not distinct counts)."""

    name: str
    ndv: int = 0
    null_count: int = 0
    minimum: object = None
    maximum: object = None
    histogram: Optional[Histogram] = None

    def note_value(self, value: object) -> None:
        """Fold one inserted value in (feed maintenance)."""
        if value is None:
            self.null_count += 1
            return
        try:
            if self.minimum is None or value < self.minimum:
                self.minimum = value
            if self.maximum is None or value > self.maximum:
                self.maximum = value
        except TypeError:  # mixed types after a cast — keep old bounds
            return
        if self.histogram is not None and isinstance(value, (int, float)):
            self.histogram.add(float(value))


@dataclass
class TableStatistics:
    """Statistics of one table, stamped with the catalog generation at
    collection time."""

    table: str
    row_count: int
    columns: dict[str, ColumnStatistics] = field(default_factory=dict)
    #: "runstats" (full scan), "zonemap" (seeded), suffixed "+feed" once
    #: replication records have been folded in.
    source: str = "runstats"
    generation: int = 0
    feed_records: int = 0

    def column(self, name: str) -> Optional[ColumnStatistics]:
        return self.columns.get(name.upper())

    def distinct_count(self, column: str) -> Optional[int]:
        stats = self.column(column)
        if stats is None or stats.ndv <= 0:
            return None
        return min(stats.ndv, max(1, self.row_count))

    # -- predicate selectivity ------------------------------------------------

    def predicate_selectivity(
        self, predicate: ast.Expression, params: Sequence[object] = ()
    ) -> float:
        """Estimated fraction of rows satisfying ``predicate``; ``?``
        markers count as the values ``params`` binds them to.

        Only used for single-table predicates (pushed scan predicates),
        so column refs are resolved by name alone.
        """
        selectivity = 1.0
        for conjunct in split_conjuncts(predicate):
            selectivity *= self._conjunct_selectivity(conjunct, params)
        return min(1.0, max(0.0, selectivity))

    def _conjunct_selectivity(
        self, conjunct: ast.Expression, params: Sequence[object]
    ) -> float:
        if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "OR":
            left = self._conjunct_selectivity(conjunct.left, params)
            right = self._conjunct_selectivity(conjunct.right, params)
            return min(1.0, left + right)
        if isinstance(conjunct, ast.Between) and not conjunct.negated:
            column = self._own_column(conjunct.operand)
            low = literal_number(conjunct.lower, params)
            high = literal_number(conjunct.upper, params)
            if column is not None:
                return self._range_selectivity(column, low, high, True, True)
            return _DEFAULT_SELECTIVITY
        if isinstance(conjunct, ast.IsNull):
            column = self._own_column(conjunct.operand)
            if column is not None and self.row_count > 0:
                fraction = column.null_count / self.row_count
                return 1.0 - fraction if conjunct.negated else fraction
            return _DEFAULT_SELECTIVITY
        if isinstance(conjunct, ast.InList) and not conjunct.negated:
            column = self._own_column(conjunct.operand)
            if column is not None and column.ndv > 0:
                return min(1.0, len(conjunct.items) / column.ndv)
            return _DEFAULT_SELECTIVITY
        if isinstance(conjunct, ast.BinaryOp):
            return self._comparison_selectivity(conjunct, params)
        return _DEFAULT_SELECTIVITY

    def _comparison_selectivity(
        self, conjunct: ast.BinaryOp, params: Sequence[object]
    ) -> float:
        op = conjunct.op
        if op not in ("=", "<>", "<", "<=", ">", ">="):
            return _DEFAULT_SELECTIVITY
        column = self._own_column(conjunct.left)
        value = literal_number(conjunct.right, params)
        if column is None or value is None:
            column = self._own_column(conjunct.right)
            value = literal_number(conjunct.left, params)
            if column is None or value is None:
                return _DEFAULT_SELECTIVITY
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
        if op == "=":
            if column.ndv > 0:
                return min(1.0, 1.0 / column.ndv)
            return self._range_selectivity(column, value, value, True, True)
        if op == "<>":
            if column.ndv > 0:
                return max(0.0, 1.0 - 1.0 / column.ndv)
            return 1.0 - _DEFAULT_SELECTIVITY
        if op in ("<", "<="):
            return self._range_selectivity(column, None, value, True, op == "<=")
        return self._range_selectivity(column, value, None, op == ">=", True)

    def _range_selectivity(
        self,
        column: ColumnStatistics,
        low: Optional[float],
        high: Optional[float],
        low_inclusive: bool,
        high_inclusive: bool,
    ) -> float:
        if column.histogram is not None:
            return column.histogram.range_fraction(low, high)
        minimum, maximum = column.minimum, column.maximum
        if (
            isinstance(minimum, (int, float))
            and isinstance(maximum, (int, float))
        ):
            # Zone-map-only statistics: assume uniform over [min, max].
            if maximum <= minimum:
                inside = (low is None or low <= minimum) and (
                    high is None or high >= maximum
                )
                return 1.0 if inside else 0.0
            span = float(maximum) - float(minimum)
            lo = float(minimum) if low is None else max(float(low), float(minimum))
            hi = float(maximum) if high is None else min(float(high), float(maximum))
            if hi < lo:
                return 0.0
            return min(1.0, (hi - lo) / span)
        return _DEFAULT_SELECTIVITY

    def _own_column(self, expr: ast.Expression) -> Optional[ColumnStatistics]:
        if isinstance(expr, ast.ColumnRef):
            return self.column(expr.name)
        return None


# ---------------------------------------------------------------------------
# The manager: collection, seeding, incremental maintenance
# ---------------------------------------------------------------------------


class StatisticsManager:
    """System-wide statistics registry (one per AcceleratedDatabase).

    ``row_probe(name)`` (optional) returns the live storage row count;
    it backs the dirty-table refresh path: a direct accelerator write
    (bulk load, groom, AOT DML) marks the table dirty via the chained
    write listener, and the next :meth:`table` call rescales row count
    and histogram mass against the probe instead of serving stale
    numbers.
    """

    def __init__(
        self, row_probe: Optional[Callable[[str], Optional[int]]] = None
    ) -> None:
        self._tables: dict[str, TableStatistics] = {}
        self._dirty: set[str] = set()
        self._lock = threading.Lock()
        self.row_probe = row_probe
        # Instrumentation (exposed as the ``stats.*`` metrics source).
        self.tables_collected = 0
        self.tables_seeded = 0
        self.feed_records = 0
        self.refreshes = 0
        self.invalidations = 0

    # -- collection -----------------------------------------------------------

    def collect_from_rows(
        self,
        name: str,
        column_names: Sequence[str],
        rows: Iterable[tuple],
        generation: int = 0,
        bins: int = DEFAULT_HISTOGRAM_BINS,
    ) -> TableStatistics:
        """Full RUNSTATS: one pass over ``rows`` computing row count,
        and per column NDV, null count, min/max, and (numeric columns)
        an equi-width histogram."""
        names = [c.upper() for c in column_names]
        distinct: list[set] = [set() for _ in names]
        nulls = [0] * len(names)
        numeric: list[Optional[list[float]]] = [[] for _ in names]
        minima: list[object] = [None] * len(names)
        maxima: list[object] = [None] * len(names)
        row_count = 0
        for row in rows:
            row_count += 1
            for index, value in enumerate(row):
                if value is None:
                    nulls[index] += 1
                    continue
                distinct[index].add(value)
                if minima[index] is None or value < minima[index]:
                    minima[index] = value
                if maxima[index] is None or value > maxima[index]:
                    maxima[index] = value
                bucket = numeric[index]
                if bucket is not None:
                    if isinstance(value, (int, float)) and not isinstance(
                        value, bool
                    ):
                        bucket.append(float(value))
                    else:
                        numeric[index] = None
        columns = {}
        for index, column in enumerate(names):
            values = numeric[index]
            columns[column] = ColumnStatistics(
                name=column,
                ndv=len(distinct[index]),
                null_count=nulls[index],
                minimum=minima[index],
                maximum=maxima[index],
                histogram=Histogram.build(values, bins) if values else None,
            )
        stats = TableStatistics(
            table=name.upper(),
            row_count=row_count,
            columns=columns,
            source="runstats",
            generation=generation,
        )
        with self._lock:
            self._tables[stats.table] = stats
            self._dirty.discard(stats.table)
            self.tables_collected += 1
        return stats

    def seed_from_column_store(
        self, name: str, storage, generation: int = 0
    ) -> TableStatistics:
        """Cheap partial statistics from what the column store already
        maintains: the live row count plus per-column min/max merged
        across chunk zone maps. NDVs and histograms stay unknown until
        RUNSTATS."""
        columns: dict[str, ColumnStatistics] = {}
        for chunk in storage.iter_chunks():
            for column, zone_map in chunk.zone_maps.items():
                key = column.upper()
                stats = columns.get(key)
                if stats is None:
                    stats = ColumnStatistics(
                        name=key,
                        minimum=zone_map.minimum,
                        maximum=zone_map.maximum,
                    )
                    columns[key] = stats
                else:
                    if zone_map.minimum is not None and (
                        stats.minimum is None
                        or zone_map.minimum < stats.minimum
                    ):
                        stats.minimum = zone_map.minimum
                    if zone_map.maximum is not None and (
                        stats.maximum is None
                        or zone_map.maximum > stats.maximum
                    ):
                        stats.maximum = zone_map.maximum
        stats = TableStatistics(
            table=name.upper(),
            row_count=storage.row_count,
            columns=columns,
            source="zonemap",
            generation=generation,
        )
        with self._lock:
            self._tables[stats.table] = stats
            self._dirty.discard(stats.table)
            self.tables_seeded += 1
        return stats

    # -- incremental maintenance ----------------------------------------------

    def apply_changes(self, name: str, records: Sequence) -> None:
        """Fold one replication batch in: row-count delta, min/max
        widening, and histogram bin updates from insert/update
        after-images. Deletions only decrement the row count — removing
        mass from the right bin would need the before-image's bin, and
        a small overcount is harmless until the next RUNSTATS."""
        key = name.upper()
        with self._lock:
            stats = self._tables.get(key)
            if stats is None:
                return
            column_names = list(stats.columns)
            for record in records:
                op = getattr(record, "op", None)
                if op == "INSERT":
                    stats.row_count += 1
                elif op == "DELETE":
                    stats.row_count = max(0, stats.row_count - 1)
                after = getattr(record, "after", None)
                if after is not None and op in ("INSERT", "UPDATE"):
                    for column, value in zip(column_names, after):
                        stats.columns[column].note_value(value)
                stats.feed_records += 1
                self.feed_records += 1
            if records and not stats.source.endswith("+feed"):
                stats.source += "+feed"
            self._dirty.discard(key)

    def note_write(self, name: str) -> None:
        """Mark ``name`` dirty: a write that did not flow through
        :meth:`apply_changes` changed the table (bulk load, groom, AOT
        DML). The next :meth:`table` call refreshes against storage."""
        with self._lock:
            if name.upper() in self._tables:
                self._dirty.add(name.upper())

    def invalidate(self, name: Optional[str] = None) -> None:
        """Drop statistics for ``name`` (or everything) — DDL path."""
        with self._lock:
            if name is None:
                count = len(self._tables)
                self._tables.clear()
                self._dirty.clear()
            else:
                count = 1 if self._tables.pop(name.upper(), None) else 0
                self._dirty.discard(name.upper())
            self.invalidations += count

    # -- lookup ---------------------------------------------------------------

    def table(self, name: str) -> Optional[TableStatistics]:
        key = name.upper()
        with self._lock:
            stats = self._tables.get(key)
            if stats is None:
                return None
            if key in self._dirty:
                self._refresh_locked(key, stats)
            return stats

    def _refresh_locked(self, key: str, stats: TableStatistics) -> None:
        probe = self.row_probe
        fresh = probe(key) if probe is not None else None
        if fresh is not None and fresh != stats.row_count:
            if stats.row_count > 0:
                factor = fresh / stats.row_count
                for column in stats.columns.values():
                    if column.histogram is not None:
                        column.histogram.scale(factor)
                    column.null_count = int(round(column.null_count * factor))
                    if column.ndv > 0:
                        column.ndv = max(1, min(column.ndv, fresh))
            stats.row_count = fresh
        self._dirty.discard(key)
        self.refreshes += 1

    def row_count(self, name: str) -> Optional[int]:
        stats = self.table(name)
        return stats.row_count if stats is not None else None

    def tables(self) -> list[TableStatistics]:
        with self._lock:
            keys = list(self._tables)
        return [s for s in (self.table(k) for k in keys) if s is not None]

    # -- monitoring -----------------------------------------------------------

    def monitor_rows(self) -> list[tuple]:
        """Rows for SYSACCEL.MON_STATISTICS: one table-level row
        (COLUMN_NAME = '') plus one row per column."""
        out: list[tuple] = []
        for stats in sorted(self.tables(), key=lambda s: s.table):
            out.append(
                (
                    stats.table,
                    "",
                    stats.row_count,
                    -1,
                    -1,
                    "",
                    "",
                    0,
                    stats.source,
                    stats.generation,
                    stats.feed_records,
                )
            )
            for name in sorted(stats.columns):
                column = stats.columns[name]
                out.append(
                    (
                        stats.table,
                        column.name,
                        stats.row_count,
                        column.ndv if column.ndv > 0 else -1,
                        column.null_count,
                        "" if column.minimum is None else str(column.minimum),
                        "" if column.maximum is None else str(column.maximum),
                        len(column.histogram.counts)
                        if column.histogram is not None
                        else 0,
                        stats.source,
                        stats.generation,
                        stats.feed_records,
                    )
                )
        return out

    def snapshot(self) -> dict:
        """Metrics-source view (``stats.*`` in the registry)."""
        with self._lock:
            return {
                "tables": len(self._tables),
                "dirty": len(self._dirty),
                "tables_collected": self.tables_collected,
                "tables_seeded": self.tables_seeded,
                "feed_records": self.feed_records,
                "refreshes": self.refreshes,
                "invalidations": self.invalidations,
            }


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanCost:
    """Estimated execution cost of one plan on each engine, in abstract
    units where visiting one row in the DB2 row engine costs 1.0."""

    db2: float
    accelerator: float

    @property
    def engine(self) -> str:
        return "ACCELERATOR" if self.accelerator < self.db2 else "DB2"

    def describe(self) -> str:
        return (
            f"cost accelerator={self.accelerator:.0f} vs db2={self.db2:.0f}"
        )


class CostModel:
    """Abstract cost model shared by routing and WLM weighting.

    The constants encode the simulated hardware profile: the row engine
    pays ~1 unit per row visited (joins/aggregates/sorts cost more per
    row), the vector engine is ~25x cheaper per row but pays a fixed
    statement startup (interconnect round trip) plus ~1 unit per result
    row shipped back to DB2.
    """

    #: DB2 row engine: cost per row scanned / filtered / joined / grouped.
    db2_row_cost = 1.0
    db2_filter_row_cost = 0.2
    db2_join_row_cost = 1.0
    db2_aggregate_row_cost = 2.0
    db2_distinct_row_cost = 2.0
    db2_sort_row_factor = 0.5  # multiplied by log2(n)
    #: Accelerator: vectorised per-row costs plus fixed statement startup.
    accel_row_cost = 0.04
    accel_join_row_cost = 0.05
    accel_aggregate_row_cost = 0.08
    accel_sort_row_factor = 0.03
    accel_startup_cost = 16.0
    #: Shipping one result row back over the interconnect.
    transfer_row_cost = 1.0

    def plan_costs(
        self,
        plan: logical.PlanNode,
        estimates: dict[int, int],
        base_rows: Optional[Callable[[str], Optional[int]]] = None,
    ) -> PlanCost:
        """Walk ``plan`` accumulating per-engine costs from the node
        cardinality ``estimates`` (``id(node)`` keyed, as produced by
        ``repro.obs.profile.estimate_plan``)."""

        def est(node: logical.PlanNode) -> int:
            return max(0, estimates.get(id(node), 1))

        def visit(node: logical.PlanNode) -> tuple[float, float]:
            out = est(node)
            if isinstance(node, logical.Scan):
                rows_in = None
                if base_rows is not None:
                    rows_in = base_rows(node.table)
                if rows_in is None:
                    rows_in = out
                rows_in = max(rows_in, out)
                return (
                    rows_in * self.db2_row_cost,
                    rows_in * self.accel_row_cost,
                )
            if isinstance(node, logical.Filter):
                d, a = visit(node.child)
                rows_in = est(node.child)
                return (
                    d + rows_in * self.db2_filter_row_cost,
                    a + rows_in * self.accel_row_cost,
                )
            if isinstance(node, logical.SubqueryBind):
                return visit(node.plan)
            if isinstance(node, logical.Join):
                dl, al = visit(node.left)
                dr, ar = visit(node.right)
                left, right = est(node.left), est(node.right)
                if node.join_type == "CROSS" or node.condition is None:
                    work = left * right
                else:
                    work = left + right
                return (
                    dl + dr + (work + out) * self.db2_join_row_cost,
                    al + ar + (work + out) * self.accel_join_row_cost,
                )
            if isinstance(node, logical.Project):
                if node.child is None:
                    return (0.0, 0.0)
                d, a = visit(node.child)
                rows_in = est(node.child)
                if node.distinct:
                    d += rows_in * self.db2_distinct_row_cost
                    a += rows_in * self.accel_aggregate_row_cost
                return d, a
            if isinstance(node, logical.Aggregate):
                d, a = visit(node.child)
                rows_in = est(node.child)
                return (
                    d + rows_in * self.db2_aggregate_row_cost,
                    a + rows_in * self.accel_aggregate_row_cost,
                )
            if isinstance(node, logical.Sort):
                d, a = visit(node.child)
                rows_in = est(node.child)
                log = math.log2(rows_in + 2)
                return (
                    d + rows_in * log * self.db2_sort_row_factor,
                    a + rows_in * log * self.accel_sort_row_factor,
                )
            if isinstance(node, logical.Limit):
                d, a = visit(node.child)
                if _streaming_subtree(node.child):
                    # The row engine stops pulling once the fetch count
                    # is satisfied; the accelerator scans whole chunks
                    # regardless.
                    child_rows = est(node.child)
                    wanted = (node.offset or 0) + (
                        node.limit if node.limit is not None else child_rows
                    )
                    if child_rows > 0 and wanted < child_rows:
                        d *= wanted / child_rows
                return d, a
            if isinstance(node, logical.SetOp):
                dl, al = visit(node.left)
                dr, ar = visit(node.right)
                rows_in = est(node.left) + est(node.right)
                return (
                    dl + dr + rows_in * self.db2_distinct_row_cost,
                    al + ar + rows_in * self.accel_aggregate_row_cost,
                )
            return (0.0, 0.0)  # pragma: no cover - future node kinds

        db2, accel = visit(plan)
        result_rows = max(0, estimates.get(id(plan), 0))
        accel += self.accel_startup_cost
        accel += result_rows * self.transfer_row_cost
        return PlanCost(db2=db2, accelerator=accel)


def _streaming_subtree(node: logical.PlanNode) -> bool:
    """True when the subtree evaluates row-at-a-time with no blocking
    operator, i.e. a LIMIT above it can stop the row engine early."""
    if isinstance(node, logical.Scan):
        return True
    if isinstance(node, logical.Filter):
        return _streaming_subtree(node.child)
    if isinstance(node, logical.Project):
        return node.child is None or _streaming_subtree(node.child)
    return False
