"""Transparent query routing — which engine runs a statement.

The router reproduces IDAA's offload model with the paper's AOT
extension:

* a query touching any **accelerator-only table** *must* run on the
  accelerator (DB2 only has the nickname); combining an AOT with a
  non-accelerated DB2 table is a routing error because no engine can see
  both — the paper's motivation for loading enrichment data directly into
  the accelerator;
* otherwise offload is controlled by the session's
  ``CURRENT QUERY ACCELERATION`` special register:
  ``NONE`` (never offload), ``ENABLE`` (offload eligible analytical
  queries), ``ENABLE WITH FAILBACK`` (like ENABLE, but offloadable
  queries over accelerated *copies* silently run on DB2 while the
  accelerator is OFFLINE), ``ALL`` (offload everything that can run
  there);
* under ``ENABLE``, OLTP-shaped statements stay on DB2: primary-key point
  lookups and tiny scans are faster on the row store than the
  round-trip + columnar scan would be (experiment E3);
* when a health monitor is attached and reports the accelerator OFFLINE,
  a decision that would offload is re-examined: accelerated-copy queries
  fail back to DB2 under ``ENABLE WITH FAILBACK``; everything else —
  AOT queries (no DB2 copy exists) and plain ``ENABLE``/``ALL`` sessions
  — fails fast with :class:`~repro.errors.AcceleratorUnavailableError`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

from repro.catalog import Catalog, TableLocation
from repro.errors import (
    AcceleratorUnavailableError,
    RoutingError,
    UnknownObjectError,
)
from repro.federation.health import HealthMonitor
from repro.sql import ast
from repro.sql.expressions import Scope
from repro.sql.planning import split_conjuncts, references_only

__all__ = [
    "AccelerationMode",
    "RoutingDecision",
    "QueryRouter",
    "CachedPlan",
    "KernelCache",
    "PlanCache",
    "normalize_sql",
]


class AccelerationMode(Enum):
    """Values of the CURRENT QUERY ACCELERATION special register."""

    NONE = "NONE"
    ENABLE = "ENABLE"
    ENABLE_WITH_FAILBACK = "ENABLE WITH FAILBACK"
    ALL = "ALL"

    @property
    def allows_failback(self) -> bool:
        return self is AccelerationMode.ENABLE_WITH_FAILBACK

    @staticmethod
    def from_name(name: str) -> "AccelerationMode":
        try:
            return AccelerationMode(" ".join(name.upper().split()))
        except ValueError:
            raise UnknownObjectError(
                f"unknown acceleration mode {name}"
            ) from None


@dataclass(frozen=True)
class RoutingDecision:
    engine: str  # 'DB2' or 'ACCELERATOR'
    reason: str


class QueryRouter:
    """Stateless routing policy over the shared catalog."""

    def __init__(
        self,
        catalog: Catalog,
        offload_row_threshold: int = 2000,
        health: Optional[HealthMonitor] = None,
    ) -> None:
        self.catalog = catalog
        #: Minimum estimated scanned rows before a plain scan is offloaded
        #: under ENABLE (analytical queries offload regardless of size).
        self.offload_row_threshold = offload_row_threshold
        #: When set, ACCELERATOR decisions are gated on circuit state.
        self.health = health

    # -- queries ---------------------------------------------------------------

    def route_query(
        self,
        stmt: Union[ast.SelectStatement, ast.SetOperation],
        mode: AccelerationMode,
        estimated_rows: Optional[int] = None,
        cost_advice=None,
    ) -> RoutingDecision:
        """Route a query; ``cost_advice`` is an optional
        :class:`repro.sql.stats.PlanCost` from the cost-based optimizer.
        When present it replaces the ENABLE-mode row-threshold heuristic;
        AOT constraints, mode semantics, point lookups, and health
        failback always take precedence over it.
        """
        decision, has_aot = self._nominal_route(
            stmt, mode, estimated_rows, cost_advice
        )
        if decision.engine != "ACCELERATOR" or self.health is None:
            return decision
        if self.health.allow_request():
            return decision
        return self.failback_decision(mode, has_aot=has_aot)

    def failback_decision(
        self, mode: AccelerationMode, has_aot: bool
    ) -> RoutingDecision:
        """DB2 fallback for an offload decision the accelerator can't take.

        Raises :class:`AcceleratorUnavailableError` unless the session runs
        ``ENABLE WITH FAILBACK`` and every referenced table has a DB2 copy.
        """
        if mode.allows_failback and not has_aot:
            return RoutingDecision("DB2", "failback: accelerator offline")
        if has_aot:
            raise AcceleratorUnavailableError(
                "accelerator is unavailable and the query references an "
                "accelerator-only table (no DB2 copy exists to fail back to)"
            )
        raise AcceleratorUnavailableError(
            "accelerator is unavailable; set CURRENT QUERY ACCELERATION = "
            "ENABLE WITH FAILBACK to let eligible queries run on DB2"
        )

    def _nominal_route(
        self,
        stmt: Union[ast.SelectStatement, ast.SetOperation],
        mode: AccelerationMode,
        estimated_rows: Optional[int] = None,
        cost_advice=None,
    ) -> tuple[RoutingDecision, bool]:
        """Health-blind routing; returns (decision, references-an-AOT)."""
        tables = [name.upper() for name in stmt.referenced_tables()]
        has_aot = False
        has_plain_db2 = False
        all_on_accelerator = bool(tables)
        for name in tables:
            descriptor = self.catalog.table(name)
            if descriptor.location is TableLocation.ACCELERATOR_ONLY:
                has_aot = True
            elif descriptor.location is TableLocation.DB2_ONLY:
                has_plain_db2 = True
                all_on_accelerator = False

        if has_aot:
            if has_plain_db2:
                raise RoutingError(
                    "query combines an accelerator-only table with a "
                    "non-accelerated DB2 table; no engine can see both "
                    "(accelerate the DB2 table or load its data into "
                    "the accelerator)"
                )
            if mode is AccelerationMode.NONE:
                raise RoutingError(
                    "query references an accelerator-only table but "
                    "CURRENT QUERY ACCELERATION is NONE"
                )
            return RoutingDecision("ACCELERATOR", "references an AOT"), True

        if mode is AccelerationMode.NONE or not all_on_accelerator:
            reason = (
                "acceleration disabled"
                if mode is AccelerationMode.NONE
                else "references non-accelerated tables"
            )
            return RoutingDecision("DB2", reason), False

        if mode is AccelerationMode.ALL:
            return RoutingDecision("ACCELERATOR", "acceleration mode ALL"), False

        # ENABLE (with or without FAILBACK): cost-based offload when the
        # optimizer produced advice, heuristic offload otherwise.
        if self._is_point_lookup(stmt):
            return RoutingDecision("DB2", "primary-key point lookup"), False
        if cost_advice is not None:
            return (
                RoutingDecision(cost_advice.engine, cost_advice.describe()),
                False,
            )
        if self._is_analytical(stmt):
            return (
                RoutingDecision("ACCELERATOR", "analytical query shape"),
                False,
            )
        if (
            estimated_rows is not None
            and estimated_rows >= self.offload_row_threshold
        ):
            return RoutingDecision("ACCELERATOR", "large estimated scan"), False
        return RoutingDecision("DB2", "small non-analytical query"), False

    def _is_analytical(
        self, stmt: Union[ast.SelectStatement, ast.SetOperation]
    ) -> bool:
        if isinstance(stmt, ast.SetOperation):
            return True
        if stmt.group_by or stmt.is_aggregate_query or stmt.distinct:
            return True
        return isinstance(stmt.from_item, ast.Join) or isinstance(
            stmt.from_item, ast.SubquerySource
        )

    def _is_point_lookup(
        self, stmt: Union[ast.SelectStatement, ast.SetOperation]
    ) -> bool:
        if not isinstance(stmt, ast.SelectStatement):
            return False
        if not isinstance(stmt.from_item, ast.TableRef) or stmt.where is None:
            return False
        if stmt.group_by or stmt.is_aggregate_query:
            return False
        try:
            descriptor = self.catalog.table(stmt.from_item.name)
        except UnknownObjectError as exc:
            # A name that resolves to nothing (or to a view that should
            # have been expanded before routing) must surface as a clean
            # routing failure, not an internal catalog error mid-route.
            raise RoutingError(
                f"cannot route query: {stmt.from_item.name} is not a "
                f"routable table ({exc})"
            ) from exc
        pk = descriptor.schema.primary_key_columns
        if not pk:
            return False
        binding = stmt.from_item.binding
        scope = Scope([(binding, c.name) for c in descriptor.schema.columns])
        empty = Scope([])
        bound: set[str] = set()
        for conjunct in split_conjuncts(stmt.where):
            if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
                continue
            for column_side, value_side in (
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left),
            ):
                if isinstance(column_side, ast.ColumnRef) and references_only(
                    value_side, empty
                ):
                    try:
                        index = scope.resolve(
                            column_side.name, column_side.table
                        )
                    except Exception:
                        continue
                    bound.add(descriptor.schema.columns[index].name)
                    break
        return all(column in bound for column in pk)

    def is_cheap_statement(
        self, stmt: Union[ast.SelectStatement, ast.SetOperation]
    ) -> bool:
        """WLM bypass hint: should this query skip admission queueing?

        A primary-key point lookup finishes in microseconds on either
        engine; parking it behind queued analytics would invert the
        latency goal, so the admission controller lets it through
        without consuming a slot. (Tiny scans are bypassed separately,
        by the workload manager's row-estimate threshold.)
        """
        try:
            return self._is_point_lookup(stmt)
        except (RoutingError, UnknownObjectError):
            return False

    # -- DML -----------------------------------------------------------------------

    def route_dml(self, table: str) -> RoutingDecision:
        """INSERT/UPDATE/DELETE target placement decides the engine."""
        descriptor = self.catalog.table(table)
        if descriptor.location is TableLocation.ACCELERATOR_ONLY:
            if self.health is not None and not self.health.allow_request():
                # AOT data exists nowhere else — DML cannot fail back.
                raise AcceleratorUnavailableError(
                    f"accelerator is unavailable; cannot modify "
                    f"accelerator-only table {descriptor.name}"
                )
            return RoutingDecision("ACCELERATOR", "target is an AOT")
        return RoutingDecision("DB2", "target is DB2-resident")


# -- statement plan cache ----------------------------------------------------------


def normalize_sql(sql: str) -> str:
    """Whitespace/case-insensitive cache key for a statement's text.

    Collapses whitespace runs and upper-cases characters *outside*
    single-quoted string literals only — ``'a  b'`` and ``'A  B'`` are
    different values and must not collide. A doubled quote inside a
    literal (``'it''s'``) toggles out and straight back in, which
    preserves it verbatim.
    """
    out: list[str] = []
    in_string = False
    pending_space = False
    for ch in sql:
        if in_string:
            out.append(ch)
            if ch == "'":
                in_string = False
            continue
        if ch.isspace():
            pending_space = True
            continue
        if pending_space and out:
            out.append(" ")
        pending_space = False
        out.append(ch.upper())
        if ch == "'":
            in_string = True
    return "".join(out)


class KernelCache:
    """Compiled-predicate cache attached to one cached plan.

    Maps ``(id(expr), scope entries, params)`` to ``(expr, kernel)`` so
    repeated executions of the same statement skip ``compile_vector``.
    Keys use ``id(expr)``, which is only sound because every entry pins
    the expression it was compiled from: a live pin means no other
    object can ever be allocated at that id, so an id-keyed hit is
    guaranteed to be the same expression node. (Callers still verify
    ``entry[0] is expr`` — predicates of ephemeral bound-subquery ASTs
    would otherwise be able to collide with recycled addresses.)
    Subquery-bearing expressions are never cached (their resolvers
    capture one execution's snapshot).
    """

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = capacity
        self._entries: dict = {}
        self.hits = 0
        self.misses = 0

    def get(self, key):
        fn = self._entries.get(key)
        if fn is None:
            self.misses += 1
        else:
            self.hits += 1
        return fn

    def put(self, key, fn) -> None:
        if len(self._entries) >= self.capacity:
            self._entries.clear()
        self._entries[key] = fn


@dataclass
class CachedPlan:
    """A parsed (and, after first execution, prepared) statement.

    ``statement`` is the parse result; the remaining analysis fields are
    filled lazily by the first execution (``prepared`` flips to True) so
    later executions skip view expansion and table classification.
    ``logical`` holds the bound-and-rewritten :mod:`repro.sql.logical`
    plan of the expanded statement — built once, then handed to whichever
    engine the router picks (both executors lower the same plan). Caching
    the plan also pins its expression nodes, which is what makes the
    id-keyed :class:`KernelCache` sound across executions.
    Authorisation is deliberately NOT cached — privilege checks run on
    every execution, which is why GRANT/REVOKE need not invalidate.

    A query that does not come from the text cache (AST input, the
    sub-select of INSERT … SELECT or CTAS, an EXPLAIN target) runs on
    ``CachedPlan(statement)``: the same currency, never stored or looked
    up, and with no ``key`` to look cardinality feedback up under.
    """

    statement: object  # ast.SelectStatement | ast.SetOperation
    generation: int = 0  # catalog generation at store(); unused when unkeyed
    #: The normalised-SQL cache key — doubles (with ``generation``) as
    #: the profiler's plan fingerprint for the cardinality-feedback
    #: store, so feedback survives plan-cache eviction and re-parse.
    key: Optional[str] = None
    kernels: KernelCache = field(default_factory=KernelCache)
    prepared: bool = False
    monitored: frozenset = frozenset()
    expanded: object = None  # statement after view expansion
    logical: object = None  # bound logical plan (repro.sql.logical.PlanNode)
    view_names: tuple = ()
    direct_tables: frozenset = frozenset()
    tables: frozenset = frozenset()
    predicts: tuple = ()  # ast.Predict nodes of the expanded statement
    executions: int = 0


class PlanCache:
    """LRU statement-plan cache keyed by normalised SQL text.

    Entries record the catalog generation they were compiled under;
    a lookup after any DDL (create/drop table or view, placement move)
    sees a stale generation and discards the entry, so plans can never
    resolve names against a catalog that has changed shape.
    """

    def __init__(self, capacity: int = 512) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[str, CachedPlan]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def lookup(self, sql: str, generation: int) -> Optional[CachedPlan]:
        # Misses are counted in store(), not here: lookup() also runs for
        # statements that turn out to be DML/DDL (unknown before parsing),
        # and those must not drag the query hit rate down.
        key = normalize_sql(sql)
        with self._lock:
            plan = self._entries.get(key)
            if plan is None:
                return None
            if plan.generation != generation:
                del self._entries[key]
                self.invalidations += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return plan

    def store(self, sql: str, statement, generation: int) -> CachedPlan:
        key = normalize_sql(sql)
        plan = CachedPlan(statement=statement, generation=generation, key=key)
        with self._lock:
            self.misses += 1
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return plan

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict:
        """Metrics-source view (see MON_PLAN_CACHE / metrics registry)."""
        with self._lock:
            kernel_hits = sum(p.kernels.hits for p in self._entries.values())
            kernel_misses = sum(
                p.kernels.misses for p in self._entries.values()
            )
            return {
                "size": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "hit_rate": round(self.hit_rate, 6),
                "kernel_hits": kernel_hits,
                "kernel_misses": kernel_misses,
            }
