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
  ``NONE`` (never offload), ``ENABLE`` (offload when the cost model
  says the accelerator is cheaper), ``ENABLE WITH FAILBACK`` (like
  ENABLE, but offloadable queries over accelerated *copies* silently run
  on DB2 while the accelerator is OFFLINE), ``ALL`` (offload everything
  that can run there);
* under ``ENABLE``, primary-key point lookups stay on DB2 (the row store
  beats the round-trip + columnar scan, experiment E3); every other
  query follows the optimizer's cost advice, and a query without a
  cardinality estimate stays on DB2;
* when a health monitor is attached and reports the accelerator OFFLINE,
  a decision that would offload is re-examined: accelerated-copy queries
  fail back to DB2 under ``ENABLE WITH FAILBACK``; everything else —
  AOT queries (no DB2 copy exists) and plain ``ENABLE``/``ALL`` sessions
  — fails fast with :class:`~repro.errors.AcceleratorUnavailableError`.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

from repro.catalog import Catalog, TableLocation
from repro.errors import (
    AcceleratorUnavailableError,
    RoutingError,
    SqlError,
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
    "PlanCache",
    "RouteFacts",
    "StatementShape",
    "lift_changes_meaning",
    "scan_statement",
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


@dataclass(frozen=True)
class RouteFacts:
    """:meth:`QueryRouter.classify`'s verdicts on one statement."""

    has_aot: bool  # references an accelerator-only table
    has_plain_db2: bool  # references a table with no accelerator copy
    all_on_accelerator: bool  # every referenced table is visible there
    point_lookup: bool  # primary-key equality on one table


class QueryRouter:
    """Stateless routing policy over the shared catalog."""

    def __init__(
        self, catalog: Catalog, health: Optional[HealthMonitor] = None
    ) -> None:
        self.catalog = catalog
        #: When set, ACCELERATOR decisions are gated on circuit state.
        self.health = health

    # -- queries ---------------------------------------------------------------

    def classify(
        self, stmt: Union[ast.SelectStatement, ast.SetOperation]
    ) -> RouteFacts:
        """The statement-only half of routing: where the referenced
        tables live and whether it is a point lookup. Nothing here depends
        on the session, the accelerator's health or row estimates, so a
        plan computes it once (at bind) and every execution reuses it."""
        has_aot = False
        has_plain_db2 = False
        tables = stmt.referenced_tables()
        all_on_accelerator = bool(tables)
        for name in tables:
            location = self.catalog.table(name.upper()).location
            if location is TableLocation.ACCELERATOR_ONLY:
                has_aot = True
            elif location is TableLocation.DB2_ONLY:
                has_plain_db2 = True
                all_on_accelerator = False
        return RouteFacts(
            has_aot=has_aot,
            has_plain_db2=has_plain_db2,
            all_on_accelerator=all_on_accelerator,
            point_lookup=self._is_point_lookup(stmt),
        )

    def route_query(
        self,
        facts: RouteFacts,
        mode: AccelerationMode,
        cost_advice=None,
    ) -> RoutingDecision:
        """Route a query by its plan's :meth:`classify` verdicts;
        ``cost_advice`` is the :class:`repro.sql.stats.PlanCost` from the
        cost-based optimizer, None when some table has no cardinality
        estimate. It decides ENABLE-mode offload; AOT constraints, mode
        semantics, point lookups, and health failback take precedence.
        """
        decision = self._nominal_route(facts, mode, cost_advice)
        if decision.engine != "ACCELERATOR" or self.health is None:
            return decision
        if self.health.allow_request():
            return decision
        return self.failback_decision(mode, has_aot=facts.has_aot)

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
        facts: RouteFacts,
        mode: AccelerationMode,
        cost_advice=None,
    ) -> RoutingDecision:
        """Health-blind routing."""
        if facts.has_aot:
            if facts.has_plain_db2:
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
            return RoutingDecision("ACCELERATOR", "references an AOT")

        if mode is AccelerationMode.NONE or not facts.all_on_accelerator:
            reason = (
                "acceleration disabled"
                if mode is AccelerationMode.NONE
                else "references non-accelerated tables"
            )
            return RoutingDecision("DB2", reason)

        if mode is AccelerationMode.ALL:
            return RoutingDecision("ACCELERATOR", "acceleration mode ALL")

        # ENABLE (with or without FAILBACK): the cost advice decides.
        if facts.point_lookup:
            return RoutingDecision("DB2", "primary-key point lookup")
        if cost_advice is None:
            return RoutingDecision("DB2", "no cardinality estimate")
        return RoutingDecision(cost_advice.engine, cost_advice.describe())

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

#: One token the shape scanner acts on, found by its lead character:
#: a string literal (``''`` escapes), a quoted identifier, a ``--`` or
#: ``/* */`` comment, a ``?`` marker, or a numeric literal spelled as
#: the lexer reads it. Everything between two tokens is plain SQL text.
_TOKEN = re.compile(
    r"""([\d.'"?/-](?:(?<=')[^']*(?:''[^']*)*'|(?<=")[^"]*"|(?<=-)-[^\n]*"""
    r"""|(?<=/)\*.*?\*/|(?<=\?)|(?<=\d)\d*(?:\.\d+)?(?:[eE][+-]?\d+)?"""
    r"""|(?<=\.)\d+(?:[eE][+-]?\d+)?))""",
    re.S,
)

#: Statements whose literals are lifted out of the cache key.
_SHAPED_VERBS = ("SELECT", "INSERT", "UPDATE", "DELETE")

#: A count after these words is a row count, not a value: it stays in
#: the key (``LIMIT ?`` would not parse).
_ROW_COUNT_WORDS = ("LIMIT", "OFFSET", "FIRST", "NEXT")

_INT64_MAX = 2**63 - 1

#: Whitespace and comments before a statement's first word (``\s`` is
#: the lexer's ``str.isspace``).
_LEAD = re.compile(r"(?:\s+|--[^\n]*|/\*.*?\*/)*", re.S)

#: ``INSERT INTO t [(cols)] VALUES``: a bulk row batch when long.
_VALUES_INSERT = re.compile(
    r"INSERT\s+INTO\s+[\w.]+\s*(?:\([^)]*\)\s*)?VALUES\b", re.I
)

#: An ``INSERT … VALUES`` with more tokens than this is a batch of data,
#: not a statement shape: it is parsed each time and never cached,
#: because a stored plan pins its whole AST (about 130 bytes per value)
#: and batches rarely repeat their row count.
_MAX_TOKENS = 256

#: Stands, in :attr:`StatementShape.values`, for a ``?`` the caller
#: binds.
_CALLER = object()


class StatementShape:
    """One statement text split into its plan-cache key and its values.

    ``key`` is the text with every numeric and string literal replaced by
    a ``?`` marker, whitespace collapsed and everything upper-cased —
    the statement's *shape*. ``values`` holds one entry per marker of
    ``key``, in order: a lifted literal's value (typed as the parser
    types it) or, for a ``?`` already in the text, a slot the caller's
    parameters fill. ``text`` is the key with the literals put back —
    one *binding* of the shape, under which cardinality feedback is
    recorded so one literal's observed rows never estimate another's.
    """

    __slots__ = ("key", "values", "lifted", "_callers", "_tokens", "_text")

    def __init__(
        self,
        key: str,
        values: tuple = (),
        tokens: tuple = (),
        lifted: bool = False,
        callers: bool = False,
    ) -> None:
        self.key = key
        self.values = values
        self.lifted = lifted
        self._callers = callers
        self._tokens = tokens
        self._text = key if not lifted else None

    @property
    def text(self) -> str:
        if self._text is None:
            pieces = self.key.split("?")
            out = [pieces[0]]
            for token, piece in zip(self._tokens, pieces[1:]):
                out.append(token)
                out.append(piece)
            self._text = "".join(out)
        return self._text

    def unlifted(self) -> "StatementShape":
        """The same statement keyed by its text, literals in place."""
        return StatementShape(self.text)

    def params(self, given: Sequence[object]) -> Sequence[object]:
        """One execution's parameter values: the lifted literals, with
        the caller's ``given`` values in the slots of its own markers."""
        if not self.lifted:
            return given
        if not self._callers:
            return self.values
        supplied = iter(given)
        bound = []
        for value in self.values:
            if value is _CALLER:
                value = next(supplied, _CALLER)
                if value is _CALLER:
                    raise SqlError(
                        f"missing value for parameter {len(given) + 1}"
                    )
            bound.append(value)
        return tuple(bound)


def scan_statement(sql: str) -> Optional[StatementShape]:
    """Split ``sql`` into its shape and literal values (one regex pass).

    Only SELECT, set operations, INSERT, UPDATE and DELETE are shaped
    (leading comments are skipped); every other statement, and an
    ``INSERT … VALUES`` batch of ``_MAX_TOKENS`` or more tokens, returns
    None — it is never cached. A text with a quoted identifier is keyed
    verbatim (its case and spacing are significant). Literals that
    cannot become parameters stay in the key: row counts after
    LIMIT/OFFSET/FETCH FIRST, and integers beyond int64
    (``-9223372036854775808`` folds only as a literal). Values are what
    the parser builds: ``int`` unless the number has a ``.`` or an
    exponent, and strings with ``''`` unescaped.
    """
    start = _LEAD.match(sql).end()
    verb = sql[start : start + 6].upper()
    if not (verb[:1] == "(" or verb in _SHAPED_VERBS):
        return None
    batch = verb == "INSERT" and _VALUES_INSERT.match(sql, start) is not None
    parts = _TOKEN.split(sql, _MAX_TOKENS if batch else 0)
    if batch and len(parts) > 2 * _MAX_TOKENS:
        return None
    if len(parts) == 1:
        return StatementShape(" ".join(sql.split()).upper())
    values = []
    tokens = []
    callers = 0
    for i in range(1, len(parts), 2):
        token = parts[i]
        lead = token[0]
        if lead == "'":
            values.append(token[1:-1].replace("''", "'"))
        elif lead == "?":
            values.append(_CALLER)
            callers += 1
        elif lead == "-" or lead == "/":
            parts[i] = " "  # a comment
            continue
        elif lead == '"':
            return StatementShape(sql.strip())
        else:
            before = parts[i - 1]
            last = before[-1:]
            if last.isalnum() or last == "_":
                continue  # a digit inside an identifier such as T1
            if "." in token or "e" in token or "E" in token:
                values.append(float(token))
            else:
                value = int(token)
                # Every row-count word ends in T: most numbers skip the
                # word check.
                if value > _INT64_MAX or (
                    before[-2:-1] in "tT"
                    and before.rstrip()[-6:].upper().endswith(_ROW_COUNT_WORDS)
                ):
                    continue
                values.append(value)
        tokens.append(token)
        parts[i] = " ? "
    key = " ".join("".join(parts).split()).upper()
    return StatementShape(
        key, tuple(values), tuple(tokens), len(tokens) > callers, callers > 0
    )


#: Operators the logical planner folds when both operands are literals.
_FOLDED_OPS = frozenset(("+", "-", "*", "/", "=", "<>", "<", "<=", ">", ">="))


def lift_changes_meaning(stmt) -> bool:
    """Would the parsed shape ``stmt`` mean or plan something else than
    a text with literals at its markers does? It would where a marker is

    * a bare ORDER BY item: the literal was a column position, the
      marker is a constant;
    * in a GROUP BY expression: the engines match select-list, HAVING
      and ORDER BY expressions to the group keys structurally, and one
      literal written twice lifts to two markers with different indexes;
    * an operand of ``+ - * /`` or a comparison whose other operand is
      constant too: the planner folds ``2 + 3`` (or ``1 = 1``) into one
      literal, and zone maps, estimates and so the route read that.

    Every marker counts, the caller's own ``?`` too: a key the cache
    holds a plan under is one every text of the shape may share.
    """

    def is_marker(expr) -> bool:
        return isinstance(expr, ast.Parameter)

    def constant(expr) -> bool:
        if isinstance(expr, ast.UnaryOp):
            return constant(expr.operand)
        if isinstance(expr, ast.BinaryOp):
            return expr.op in _FOLDED_OPS and folds(expr)
        return isinstance(expr, ast.Literal) or is_marker(expr)

    def folds(expr) -> bool:
        return constant(expr.left) and constant(expr.right)

    for block, exprs in ast.query_blocks(stmt):
        for order in getattr(block, "order_by", ()):
            if is_marker(order.expression):
                return True
        for expr in getattr(block, "group_by", ()):
            if any(is_marker(node) for node in expr.walk()):
                return True
        for expr in exprs:
            for node in expr.walk():
                if (
                    isinstance(node, ast.BinaryOp)
                    and node.op in _FOLDED_OPS
                    and folds(node)
                    and any(is_marker(inner) for inner in node.walk())
                ):
                    return True
    return False


@dataclass
class CachedPlan:
    """A parsed (and, after first execution, prepared) statement.

    ``statement`` is the parse result — of the statement's *shape* when
    its literals were lifted, so every binding of the shape shares it.
    The remaining analysis fields are filled lazily by the first
    execution (``prepared`` flips to True) so later executions skip view
    expansion, table classification and routing's statement-only
    verdicts (``route_facts``). ``logical`` holds the bound-and-rewritten
    :mod:`repro.sql.logical` plan of the expanded statement — built
    once, then handed to whichever engine the router picks (both
    executors lower the same plan). Authorisation is
    deliberately NOT cached — privilege checks run on every execution,
    which is why GRANT/REVOKE need not invalidate.

    INSERT, UPDATE and DELETE are cached too (``statement`` is the DML;
    an INSERT … SELECT keeps its sub-select's plan in ``select_plan``).
    A query that does not come from the plan cache (AST input, the
    sub-select of CTAS, an EXPLAIN target) runs on
    ``CachedPlan(statement)``: the same currency, never stored or looked
    up.
    """

    statement: object  # query or DML statement
    generation: int = 0  # catalog generation at store(); unused when unkeyed
    prepared: bool = False
    monitored: frozenset = frozenset()
    expanded: object = None  # statement after view expansion
    logical: object = None  # bound logical plan (repro.sql.logical.PlanNode)
    view_names: tuple = ()
    direct_tables: frozenset = frozenset()
    tables: frozenset = frozenset()
    predicts: tuple = ()  # ast.Predict nodes of the expanded statement
    route_facts: Optional[RouteFacts] = None
    select_plan: Optional["CachedPlan"] = None
    executions: int = 0


#: A refused shape's entry in :class:`PlanCache`.
_REFUSED = object()


class PlanCache:
    """LRU statement-plan cache keyed by statement shape.

    :func:`scan_statement` lifts a statement's literals out of its key,
    so a fresh key, amount or note finds the plan its shape already has;
    the values travel as parameters. A shape whose lift would change its
    meaning (:func:`lift_changes_meaning`, or a shape that does not
    parse) is *refused*: a marker under its key, evicted like a plan,
    remembers it, and its texts are keyed with their literals in place.

    Entries record the catalog generation they were compiled under;
    a lookup after any DDL (create/drop table or view, placement move)
    sees a stale generation and discards the entry, so plans can never
    resolve names against a catalog that has changed shape.
    """

    def __init__(self, capacity: int = 512) -> None:
        self.capacity = capacity
        #: Key → plan, or ``_REFUSED`` for a refused shape.
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def lookup(
        self, sql: str, generation: int, miss: Optional[list] = None
    ) -> Optional[tuple[CachedPlan, StatementShape]]:
        """The cached plan of ``sql``'s shape and the shape, or None.

        On a miss, ``miss`` (when given) receives the shape the text is
        to be stored under — the unlifted one for a refused shape, None
        for a statement that is never cached — so the caller parses it
        without scanning the text again.
        """
        # Misses are counted in store(), not here: lookup() also runs for
        # statements that are never stored (DDL, CALL, SET, …), and those
        # must not drag the hit rate down.
        shape = scan_statement(sql)
        with self._lock:
            plan = None
            if shape is not None:
                plan = self._entries.get(shape.key)
                if plan is _REFUSED:
                    self._entries.move_to_end(shape.key)
                    # A text with the caller's own ``?`` where literals
                    # would mean something else is never cached.
                    shape = shape.unlifted() if shape.lifted else None
                    plan = None if shape is None else self._entries.get(shape.key)
            if plan is not None and plan.generation != generation:
                del self._entries[shape.key]
                self.invalidations += 1
                plan = None
            if plan is None:
                if miss is not None:
                    miss.append(shape)
                return None
            self._entries.move_to_end(shape.key)
            self.hits += 1
            return plan, shape

    def store(self, key: str, statement, generation: int) -> CachedPlan:
        plan = CachedPlan(statement=statement, generation=generation)
        with self._lock:
            self.misses += 1
            self._put(key, plan)
        return plan

    def refuse(self, key: str) -> None:
        """Key shape ``key``'s texts with their literals from now on."""
        with self._lock:
            self._put(key, _REFUSED)

    def _put(self, key, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

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
            return {
                "size": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "hit_rate": round(self.hit_rate, 6),
            }
