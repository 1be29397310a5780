"""The DB2 engine: system of record, OLTP path, and CDC source.

Responsibilities:

* row-store DDL/DML with table-level S/X locking (cursor stability) and
  undo-logged rollback;
* primary-key hash indexes with uniqueness enforcement and an index fast
  path for point queries — this is why the router keeps OLTP lookups on
  DB2 (experiment E3);
* change capture: committed modifications of *accelerated* tables are
  buffered per transaction and published to the change log at commit.

The engine never talks to the accelerator; the federation layer routes
statements to it only when the data actually lives here.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.catalog import Catalog, TableDescriptor, TableLocation
from repro.catalog.schema import TableSchema
from repro.db2.changelog import ChangeLog
from repro.db2.executor import (
    RowQueryEngine,
    references_only,
    split_conjuncts,
)
from repro.db2.transaction import LockMode, Transaction, TransactionManager
from repro.errors import (
    ReproError,
    SqlError,
    UnknownObjectError,
)
from repro.sql import ast
from repro.sql.expressions import Scope, compile_scalar
from repro.storage.row_store import RowId, RowStoreTable
from repro.wlm.budget import current_budget

__all__ = ["Db2Engine"]


class _TxnTableProvider:
    """TableProvider that takes statement-scoped S locks before scanning."""

    def __init__(
        self,
        engine: "Db2Engine",
        txn: Transaction,
        overrides: Optional[dict[str, list[tuple]]] = None,
    ) -> None:
        self._engine = engine
        self._txn = txn
        self._overrides = overrides or {}

    def table_schema(self, name: str) -> TableSchema:
        return self._engine.storage_for(name).schema

    def scan_rows(self, name: str) -> Iterator[tuple]:
        key = name.upper()
        if key in self._overrides:
            return iter(self._overrides[key])
        self._engine.lock(self._txn, key, LockMode.SHARED)
        storage = self._engine.storage_for(key)
        return (row for _, row in storage.scan())


class Db2Engine:
    """Row-store engine over the shared catalog."""

    def __init__(self, catalog: Catalog, change_log: Optional[ChangeLog] = None):
        self.catalog = catalog
        self.change_log = change_log or ChangeLog()
        self.txn_manager = TransactionManager()
        self._tables: dict[str, RowStoreTable] = {}
        self._pk_indexes: dict[str, dict[tuple, RowId]] = {}
        # Instrumentation for the experiments.
        self.rows_read = 0
        self.rows_written = 0
        self.statements_executed = 0
        self.index_lookups = 0

    # -- storage / DDL -----------------------------------------------------------

    def create_storage(self, descriptor: TableDescriptor) -> None:
        """Allocate row storage for a DB2-resident table."""
        key = descriptor.name
        if key in self._tables:
            raise ReproError(f"storage for {key} already exists")
        self._tables[key] = RowStoreTable(descriptor.schema)
        if descriptor.schema.primary_key_columns:
            self._pk_indexes[key] = {}

    def drop_storage(self, name: str) -> None:
        self._tables.pop(name.upper(), None)
        self._pk_indexes.pop(name.upper(), None)

    def storage_for(self, name: str) -> RowStoreTable:
        key = name.upper()
        storage = self._tables.get(key)
        if storage is None:
            raise UnknownObjectError(f"table {key} has no DB2 storage")
        return storage

    def has_storage(self, name: str) -> bool:
        return name.upper() in self._tables

    def lock(self, txn: Transaction, table: str, mode: LockMode) -> None:
        txn.require_active()
        self.txn_manager.lock_manager.acquire(txn, table.upper(), mode)

    # -- change capture -------------------------------------------------------------

    def _capture(
        self,
        txn: Transaction,
        descriptor: TableDescriptor,
        op: str,
        before: Optional[tuple],
        after: Optional[tuple],
    ) -> None:
        if descriptor.location is not TableLocation.ACCELERATED:
            return
        txn.pending_changes.append(
            self.change_log.make_record(
                txn.txn_id, descriptor.name, op, before=before, after=after
            )
        )

    def commit(self, txn: Transaction) -> None:
        """Commit the DB2 side and publish captured changes."""
        changes = self.txn_manager.commit(txn)
        if changes:
            self.change_log.publish(changes)

    def rollback(self, txn: Transaction) -> None:
        self.txn_manager.rollback(txn)

    # -- low-level DML (used by executor paths and the loader) ------------------------

    def insert_rows(
        self,
        txn: Transaction,
        table: str,
        rows: Sequence[Sequence[object]],
        already_coerced: bool = False,
        capture: bool = True,
    ) -> int:
        """Insert full-width rows under ``txn`` with undo + capture.

        ``capture=False`` skips change capture — used by the loader's
        dual-load path, which writes the accelerator copy itself instead
        of going through replication.
        """
        descriptor = self.catalog.table(table)
        storage = self.storage_for(table)
        self.lock(txn, descriptor.name, LockMode.EXCLUSIVE)
        index = self._pk_indexes.get(descriptor.name)
        pk_positions = (
            [descriptor.schema.position_of(c) for c in
             descriptor.schema.primary_key_columns]
            if index is not None
            else []
        )
        inserted = 0
        for raw in rows:
            row = tuple(raw) if already_coerced else descriptor.schema.coerce_row(raw)
            if index is not None:
                key = tuple(row[p] for p in pk_positions)
                if key in index:
                    raise SqlError(
                        f"duplicate primary key {key} in {descriptor.name}"
                    )
            row_id = storage.insert(row)
            if index is not None:
                index[key] = row_id
                txn.add_undo(_undo_index_put(index, key))
            txn.add_undo(_undo_insert(storage, row_id))
            if capture:
                self._capture(txn, descriptor, "INSERT", None, row)
            inserted += 1
        self.rows_written += inserted
        self.statements_executed += 1
        return inserted

    def _pk_equality_key(
        self,
        descriptor: TableDescriptor,
        binding: str,
        where: Optional[ast.Expression],
        params: Sequence[object],
    ) -> Optional[tuple]:
        """The full PK key bound by equality conjuncts of ``where``, if any."""
        if where is None:
            return None
        index = self._pk_indexes.get(descriptor.name)
        if index is None:
            return None
        schema = descriptor.schema
        pk_columns = schema.primary_key_columns
        scope = Scope([(binding, c.name) for c in schema.columns])
        empty = Scope([])
        equalities: dict[str, object] = {}
        for conjunct in split_conjuncts(where):
            if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
                continue
            for column_side, value_side in (
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left),
            ):
                if (
                    isinstance(column_side, ast.ColumnRef)
                    and references_only(value_side, empty)
                ):
                    try:
                        position = scope.resolve(
                            column_side.name, column_side.table
                        )
                    except Exception:
                        continue
                    name = schema.columns[position].name
                    value_fn = compile_scalar(value_side, empty, params)
                    equalities[name] = value_fn(())
                    break
        if not all(column in equalities for column in pk_columns):
            return None
        return tuple(
            schema.column(c).coerce(equalities[c]) for c in pk_columns
        )

    def _dml_targets(
        self,
        descriptor: TableDescriptor,
        storage: RowStoreTable,
        where: Optional[ast.Expression],
        predicate,
        params: Sequence[object],
    ) -> list[tuple[RowId, tuple]]:
        """Rows a DML statement touches: PK index fast path or full scan."""
        key = self._pk_equality_key(descriptor, descriptor.name, where, params)
        if key is not None:
            self.index_lookups += 1
            row_id = self._pk_indexes[descriptor.name].get(key)
            if row_id is None:
                return []
            row = storage.fetch(row_id)
            self.rows_read += 1
            if predicate is None or predicate(row) is True:
                return [(row_id, row)]
            return []
        self.rows_read += storage.row_count
        budget = current_budget()
        targets: list[tuple[RowId, tuple]] = []
        pending = 0
        for row_id, row in storage.scan():
            # Same cooperative-cancellation cadence as the row executor's
            # scans: a statement deadline stops the DML during target
            # selection, before any row has been modified.
            if budget is not None:
                pending += 1
                if pending >= 1024:
                    pending = 0
                    budget.check()
            if predicate is None or predicate(row) is True:
                targets.append((row_id, row))
        return targets

    def update_where(
        self,
        txn: Transaction,
        stmt: ast.UpdateStatement,
        params: Sequence[object] = (),
    ) -> int:
        descriptor = self.catalog.table(stmt.table)
        storage = self.storage_for(stmt.table)
        self.lock(txn, descriptor.name, LockMode.EXCLUSIVE)
        schema = descriptor.schema
        scope = Scope([(descriptor.name, c.name) for c in schema.columns])
        resolver = self._make_subquery_resolver(txn, params, scope)
        predicate = (
            compile_scalar(stmt.where, scope, params, resolver)
            if stmt.where is not None
            else None
        )
        assignment_fns = [
            (schema.position_of(column), compile_scalar(expr, scope, params, resolver))
            for column, expr in stmt.assignments
        ]
        index = self._pk_indexes.get(descriptor.name)
        pk_positions = (
            [schema.position_of(c) for c in schema.primary_key_columns]
            if index is not None
            else []
        )
        # Materialise targets first: no Halloween problem with in-place
        # updates here (no index-order scans), but keep it tidy anyway.
        targets = self._dml_targets(
            descriptor, storage, stmt.where, predicate, params
        )
        for row_id, row in targets:
            new_row = list(row)
            for position, fn in assignment_fns:
                new_row[position] = schema.columns[position].coerce(fn(row))
            new_tuple = tuple(new_row)
            if index is not None:
                old_key = tuple(row[p] for p in pk_positions)
                new_key = tuple(new_tuple[p] for p in pk_positions)
                if new_key != old_key:
                    if new_key in index:
                        raise SqlError(
                            f"duplicate primary key {new_key} in {descriptor.name}"
                        )
                    del index[old_key]
                    index[new_key] = row_id
                    txn.add_undo(_undo_index_move(index, old_key, new_key, row_id))
            before = storage.update(row_id, new_tuple)
            txn.add_undo(_undo_update(storage, row_id, before))
            self._capture(txn, descriptor, "UPDATE", before, new_tuple)
        self.rows_written += len(targets)
        self.statements_executed += 1
        return len(targets)

    def delete_where(
        self,
        txn: Transaction,
        stmt: ast.DeleteStatement,
        params: Sequence[object] = (),
    ) -> int:
        descriptor = self.catalog.table(stmt.table)
        storage = self.storage_for(stmt.table)
        self.lock(txn, descriptor.name, LockMode.EXCLUSIVE)
        schema = descriptor.schema
        scope = Scope([(descriptor.name, c.name) for c in schema.columns])
        resolver = self._make_subquery_resolver(txn, params, scope)
        predicate = (
            compile_scalar(stmt.where, scope, params, resolver)
            if stmt.where is not None
            else None
        )
        index = self._pk_indexes.get(descriptor.name)
        pk_positions = (
            [schema.position_of(c) for c in schema.primary_key_columns]
            if index is not None
            else []
        )
        targets = self._dml_targets(
            descriptor, storage, stmt.where, predicate, params
        )
        for row_id, row in targets:
            storage.delete(row_id)
            txn.add_undo(_undo_delete(storage, row_id, row))
            if index is not None:
                key = tuple(row[p] for p in pk_positions)
                del index[key]
                txn.add_undo(_undo_index_restore(index, key, row_id))
            self._capture(txn, descriptor, "DELETE", row, None)
        self.rows_written += len(targets)
        self.statements_executed += 1
        return len(targets)

    # -- queries ----------------------------------------------------------------------

    def execute_select(
        self,
        txn: Transaction,
        stmt,
        params: Sequence[object] = (),
        plan=None,
        profile=None,
    ) -> tuple[list[str], list[tuple]]:
        """Run a SELECT (or set operation) against DB2-resident tables.

        ``plan`` is an optional pre-bound :mod:`repro.sql.logical` plan
        for ``stmt`` (from the statement plan cache); the index fast path
        still inspects the AST, so both are passed. ``profile`` is an
        optional :class:`repro.obs.profile.StatementProfile` the plan
        walker fills with per-operator runtime stats.
        """
        txn.require_active()
        overrides = self._point_lookup_overrides(stmt, txn, params)
        provider = _TxnTableProvider(self, txn, overrides)
        engine = RowQueryEngine(provider, params, profile=profile)
        columns, rows = engine.execute(plan if plan is not None else stmt)
        self.rows_read += engine.rows_examined
        self.statements_executed += 1
        return columns, rows

    def _make_subquery_resolver(self, txn: Transaction, params, scope: Scope):
        from repro.sql.correlation import SubqueryExecutor

        return SubqueryExecutor(
            scope,
            lambda table: self.storage_for(table).schema.column_names,
            lambda query: self.execute_select(txn, query, params)[1],
        )

    def _point_lookup_overrides(
        self,
        stmt,
        txn: Transaction,
        params: Sequence[object],
    ) -> Optional[dict[str, list[tuple]]]:
        """Index fast path: WHERE covers a table's full primary key with
        equality against constants → serve that table from the PK index."""
        if not isinstance(stmt, ast.SelectStatement):
            return None
        if not isinstance(stmt.from_item, ast.TableRef) or stmt.where is None:
            return None
        table = stmt.from_item.name.upper()
        index = self._pk_indexes.get(table)
        if index is None:
            return None
        descriptor = self.catalog.table(table)
        key = self._pk_equality_key(
            descriptor, stmt.from_item.binding, stmt.where, params
        )
        if key is None:
            return None
        self.lock(txn, table, LockMode.SHARED)
        self.index_lookups += 1
        row_id = index.get(key)
        storage = self.storage_for(table)
        rows = [storage.fetch(row_id)] if row_id is not None else []
        return {table: rows}

    # -- convenience (tests) -------------------------------------------------------------

    def table_rows(self, name: str) -> list[tuple]:
        """All rows of a table without a transaction (test helper)."""
        return [row for _, row in self.storage_for(name).scan()]


# -- undo closures (module-level so they don't capture loop variables) ------


def _undo_insert(storage: RowStoreTable, row_id: RowId):
    return lambda: storage.delete(row_id)


def _undo_update(storage: RowStoreTable, row_id: RowId, before: tuple):
    return lambda: storage.update(row_id, before)


def _undo_delete(storage: RowStoreTable, row_id: RowId, row: tuple):
    return lambda: storage.undelete(row_id, row)


def _undo_index_put(index: dict, key: tuple):
    return lambda: index.pop(key, None)


def _undo_index_move(index: dict, old_key: tuple, new_key: tuple, row_id: RowId):
    def undo():
        index.pop(new_key, None)
        index[old_key] = row_id

    return undo


def _undo_index_restore(index: dict, key: tuple, row_id: RowId):
    def undo():
        index[key] = row_id

    return undo
