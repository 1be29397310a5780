"""Batch loader with per-placement semantics and movement accounting."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.catalog import Privilege, TableLocation
from repro.catalog.schema import rows_from_columns
from repro.errors import LoaderError
from repro.federation.database import AcceleratedDatabase
from repro.federation.session import Connection
from repro.loader.sources import RowSource
from repro.metrics.counters import MovementStats

__all__ = ["IdaaLoader", "LoadReport"]


@dataclass
class LoadReport:
    """What one load did, for the ingestion experiments (E4)."""

    table: str
    location: str
    rows: int = 0
    batches: int = 0
    elapsed_seconds: float = 0.0
    movement: MovementStats = field(default_factory=MovementStats)
    db2_rows_written: int = 0

    @property
    def rows_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return float("inf")
        return self.rows / self.elapsed_seconds


class IdaaLoader:
    """Loads a :class:`RowSource` into a table of the federation.

    The target's placement decides the path:

    * ``DB2_ONLY``: rows go through the DB2 engine only;
    * ``ACCELERATED``: *dual load* — DB2 storage and the accelerator copy
      are written in the same batch, bypassing replication (change
      capture is disabled for the load, like the real loader's
      bulk path);
    * ``ACCELERATOR_ONLY``: rows go straight to the accelerator; DB2 only
      holds the nickname and executes nothing per row.
    """

    def __init__(self, system: AcceleratedDatabase, batch_size: int = 5000):
        self._system = system
        self.batch_size = batch_size

    def load(
        self,
        source: RowSource,
        table: str,
        connection: Connection,
        create: bool = False,
        in_accelerator: bool = False,
    ) -> LoadReport:
        """Load all rows of ``source`` into ``table``.

        With ``create=True`` the table is created first, with a schema
        inferred from the source (``in_accelerator`` picks AOT placement).
        """
        system = self._system
        if create:
            if system.catalog.has_table(table):
                raise LoaderError(f"table {table.upper()} already exists")
            system.create_table(
                table,
                source.infer_schema(),
                connection.user.name,
                in_accelerator=in_accelerator,
            )
        descriptor = system.catalog.table(table)

        # Governance: LOAD privilege (owner and SYSADM implicit).
        if not (
            connection.user.is_admin
            or descriptor.owner == connection.user.name
        ):
            system.catalog.privileges.check(
                connection.user.name, Privilege.LOAD, "TABLE", descriptor.name
            )

        schema = descriptor.schema
        expected = [c.upper() for c in source.column_names()]
        if expected != schema.column_names:
            raise LoaderError(
                f"source columns {expected} do not match table columns "
                f"{schema.column_names}"
            )

        report = LoadReport(
            table=descriptor.name, location=descriptor.location.value
        )
        movement_start = system.interconnect.snapshot()
        db2_written_start = system.db2.rows_written
        started = time.perf_counter()

        # One span for the whole load, so its batches' link sends nest in
        # one trace and a load evicts at most one retained trace.
        with system.tracer.span("loader.load", table=descriptor.name) as span:
            batch: list[tuple] = []
            for raw in source.rows():
                batch.append(raw)
                if len(batch) >= self.batch_size:
                    self._load_batch(descriptor, batch)
                    report.rows += len(batch)
                    report.batches += 1
                    batch = []
            if batch:
                self._load_batch(descriptor, batch)
                report.rows += len(batch)
                report.batches += 1
            span.annotate(rows=report.rows, batches=report.batches)

        report.elapsed_seconds = time.perf_counter() - started
        report.movement = system.interconnect.since(movement_start)
        report.db2_rows_written = system.db2.rows_written - db2_written_start
        return report

    def _load_batch(self, descriptor, raw_rows: list[tuple]) -> None:
        """Coerce one batch — transposed once, a column at a time — and
        write it where the table lives."""
        system = self._system
        columns = descriptor.schema.coerce_rows(raw_rows)
        nbytes = descriptor.schema.columns_byte_size(columns)
        if descriptor.location is TableLocation.ACCELERATOR_ONLY:
            # Straight to the accelerator; DB2 is bypassed entirely.
            system.interconnect.send_to_accelerator(nbytes)
            system.accelerator.insert_into(
                descriptor.name, columns, already_coerced=True, nbytes=nbytes
            )
            return
        # DB2-resident: write the row store under a short transaction.
        txn = system.db2.txn_manager.begin()
        try:
            system.db2.insert_rows(
                txn,
                descriptor.name,
                rows_from_columns(columns),
                already_coerced=True,
                capture=descriptor.location is not TableLocation.ACCELERATED,
            )
            system.db2.commit(txn)
        except Exception:
            system.db2.rollback(txn)
            raise
        if descriptor.location is TableLocation.ACCELERATED:
            # Dual load: ship the same batch to the copy directly.
            system.interconnect.send_to_accelerator(nbytes)
            system.accelerator.bulk_insert(descriptor.name, columns, nbytes)
