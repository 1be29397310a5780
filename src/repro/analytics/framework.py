"""Procedure registry, parameter convention, and governance gate.

Procedures follow the INZA calling convention: one string argument of
``key=value`` pairs, e.g.::

    CALL INZA.KMEANS('intable=CHURN, outtable=CHURN_CLUSTERS, k=4')

Each :class:`Procedure` declares which parameters name *input* tables and
which name *output* tables; the registry derives the required privileges
from those declarations and lets DB2's privilege manager decide before
the handler ever runs on the accelerator. That is the paper's data
governance requirement: delegation must not create a privilege bypass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro.catalog import Privilege
from repro.errors import (
    AnalyticsError,
    ProcedureError,
    UnknownObjectError,
)
from repro.result import Result
from repro.sql import ast
from repro.sql.expressions import VColumn

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.federation.database import AcceleratedDatabase
    from repro.federation.session import Connection

__all__ = [
    "Procedure",
    "ProcedureContext",
    "ProcedureRegistry",
    "numeric_matrix",
    "parse_parameter_string",
]


def parse_parameter_string(text: str) -> dict[str, str]:
    """Parse the INZA ``key=value, key=value`` convention.

    Keys are case-insensitive (lowered); values keep their case. Empty
    segments are ignored. Values may be single- or double-quoted to
    protect commas and equals signs (``incolumn='A,B,C'``); inside a
    quoted value a doubled quote is the escaped literal quote.

    >>> parse_parameter_string('intable=T1, k=4')
    {'intable': 'T1', 'k': '4'}
    >>> parse_parameter_string("incolumn='A,B,C', k=4")
    {'incolumn': 'A,B,C', 'k': '4'}
    """
    params: dict[str, str] = {}
    for segment in _split_parameter_segments(text):
        segment = segment.strip()
        if not segment:
            continue
        if "=" not in segment:
            raise ProcedureError(
                f"malformed parameter segment {segment!r} (expected key=value)"
            )
        key, __, value = segment.partition("=")
        params[key.strip().lower()] = _unquote(value.strip())
    return params


def _split_parameter_segments(text: str) -> list[str]:
    """Split on commas that sit outside quoted values."""
    segments: list[str] = []
    current: list[str] = []
    quote: Optional[str] = None
    index = 0
    while index < len(text):
        ch = text[index]
        if quote is not None:
            if ch == quote:
                if index + 1 < len(text) and text[index + 1] == quote:
                    current.append(ch)
                    current.append(ch)
                    index += 2
                    continue
                quote = None
            current.append(ch)
        elif ch in "'\"":
            quote = ch
            current.append(ch)
        elif ch == ",":
            segments.append("".join(current))
            current = []
        else:
            current.append(ch)
        index += 1
    if quote is not None:
        raise ProcedureError(
            f"unterminated quote in parameter string {text!r}"
        )
    segments.append("".join(current))
    return segments


def numeric_matrix(
    table: str, columns: dict[str, VColumn], names: Sequence[str]
) -> np.ndarray:
    """The float64 matrix (rows × ``names``) of a table's scanned columns.

    The one matrix reader of the analytics procedures and the training
    driver. NULLs are rejected — transformation procedures (IMPUTE)
    exist to clean them first, which mirrors the INZA workflow — and so
    are non-numeric columns.
    """
    arrays = []
    for name in names:
        column = columns[name]
        if column.mask is not None and column.mask.any():
            raise AnalyticsError(
                f"column {name} of {table} contains NULLs; "
                "run INZA.IMPUTE first"
            )
        if column.values.dtype.kind not in "ifb":
            raise AnalyticsError(
                f"column {name} of {table} is not numeric"
            )
        arrays.append(column.values.astype(np.float64))
    if not arrays:
        return np.empty((0, 0))
    return np.column_stack(arrays)


def _unquote(value: str) -> str:
    if len(value) >= 2 and value[0] in "'\"" and value[-1] == value[0]:
        quote = value[0]
        return value[1:-1].replace(quote * 2, quote)
    return value


class ProcedureContext:
    """Execution context handed to a procedure handler.

    The handler runs conceptually *on the accelerator*: its table reads
    and writes go straight to accelerator storage without crossing the
    interconnect. Only the CALL statement and its textual result travel
    between DB2 and the accelerator.
    """

    def __init__(
        self,
        system: "AcceleratedDatabase",
        connection: "Connection",
        params: dict[str, str],
    ) -> None:
        self.system = system
        self.connection = connection
        self.params = params
        self.messages: list[str] = []

    # -- parameter access ---------------------------------------------------

    def require(self, key: str) -> str:
        value = self.params.get(key)
        if value is None:
            raise ProcedureError(f"missing required parameter '{key}'")
        return value

    def get(self, key: str, default: Optional[str] = None) -> Optional[str]:
        return self.params.get(key, default)

    def get_int(self, key: str, default: Optional[int] = None) -> Optional[int]:
        value = self.params.get(key)
        if value is None:
            if default is None and key in self.params:
                raise ProcedureError(f"parameter '{key}' must be an integer")
            return default
        try:
            return int(value)
        except ValueError:
            raise ProcedureError(
                f"parameter '{key}' must be an integer, got {value!r}"
            ) from None

    def get_float(
        self, key: str, default: Optional[float] = None
    ) -> Optional[float]:
        value = self.params.get(key)
        if value is None:
            return default
        try:
            return float(value)
        except ValueError:
            raise ProcedureError(
                f"parameter '{key}' must be a number, got {value!r}"
            ) from None

    def column_list(self, key: str) -> Optional[list[str]]:
        """Parse a ``;``- or ``,``-separated column list parameter.

        Comma-separated lists require the quoted-value form
        (``incolumn='A,B,C'``); the historical ``;`` separator needs no
        quoting.
        """
        value = self.params.get(key)
        if value is None:
            return None
        separator = ";" if ";" in value else ","
        return [
            part.strip().upper()
            for part in value.split(separator)
            if part.strip()
        ]

    # -- accelerator-side data access ----------------------------------------

    def table_columns(self, name: str) -> list[str]:
        return self.system.catalog.table(name).schema.column_names

    def read_matrix(
        self, table: str, columns: Sequence[str]
    ) -> np.ndarray:
        """Numeric matrix (rows × columns) of a table's current data
        (:func:`numeric_matrix`)."""
        return numeric_matrix(table, self.read_columns(table, columns), columns)

    def read_columns(self, table: str, columns: Sequence[str]):
        """Raw VColumns of the named columns at the current snapshot;
        only those columns are materialised."""
        key = table.upper()
        engine = self.system.accelerator
        deltas = self.connection.active_deltas()
        epoch = self.connection.snapshot_epoch_for_statement()
        __, cols, __len = engine.scan_snapshot(
            key, epoch, delta=deltas.get(key), columns=columns
        )
        missing = [c for c in columns if c not in cols]
        if missing:
            raise UnknownObjectError(
                f"table {key} has no column(s) {', '.join(missing)}"
            )
        return {name: cols[name] for name in columns}

    def read_labels(self, table: str, column: str) -> list[object]:
        frame = self.read_columns(table, [column])
        return frame[column].to_objects()

    def row_count(self, table: str) -> int:
        engine = self.system.accelerator
        deltas = self.connection.active_deltas()
        epoch = self.connection.snapshot_epoch_for_statement()
        __, __cols, length = engine.scan_snapshot(
            table.upper(), epoch, delta=deltas.get(table.upper())
        )
        return length

    # -- accelerator-side output ------------------------------------------------

    def create_output_table(
        self, name: str, columns: Sequence[tuple[str, object]]
    ) -> None:
        """Create (or replace) an AOT for procedure output."""
        self.system.create_procedure_output_table(
            self.connection, name, columns
        )

    def insert_rows(self, name: str, rows: Sequence[tuple]) -> int:
        """Write rows to an AOT through the connection's txn context."""
        return self.system.insert_procedure_rows(self.connection, name, rows)

    def insert_columns(self, name: str, columns: Sequence) -> int:
        """:meth:`insert_rows` for output computed as aligned columns
        (``VColumn``s in the table's column order): it lands without
        ever being boxed into rows."""
        return self.system.insert_procedure_rows(
            self.connection, name, columns
        )

    def write_row_scores(
        self,
        intable: str,
        id_column: str,
        outtable: str,
        scores: Sequence[tuple[str, object, Sequence]],
    ) -> int:
        """Create ``outtable`` as ``intable``'s id column followed by
        ``scores`` and fill it; returns the row count.

        ``scores`` are (column name, SQL type, values) triples, the values
        one per input row in scan order. The ids stay the column they were
        read as and the scores the arrays they were computed as.
        """
        ids = self.read_columns(intable, [id_column])[id_column]
        id_type = (
            self.system.catalog.table(intable).schema.column(id_column).sql_type
        )
        self.create_output_table(
            outtable,
            [(id_column, id_type)]
            + [(name, sql_type) for name, sql_type, __ in scores],
        )
        return self.insert_columns(
            outtable,
            [ids]
            + [VColumn(values=np.asarray(values)) for *__, values in scores],
        )

    def log(self, message: str) -> None:
        self.messages.append(message)


@dataclass(frozen=True)
class Procedure:
    """A registered analytics procedure."""

    name: str  # qualified, e.g. 'INZA.KMEANS'
    handler: Callable[[ProcedureContext], str]
    description: str = ""
    #: Parameter keys whose values name input tables (need SELECT).
    input_params: tuple[str, ...] = ("intable",)
    #: Parameter keys whose values name output tables (need INSERT, or
    #: the table is created and owned by the caller).
    output_params: tuple[str, ...] = ("outtable",)


class ProcedureRegistry:
    """Name → procedure map plus the governance gate."""

    def __init__(self) -> None:
        self._procedures: dict[str, Procedure] = {}
        self.calls_executed = 0
        self.calls_denied = 0

    def register(self, procedure: Procedure) -> None:
        self._procedures[procedure.name.upper()] = procedure

    def get(self, name: str) -> Procedure:
        procedure = self._procedures.get(name.upper())
        if procedure is None:
            raise UnknownObjectError(f"unknown procedure {name}")
        return procedure

    def names(self) -> list[str]:
        return sorted(self._procedures)

    # -- call path ------------------------------------------------------------

    def call(
        self,
        system: "AcceleratedDatabase",
        connection: "Connection",
        stmt: ast.CallStatement,
    ) -> Result:
        procedure = self.get(stmt.procedure)
        params = self._extract_params(stmt)
        user = connection.user

        # Governance: authorised by DB2 before delegation (paper Sec. 3).
        privileges = system.catalog.privileges
        try:
            privileges.check(
                user.name,
                Privilege.EXECUTE,
                "PROCEDURE",
                procedure.name.upper(),
                is_admin=user.is_admin,
            )
            for key in procedure.input_params:
                table = params.get(key)
                if table:
                    privileges.check(
                        user.name,
                        Privilege.SELECT,
                        "TABLE",
                        table.upper(),
                        is_admin=user.is_admin,
                    )
            for key in procedure.output_params:
                table = params.get(key)
                if table and system.catalog.has_table(table):
                    privileges.check(
                        user.name,
                        Privilege.INSERT,
                        "TABLE",
                        table.upper(),
                        is_admin=user.is_admin,
                    )
        except Exception:
            self.calls_denied += 1
            raise

        context = ProcedureContext(system, connection, params)
        message = procedure.handler(context)
        self.calls_executed += 1
        rows = [(message,)] + [(line,) for line in context.messages]
        return Result(
            columns=["MESSAGE"],
            rows=rows,
            engine="ACCELERATOR",
            rowcount=len(rows),
            message=message,
        )

    @staticmethod
    def _extract_params(stmt: ast.CallStatement) -> dict[str, str]:
        if not stmt.arguments:
            return {}
        if len(stmt.arguments) != 1 or not isinstance(
            stmt.arguments[0], ast.Literal
        ):
            raise ProcedureError(
                "procedures take a single 'key=value, ...' string argument"
            )
        value = stmt.arguments[0].value
        if not isinstance(value, str):
            raise ProcedureError("procedure argument must be a string")
        return parse_parameter_string(value)
