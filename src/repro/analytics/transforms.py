"""Data-transformation procedures (the ELT stages of mining pipelines).

These are the multi-staged preparation steps the paper's introduction
describes: each reads an accelerator-resident table and materialises a
transformed accelerator-only table, so a chain of them never leaves the
accelerator. All are deterministic (sampling takes a seed).
"""

from __future__ import annotations

import numpy as np

from repro.analytics.framework import ProcedureContext
from repro.errors import AnalyticsError, ProcedureError
from repro.sql.expressions import VColumn
from repro.sql.types import DOUBLE, INTEGER, VarcharType

__all__ = [
    "normalize_procedure",
    "impute_procedure",
    "bin_procedure",
    "sample_procedure",
    "split_data_procedure",
    "summary_procedure",
    "correlation_procedure",
]


def _source_schema(ctx: ProcedureContext, table: str):
    return ctx.system.catalog.table(table).schema


def _read_all(ctx: ProcedureContext, table: str):
    """(schema, column names, {name: VColumn}) of a table's current rows."""
    schema = _source_schema(ctx, table)
    names = schema.column_names
    return schema, names, ctx.read_columns(table, names)


def _as_float(column: VColumn) -> np.ndarray:
    """The column as float64, NaN in its NULL slots."""
    if column.mask is None:
        return column.values.astype(np.float64)
    values = np.full(len(column), np.nan)
    values[~column.mask] = column.values[~column.mask].astype(np.float64)
    return values


def _nullable(values: np.ndarray, live: np.ndarray) -> VColumn:
    """``values`` with NULL wherever ``live`` is False."""
    return VColumn(values=values, mask=None if live.all() else ~live)


def _take(frame: dict, indexes: np.ndarray) -> dict:
    """The rows at ``indexes`` of every column of ``frame``."""
    return {name: column.take(indexes) for name, column in frame.items()}


def _default_numeric(ctx, table, exclude=()):
    schema = _source_schema(ctx, table)
    return [
        column.name
        for column in schema.columns
        if column.sql_type.is_numeric and column.name not in exclude
    ]


def _write_like_source(ctx, schema, outtable, frame, names):
    ctx.create_output_table(
        outtable, [(c.name, c.sql_type) for c in schema.columns]
    )
    return ctx.insert_columns(outtable, [frame[name] for name in names])


def normalize_procedure(ctx: ProcedureContext) -> str:
    """``CALL INZA.NORMALIZE('intable=T, outtable=O, incolumn=A;B,
    method=zscore|minmax')``."""
    intable = ctx.require("intable").upper()
    outtable = ctx.require("outtable").upper()
    method = (ctx.get("method") or "zscore").lower()
    if method not in ("zscore", "minmax"):
        raise ProcedureError(f"unknown normalisation method {method!r}")
    schema, names, frame = _read_all(ctx, intable)
    targets = ctx.column_list("incolumn") or _default_numeric(ctx, intable)
    for name in targets:
        column = schema.column(name)
        if not column.sql_type.is_numeric:
            raise AnalyticsError(f"column {name} is not numeric")
        values = _as_float(frame[name])
        live = ~np.isnan(values)
        if not live.any():
            continue
        if method == "zscore":
            mean = values[live].mean()
            std = values[live].std()
            scaled = (values - mean) / (std if std > 0 else 1.0)
        else:
            low = values[live].min()
            span = values[live].max() - low
            scaled = (values - low) / (span if span > 0 else 1.0)
        frame[name] = _nullable(scaled, live)
    # Normalised columns become DOUBLE regardless of source type.
    out_columns = []
    for column in schema.columns:
        if column.name in targets:
            out_columns.append((column.name, DOUBLE))
        else:
            out_columns.append((column.name, column.sql_type))
    ctx.create_output_table(outtable, out_columns)
    count = ctx.insert_columns(outtable, [frame[name] for name in names])
    return f"NORMALIZE ok: {count} rows, method={method}"


def impute_procedure(ctx: ProcedureContext) -> str:
    """``CALL INZA.IMPUTE('intable=T, outtable=O, incolumn=A;B,
    method=mean|median|constant [, value=0]')``."""
    intable = ctx.require("intable").upper()
    outtable = ctx.require("outtable").upper()
    method = (ctx.get("method") or "mean").lower()
    if method not in ("mean", "median", "constant"):
        raise ProcedureError(f"unknown imputation method {method!r}")
    schema, names, frame = _read_all(ctx, intable)
    targets = ctx.column_list("incolumn") or _default_numeric(ctx, intable)
    replaced = 0
    for name in targets:
        column = frame[name]
        nulls = column.mask
        if nulls is None or not nulls.any():
            continue
        if method == "constant":
            fill = ctx.get_float("value", 0.0)
        else:
            live = column.values[~nulls].astype(np.float64)
            if len(live) == 0:
                raise AnalyticsError(
                    f"column {name} is entirely NULL; use method=constant"
                )
            fill = float(live.mean() if method == "mean" else np.median(live))
        values = column.values.copy()
        values[nulls] = schema.column(name).sql_type.coerce(fill)
        frame[name] = VColumn(values=values)
        replaced += int(nulls.sum())
    count = _write_like_source(ctx, schema, outtable, frame, names)
    return f"IMPUTE ok: {count} rows, {replaced} values imputed"


def bin_procedure(ctx: ProcedureContext) -> str:
    """``CALL INZA.BIN('intable=T, outtable=O, incolumn=A, bins=10')``.

    Adds an ``<column>_BIN`` INTEGER column with equal-width bin ids
    (0-based); NULL inputs get NULL bins.
    """
    intable = ctx.require("intable").upper()
    outtable = ctx.require("outtable").upper()
    targets = ctx.column_list("incolumn")
    if not targets:
        raise ProcedureError("BIN requires incolumn=<column>[;<column>...]")
    bins = ctx.get_int("bins", 10)
    if bins < 1:
        raise ProcedureError("bins must be >= 1")
    schema, names, frame = _read_all(ctx, intable)
    out_columns = [(c.name, c.sql_type) for c in schema.columns]
    extra: dict[str, VColumn] = {}
    for name in targets:
        if not schema.column(name).sql_type.is_numeric:
            raise AnalyticsError(f"column {name} is not numeric")
        values = _as_float(frame[name])
        live = ~np.isnan(values)
        if live.any():
            low = values[live].min()
            high = values[live].max()
            width = (high - low) / bins if high > low else 1.0
            ids = np.clip(((values - low) / width).astype(int), 0, bins - 1)
        else:
            ids = np.zeros(len(values), dtype=int)
        bin_name = f"{name}_BIN"
        out_columns.append((bin_name, INTEGER))
        extra[bin_name] = _nullable(ids, live)
    ctx.create_output_table(outtable, out_columns)
    count = ctx.insert_columns(
        outtable, [frame[name] for name in names] + list(extra.values())
    )
    return f"BIN ok: {count} rows, {len(targets)} column(s), {bins} bins"


def sample_procedure(ctx: ProcedureContext) -> str:
    """``CALL INZA.SAMPLE('intable=T, outtable=O, fraction=0.1,
    randseed=1')`` (or ``size=N``)."""
    intable = ctx.require("intable").upper()
    outtable = ctx.require("outtable").upper()
    seed = ctx.get_int("randseed", 1)
    schema, names, frame = _read_all(ctx, intable)
    total = len(frame[names[0]])
    size = ctx.get_int("size")
    if size is None:
        fraction = ctx.get_float("fraction")
        if fraction is None:
            raise ProcedureError("SAMPLE requires fraction= or size=")
        if not 0 < fraction <= 1:
            raise ProcedureError("fraction must be in (0, 1]")
        size = int(round(total * fraction))
    size = min(size, total)
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(total, size=size, replace=False))
    count = _write_like_source(
        ctx, schema, outtable, _take(frame, chosen), names
    )
    return f"SAMPLE ok: {count} of {total} rows"


def split_data_procedure(ctx: ProcedureContext) -> str:
    """``CALL INZA.SPLIT_DATA('intable=T, traintable=TR, testtable=TE,
    fraction=0.8, randseed=1')``."""
    intable = ctx.require("intable").upper()
    train_table = ctx.require("traintable").upper()
    test_table = ctx.require("testtable").upper()
    fraction = ctx.get_float("fraction", 0.8)
    if not 0 < fraction < 1:
        raise ProcedureError("fraction must be in (0, 1)")
    seed = ctx.get_int("randseed", 1)
    schema, names, frame = _read_all(ctx, intable)
    total = len(frame[names[0]])
    rng = np.random.default_rng(seed)
    permutation = rng.permutation(total)
    cut = int(round(total * fraction))
    train_rows = np.sort(permutation[:cut])
    test_rows = np.sort(permutation[cut:])
    for name_, indexes in ((train_table, train_rows), (test_table, test_rows)):
        _write_like_source(ctx, schema, name_, _take(frame, indexes), names)
    return (
        f"SPLIT_DATA ok: train={len(train_rows)}, test={len(test_rows)}"
    )


def summary_procedure(ctx: ProcedureContext) -> str:
    """``CALL INZA.SUMMARY('intable=T, outtable=O')`` — per-column stats."""
    intable = ctx.require("intable").upper()
    outtable = ctx.require("outtable").upper()
    schema, names, frame = _read_all(ctx, intable)
    ctx.create_output_table(
        outtable,
        [
            ("COLUMN_NAME", VarcharType(128)),
            ("NON_NULL", INTEGER),
            ("NULLS", INTEGER),
            ("DISTINCT_VALUES", INTEGER),
            ("MINIMUM", DOUBLE),
            ("MAXIMUM", DOUBLE),
            ("MEAN", DOUBLE),
            ("STDDEV", DOUBLE),
        ],
    )
    rows = []
    for name in names:
        values = frame[name].to_objects()
        non_null = [v for v in values if v is not None]
        numeric = schema.column(name).sql_type.is_numeric and non_null
        if numeric:
            arr = np.array(non_null, dtype=np.float64)
            stats = (
                float(arr.min()),
                float(arr.max()),
                float(arr.mean()),
                float(arr.std()),
            )
        else:
            stats = (None, None, None, None)
        rows.append(
            (
                name,
                len(non_null),
                len(values) - len(non_null),
                len(set(non_null)),
            )
            + stats
        )
    ctx.insert_rows(outtable, rows)
    return f"SUMMARY ok: {len(rows)} columns profiled"


def correlation_procedure(ctx: ProcedureContext) -> str:
    """``CALL INZA.CORRELATION('intable=T, outtable=O [, incolumn=A;B]')``.

    Pairwise Pearson correlation over the numeric columns; one output
    row per unordered column pair. NULLs are dropped pairwise.
    """
    intable = ctx.require("intable").upper()
    outtable = ctx.require("outtable").upper()
    columns = ctx.column_list("incolumn") or _default_numeric(ctx, intable)
    if len(columns) < 2:
        raise AnalyticsError("CORRELATION needs at least two numeric columns")
    frame = ctx.read_columns(intable, columns)
    arrays = {}
    for name in columns:
        column = frame[name]
        values = column.values.astype(np.float64)
        mask = column.null_mask()
        arrays[name] = (values, mask)
    ctx.create_output_table(
        outtable,
        [
            ("COLUMN_A", VarcharType(128)),
            ("COLUMN_B", VarcharType(128)),
            ("CORRELATION", DOUBLE),
            ("N", INTEGER),
        ],
    )
    rows = []
    for i, a in enumerate(columns):
        for b in columns[i + 1 :]:
            a_values, a_mask = arrays[a]
            b_values, b_mask = arrays[b]
            live = ~(a_mask | b_mask)
            n = int(live.sum())
            if n < 2:
                rows.append((a, b, None, n))
                continue
            x = a_values[live]
            y = b_values[live]
            x_std = x.std()
            y_std = y.std()
            if x_std == 0 or y_std == 0:
                rows.append((a, b, None, n))
                continue
            r = float(((x - x.mean()) * (y - y.mean())).mean() / (x_std * y_std))
            rows.append((a, b, r, n))
    ctx.insert_rows(outtable, rows)
    return f"CORRELATION ok: {len(rows)} pairs over {len(columns)} columns"
