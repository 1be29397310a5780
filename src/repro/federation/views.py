"""View expansion.

Views are DB2 catalog objects (like nicknames, they carry no data); the
federation expands every view reference into a derived table *before*
routing, so a query over a view of accelerated tables offloads exactly
like the underlying query would. Views are definer-rights: querying a
view needs SELECT on the view itself, not on its base tables.
"""

from __future__ import annotations

import dataclasses
from typing import Union

from repro.catalog import Catalog
from repro.errors import SqlError
from repro.sql import ast

__all__ = ["expand_views"]

_MAX_DEPTH = 16


def expand_views(
    stmt: Union[ast.SelectStatement, ast.SetOperation],
    catalog: Catalog,
) -> tuple[Union[ast.SelectStatement, ast.SetOperation], set[str]]:
    """Replace references to ``catalog``'s views with derived tables,
    recursively.

    Returns the rewritten statement and the set of view names used
    anywhere in it. Cyclic or overly deep view nests raise
    :class:`~repro.errors.SqlError`.
    """
    used: set[str] = set()
    expanded = _expand_statement(stmt, catalog, used, depth=0)
    return expanded, used


def _expand_statement(stmt, catalog, used, depth):
    if isinstance(stmt, ast.SetOperation):
        return dataclasses.replace(
            stmt,
            left=_expand_statement(stmt.left, catalog, used, depth),
            right=_expand_statement(stmt.right, catalog, used, depth),
        )
    return _expand_select(stmt, catalog, used, depth)


def _expand_select(
    query: ast.SelectStatement, catalog, used, depth
) -> ast.SelectStatement:
    if depth > _MAX_DEPTH:
        raise SqlError("view nesting too deep (cycle?)")
    new_from = _expand_from(query.from_item, catalog, used, depth)
    new_items = [
        ast.SelectItem(
            expression=_expand_expr(item.expression, catalog, used, depth),
            alias=item.alias,
        )
        for item in query.select_items
    ]
    return dataclasses.replace(
        query,
        select_items=new_items,
        from_item=new_from,
        where=_expand_expr(query.where, catalog, used, depth)
        if query.where is not None
        else None,
        group_by=[
            _expand_expr(g, catalog, used, depth) for g in query.group_by
        ],
        having=_expand_expr(query.having, catalog, used, depth)
        if query.having is not None
        else None,
        order_by=[
            ast.OrderItem(
                expression=_expand_expr(o.expression, catalog, used, depth),
                ascending=o.ascending,
            )
            for o in query.order_by
        ],
    )


def _expand_from(item, catalog, used, depth):
    if item is None:
        return None
    if isinstance(item, ast.TableRef):
        if not catalog.has_view(item.name):
            return item
        used.add(item.name.upper())
        inner = _expand_select(catalog.view(item.name).query, catalog, used, depth + 1)
        return ast.SubquerySource(query=inner, alias=item.binding)
    if isinstance(item, ast.SubquerySource):
        return dataclasses.replace(
            item, query=_expand_select(item.query, catalog, used, depth)
        )
    if isinstance(item, ast.Join):
        return dataclasses.replace(
            item,
            left=_expand_from(item.left, catalog, used, depth),
            right=_expand_from(item.right, catalog, used, depth),
            condition=_expand_expr(item.condition, catalog, used, depth)
            if item.condition is not None
            else None,
        )
    return item


def _expand_expr(expr, catalog, used, depth):
    from repro.sql.planning import map_children

    if isinstance(expr, ast.SubqueryExpression):
        new = dataclasses.replace(
            expr, query=_expand_select(expr.query, catalog, used, depth)
        )
        if new.operand is not None:
            new = dataclasses.replace(
                new, operand=_expand_expr(new.operand, catalog, used, depth)
            )
        return new
    return map_children(
        expr, lambda child: _expand_expr(child, catalog, used, depth)
    )
