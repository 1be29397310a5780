"""Retail star schema: CUSTOMERS, PRODUCTS, TRANSACTIONS."""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass

from repro.federation.session import Connection

__all__ = [
    "StarSchemaData",
    "generate_customers",
    "generate_products",
    "generate_transactions",
    "create_star_schema",
]

_REGIONS = ("EU", "US", "AP", "LA")
_SEGMENTS = ("CONSUMER", "CORPORATE", "SMB")
_CATEGORIES = ("GROCERY", "ELECTRONICS", "CLOTHING", "HOME", "SPORTS")

CUSTOMER_DDL = """
CREATE TABLE CUSTOMERS (
    C_ID INTEGER NOT NULL PRIMARY KEY,
    C_NAME VARCHAR(32) NOT NULL,
    C_REGION VARCHAR(4) NOT NULL,
    C_SEGMENT VARCHAR(16) NOT NULL,
    C_INCOME DOUBLE
)
"""

PRODUCT_DDL = """
CREATE TABLE PRODUCTS (
    P_ID INTEGER NOT NULL PRIMARY KEY,
    P_NAME VARCHAR(32) NOT NULL,
    P_CATEGORY VARCHAR(16) NOT NULL,
    P_PRICE DOUBLE NOT NULL
)
"""

TRANSACTION_DDL = """
CREATE TABLE TRANSACTIONS (
    T_ID INTEGER NOT NULL PRIMARY KEY,
    T_CUSTOMER INTEGER NOT NULL,
    T_PRODUCT INTEGER NOT NULL,
    T_QUANTITY INTEGER NOT NULL,
    T_AMOUNT DOUBLE NOT NULL,
    T_DATE DATE NOT NULL
)
"""


@dataclass
class StarSchemaData:
    customers: int
    products: int
    transactions: int


def generate_customers(count: int, seed: int = 7) -> list[tuple]:
    rng = random.Random(seed)
    rows = []
    for cid in range(1, count + 1):
        rows.append(
            (
                cid,
                f"Customer {cid}",
                rng.choice(_REGIONS),
                rng.choice(_SEGMENTS),
                # ~5% unknown incomes keep the NULL paths honest.
                round(rng.uniform(15_000, 180_000), 2)
                if rng.random() > 0.05
                else None,
            )
        )
    return rows


def generate_products(count: int, seed: int = 11) -> list[tuple]:
    rng = random.Random(seed)
    return [
        (
            pid,
            f"Product {pid}",
            rng.choice(_CATEGORIES),
            round(rng.uniform(1.5, 900.0), 2),
        )
        for pid in range(1, count + 1)
    ]


def generate_transactions(
    count: int,
    customer_count: int,
    product_count: int,
    seed: int = 13,
) -> list[tuple]:
    rng = random.Random(seed)
    base_date = datetime.date(2015, 1, 1)
    rows = []
    for tid in range(1, count + 1):
        quantity = rng.randint(1, 8)
        unit_price = rng.uniform(1.5, 900.0)
        rows.append(
            (
                tid,
                rng.randint(1, customer_count),
                rng.randint(1, product_count),
                quantity,
                round(quantity * unit_price, 2),
                base_date + datetime.timedelta(days=rng.randint(0, 364)),
            )
        )
    return rows


def create_star_schema(
    connection: Connection,
    customers: int = 500,
    products: int = 100,
    transactions: int = 5000,
    seed: int = 7,
    accelerate: bool = True,
    batch: int = 1000,
) -> StarSchemaData:
    """Create and populate the star schema through plain SQL.

    With ``accelerate=True`` all three tables get accelerator copies
    afterwards (the standard IDAA setup for reporting workloads).
    """
    connection.execute(CUSTOMER_DDL)
    connection.execute(PRODUCT_DDL)
    connection.execute(TRANSACTION_DDL)
    _bulk_insert(connection, "CUSTOMERS", generate_customers(customers, seed), batch)
    _bulk_insert(connection, "PRODUCTS", generate_products(products, seed + 1), batch)
    _bulk_insert(
        connection,
        "TRANSACTIONS",
        generate_transactions(transactions, customers, products, seed + 2),
        batch,
    )
    if accelerate:
        system = connection.system
        for table in ("CUSTOMERS", "PRODUCTS", "TRANSACTIONS"):
            system.add_table_to_accelerator(table)
    return StarSchemaData(customers, products, transactions)


def _bulk_insert(
    connection: Connection, table: str, rows: list[tuple], batch: int
) -> None:
    for start in range(0, len(rows), batch):
        chunk = rows[start : start + batch]
        values = ", ".join(_render_row(row) for row in chunk)
        connection.execute(f"INSERT INTO {table} VALUES {values}")


def _render_row(row: tuple) -> str:
    parts = []
    for value in row:
        if value is None:
            parts.append("NULL")
        elif isinstance(value, str):
            escaped = value.replace("'", "''")
            parts.append(f"'{escaped}'")
        elif isinstance(value, datetime.date):
            # DATE columns coerce ISO strings on insert.
            parts.append(f"'{value.isoformat()}'")
        else:
            parts.append(repr(value))
    return "(" + ", ".join(parts) + ")"
