"""Churn feature table with a learnable signal.

The label is generated from a logistic score over the features plus
noise, so classifiers can realistically beat the base rate and the mining
pipelines have something to find.
"""

from __future__ import annotations

import math
import random

from repro.federation.session import Connection

__all__ = ["CHURN_COLUMNS", "generate_churn_rows", "create_churn_table"]

CHURN_DDL = """
CREATE TABLE CHURN (
    CUST_ID INTEGER NOT NULL PRIMARY KEY,
    TENURE_MONTHS INTEGER NOT NULL,
    MONTHLY_CHARGES DOUBLE NOT NULL,
    TOTAL_CHARGES DOUBLE,
    SUPPORT_CALLS INTEGER NOT NULL,
    CONTRACT_MONTHS INTEGER NOT NULL,
    CHURNED INTEGER NOT NULL
)
"""

CHURN_COLUMNS = (
    "CUST_ID",
    "TENURE_MONTHS",
    "MONTHLY_CHARGES",
    "TOTAL_CHARGES",
    "SUPPORT_CALLS",
    "CONTRACT_MONTHS",
    "CHURNED",
)


def generate_churn_rows(
    count: int, seed: int = 29, null_fraction: float = 0.03
) -> list[tuple]:
    """Rows matching :data:`CHURN_COLUMNS`.

    ``TOTAL_CHARGES`` has a NULL fraction so imputation stages have
    something to do.
    """
    rng = random.Random(seed)
    rows = []
    for cust_id in range(1, count + 1):
        tenure = rng.randint(1, 72)
        monthly = round(rng.uniform(20.0, 120.0), 2)
        support_calls = rng.randint(0, 9)
        contract = rng.choice((1, 12, 24))
        total = round(monthly * tenure * rng.uniform(0.9, 1.1), 2)
        # Churn propensity: short tenure, high charges, many support
        # calls, and month-to-month contracts drive churn.
        score = (
            -0.05 * tenure
            + 0.025 * (monthly - 70.0)
            + 0.45 * support_calls
            - 0.06 * contract
            + rng.gauss(0.0, 0.8)
        )
        churned = 1 if 1.0 / (1.0 + math.exp(-score)) > 0.5 else 0
        rows.append(
            (
                cust_id,
                tenure,
                monthly,
                None if rng.random() < null_fraction else total,
                support_calls,
                contract,
                churned,
            )
        )
    return rows


def create_churn_table(
    connection: Connection,
    count: int = 2000,
    seed: int = 29,
    accelerate: bool = True,
    batch: int = 1000,
) -> int:
    """Create and populate CHURN; optionally add it to the accelerator."""
    connection.execute(CHURN_DDL)
    rows = generate_churn_rows(count, seed)
    for start in range(0, len(rows), batch):
        chunk = rows[start : start + batch]
        values = ", ".join(
            "("
            + ", ".join("NULL" if v is None else repr(v) for v in row)
            + ")"
            for row in chunk
        )
        connection.execute(f"INSERT INTO CHURN VALUES {values}")
    if accelerate:
        connection.system.add_table_to_accelerator("CHURN")
    return len(rows)
