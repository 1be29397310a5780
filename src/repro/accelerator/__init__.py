"""The simulated accelerator (Netezza-style columnar OLAP engine).

Chunked columnar storage with zone maps, vectorised query
execution over numpy, epoch-based MVCC snapshot isolation, and — the
paper's extension — transaction-scoped delta buffers that make a DB2
transaction's own uncommitted AOT changes visible to its queries.
"""

from repro.accelerator.engine import AcceleratorEngine
from repro.accelerator.deltas import DeltaBuffer
from repro.accelerator.vtable import VTable, columns_from_rows

__all__ = ["AcceleratorEngine", "DeltaBuffer", "VTable", "columns_from_rows"]
