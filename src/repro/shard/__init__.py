"""Accelerator scale-out: placement, fan-out execution, failover.

One accelerator appliance behind DB2 (the paper's deployment) caps scan
throughput at a single instance. The
:class:`~repro.accelerator.engine.AcceleratorEngine` therefore runs
``shards`` instances behind one interface — one by default:

* :mod:`repro.shard.placement` — catalog-backed partitioning specs
  (HASH / RANGE / RANDOM) with shard-map generations and partition-key
  shard pruning;
* :mod:`repro.shard.pool` — the per-shard health circuit, byte
  counters and fault site (:class:`AcceleratorShard`), and the
  :class:`ShardedTable` facade whose scans fan out per shard and merge
  back byte-identically at every shard count.
"""

from repro.shard.placement import (
    PartitionSpec,
    ShardMap,
    default_spec,
    range_boundaries,
)
from repro.shard.pool import (
    AcceleratorShard,
    PoolAdmissionHealth,
    ShardedTable,
)

__all__ = [
    "AcceleratorShard",
    "PartitionSpec",
    "PoolAdmissionHealth",
    "ShardMap",
    "ShardedTable",
    "default_spec",
    "range_boundaries",
]
