"""The federation layer: one SQL interface over DB2 + accelerator.

This package implements the paper's architecture: the transparent query
router, the replication service that maintains accelerated snapshot
copies, the interconnect byte-accounting model, and the
:class:`AcceleratedDatabase` facade applications connect to. AOT DDL/DML
routing — the paper's core extension — lives in the statement pipeline
(:mod:`repro.federation.system`).

Fault tolerance lives here too: a deterministic fault injector
(:mod:`repro.federation.faults`), a circuit-breaker health monitor
(:mod:`repro.federation.health`), ``ENABLE WITH FAILBACK`` routing, and
resilient (retrying, exactly-once) replication.
"""

from repro.federation.faults import FaultInjector, FaultRule
from repro.federation.health import AcceleratorHealthState, HealthMonitor
from repro.federation.network import Interconnect
from repro.federation.replication import ReplicationService
from repro.federation.router import (
    AccelerationMode,
    QueryRouter,
    RoutingDecision,
)
from repro.federation.database import AcceleratedDatabase, accelerator_shards
from repro.federation.session import Connection

__all__ = [
    "AcceleratorHealthState",
    "AccelerationMode",
    "FaultInjector",
    "FaultRule",
    "HealthMonitor",
    "Interconnect",
    "ReplicationService",
    "QueryRouter",
    "RoutingDecision",
    "AcceleratedDatabase",
    "Connection",
    "accelerator_shards",
]
