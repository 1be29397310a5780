"""Deterministic fault injection for the federation layer.

The real IDAA federation has to survive a misbehaving appliance and a
flaky private network; this module lets experiments *cause* those
conditions on demand. A single :class:`FaultInjector` is owned by the
:class:`~repro.federation.database.AcceleratedDatabase` and consulted from
the instrumented entry points (``Interconnect.send_*`` and the
``AcceleratorEngine`` read/write paths). Faults fire

* by **probability** (seeded RNG, so a fixed seed gives a fixed fault
  sequence),
* by **call-count schedule** (e.g. "calls 5 through 9 fail" — an exact,
  reproducible outage window), or
* unconditionally inside a scoped **context manager**
  (:meth:`FaultInjector.forced`).

Three fault kinds exist: ``error`` raises :class:`~repro.errors.LinkError`
(a transient drop), ``crash`` raises
:class:`~repro.errors.AcceleratorCrashError` (the appliance is gone until
the rule is cleared), and ``latency`` silently inflates the simulated
transfer time instead of raising.

**Crash points** (recovery testing) are named code locations that the
federation consults via :meth:`FaultInjector.crash_point` at the moments
where a real appliance crash would be most damaging: mid replication
batch, mid checkpoint write, mid DDL, mid AOT build, and after a commit
but before the client is acked. Arming one
(:meth:`FaultInjector.arm_crash_point`) installs a ``crash`` rule at the
site ``crashpoint.<name>`` that raises
:class:`~repro.errors.InjectedCrashError`; the recovery harness uses the
raise as its cue to kill and restart the accelerator.
"""

from __future__ import annotations

import itertools
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.errors import AcceleratorCrashError, InjectedCrashError, LinkError

__all__ = [
    "FaultInjector",
    "FaultRule",
    "FAULT_KINDS",
    "CRASH_POINTS",
]

FAULT_KINDS = ("error", "crash", "latency")

#: Named crash points consulted by the federation's recovery-critical
#: code paths. Each maps to fault site ``crashpoint.<name>``.
CRASH_POINTS = (
    # Between shipping a table sub-batch over the interconnect and
    # acknowledging it — the classic partially-applied-batch crash.
    "replication.mid_batch",
    # While the checkpoint frame is being written — exercises torn-write
    # detection on restore.
    "checkpoint.mid_write",
    # During ADD TABLE TO ACCELERATOR, after accelerator storage exists
    # but before the initial copy finished.
    "ddl.mid_accelerate",
    # During an accelerator-only CTAS populate — the AOT is lost and must
    # be rebuilt from its registered source query.
    "aot.mid_build",
    # After DB2 committed but before the commit-time auto-drain ran: DB2
    # is ahead of the accelerator by exactly one transaction.
    "commit.post_commit_pre_ack",
)

_DEFAULT_ERRORS: dict[str, Callable[[str], Exception]] = {
    "error": lambda site: LinkError(f"injected link error at {site}"),
    "crash": lambda site: AcceleratorCrashError(
        f"injected accelerator crash at {site}"
    ),
}

_rule_ids = itertools.count(1)


@dataclass
class FaultRule:
    """One armed fault. Inactive rules are skipped and can be re-armed."""

    site: str
    kind: str = "error"
    #: Fire with this probability per call (None = fire on every call
    #: unless a schedule is given).
    probability: Optional[float] = None
    #: Fire only on these 1-based call indexes of the site.
    schedule: Optional[frozenset[int]] = None
    #: Fire at most this many times, then deactivate (None = unlimited).
    remaining: Optional[int] = None
    #: For ``latency`` rules: simulated seconds added per firing.
    latency_seconds: float = 0.0
    #: Override the raised exception (receives the site name).
    error_factory: Optional[Callable[[str], Exception]] = None
    active: bool = True
    fired: int = 0
    rule_id: int = field(default_factory=lambda: next(_rule_ids))

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (expected one of "
                f"{', '.join(FAULT_KINDS)})"
            )
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ValueError("fault probability must be within [0, 1]")

    def make_error(self) -> Exception:
        if self.error_factory is not None:
            return self.error_factory(self.site)
        return _DEFAULT_ERRORS[self.kind](self.site)


class FaultInjector:
    """Seeded registry of fault rules, consulted per instrumented call.

    ``check(site)`` increments the site's call counter, evaluates every
    active rule for that site in registration order, and either raises
    (``error``/``crash`` rules) or returns the extra simulated latency to
    charge (``latency`` rules). With a fixed seed and a fixed call
    sequence the injected faults are fully deterministic.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self._rules: list[FaultRule] = []
        #: Per-site number of ``check`` calls (1-based indexes for rules).
        self.calls: dict[str, int] = {}
        #: Per-site number of faults that actually fired.
        self.injected: dict[str, int] = {}

    # -- rule management ---------------------------------------------------------

    def add(
        self,
        site: str,
        kind: str = "error",
        probability: Optional[float] = None,
        schedule: Optional[Iterator[int]] = None,
        count: Optional[int] = None,
        latency_seconds: float = 0.0,
        error_factory: Optional[Callable[[str], Exception]] = None,
    ) -> FaultRule:
        """Arm a fault rule and return it (keep it to remove it later)."""
        rule = FaultRule(
            site=site,
            kind=kind,
            probability=probability,
            schedule=frozenset(schedule) if schedule is not None else None,
            remaining=count,
            latency_seconds=latency_seconds,
            error_factory=error_factory,
        )
        self._rules.append(rule)
        return rule

    def remove(self, rule: FaultRule) -> None:
        self._rules = [r for r in self._rules if r.rule_id != rule.rule_id]

    def clear(self, site: Optional[str] = None) -> None:
        """Disarm every rule (or every rule for one site)."""
        if site is None:
            self._rules = []
        else:
            self._rules = [r for r in self._rules if r.site != site]

    @contextmanager
    def forced(self, site: str, kind: str = "error", **kwargs):
        """Scoped outage: the rule fires on every call inside the block."""
        rule = self.add(site, kind=kind, **kwargs)
        try:
            yield rule
        finally:
            self.remove(rule)

    def rules(self, site: Optional[str] = None) -> list[FaultRule]:
        if site is None:
            return list(self._rules)
        return [r for r in self._rules if r.site == site]

    # -- crash points ------------------------------------------------------------

    @staticmethod
    def crash_site(name: str) -> str:
        if name not in CRASH_POINTS:
            raise ValueError(
                f"unknown crash point {name!r} (expected one of "
                f"{', '.join(CRASH_POINTS)})"
            )
        return f"crashpoint.{name}"

    def arm_crash_point(
        self,
        name: str,
        schedule: Optional[Iterator[int]] = None,
        count: Optional[int] = None,
    ) -> FaultRule:
        """Arm a named crash point; the rule raises ``InjectedCrashError``.

        By default the rule stays armed (every hit crashes) until cleared
        by :meth:`clear_crash_points` — matching a dead appliance, which
        keeps failing retries until it is restarted. ``schedule``/``count``
        narrow the firing window for precise scenarios.
        """
        return self.add(
            self.crash_site(name),
            kind="crash",
            schedule=schedule,
            count=count,
            error_factory=lambda site: InjectedCrashError(
                f"injected crash at {site}"
            ),
        )

    def crash_point(self, name: str) -> None:
        """Consult a named crash point (no-op unless armed)."""
        self.check(self.crash_site(name))

    def clear_crash_points(self) -> None:
        """Disarm every crash-point rule (the kill step of kill/restart)."""
        prefix = "crashpoint."
        self._rules = [
            r for r in self._rules if not r.site.startswith(prefix)
        ]

    def armed_crash_points(self) -> list[str]:
        prefix = "crashpoint."
        return sorted(
            {
                r.site[len(prefix):]
                for r in self._rules
                if r.active and r.site.startswith(prefix)
            }
        )

    # -- evaluation --------------------------------------------------------------

    def check(self, site: str) -> float:
        """Evaluate ``site``'s rules; raise on a hit, return extra latency."""
        call_index = self.calls.get(site, 0) + 1
        self.calls[site] = call_index
        extra_latency = 0.0
        for rule in self._rules:
            if not rule.active or rule.site != site:
                continue
            if rule.schedule is not None:
                if call_index not in rule.schedule:
                    continue
            elif rule.probability is not None:
                if self._rng.random() >= rule.probability:
                    continue
            rule.fired += 1
            if rule.remaining is not None:
                rule.remaining -= 1
                if rule.remaining <= 0:
                    rule.active = False
            self.injected[site] = self.injected.get(site, 0) + 1
            if rule.kind == "latency":
                extra_latency += rule.latency_seconds
                continue
            raise rule.make_error()
        return extra_latency

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())
