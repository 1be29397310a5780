"""SYSPROC administration procedures.

The real IDAA is administered through DB2 stored procedures
(ACCEL_ADD_TABLES, ACCEL_REMOVE_TABLES, ACCEL_LOAD_TABLES, ...); data
studio tooling just CALLs them. This module registers the equivalents so
the simulation is managed the same way:

* ``SYSPROC.ACCEL_ADD_TABLES('tables=T1;T2')`` — start acceleration
  (initial copy + replication registration);
* ``SYSPROC.ACCEL_REMOVE_TABLES('tables=T1')`` — stop acceleration;
* ``SYSPROC.ACCEL_LOAD_TABLES('tables=T1')`` — re-snapshot a stale copy
  (full reload, resetting the replication cursor for the table);
* ``SYSPROC.ACCEL_GET_TABLES_INFO('')`` — one log line per table with
  placement and row counts;
* ``SYSPROC.ACCEL_GROOM_TABLES('tables=T1')`` — reclaim deleted rows in
  accelerator storage (Netezza GROOM);
* ``SYSPROC.ACCEL_CONTROL_ACCELERATOR('action=replicate')`` — drain the
  replication backlog on demand; ``action=configure`` reconfigures the
  observability stack at runtime (trace retention, profiler on/off and
  retention, slow-query log threshold/capacity);
  ``action=kill_shard`` / ``action=rebuild_shard`` (with ``shard=N``)
  fail and rebuild one accelerator instance and ``action=rebalance``
  re-places every accelerated table under its current partition spec;
* ``SYSPROC.ACCEL_GET_HEALTH('')`` — accelerator health state, circuit
  breaker counters, replication backlog/staleness and retry totals,
  and one line per accelerator shard with its own circuit state and
  traffic counters;
* ``SYSPROC.ACCEL_GET_TRACE('trace=T000042')`` — retained statement
  traces rendered as indented span trees;
* ``SYSPROC.ACCEL_GET_PROFILE('profile=P000042')`` — retained
  per-operator execution profiles (``worst=N`` renders the worst
  mis-estimated operators from the cardinality-feedback store);
* ``SYSPROC.ACCEL_GET_METRICS('prefix=statement.')`` — the metrics
  registry flattened to ``name = value`` lines;
* ``SYSPROC.ACCEL_SET_WLM('enabled=on')`` — workload-manager runtime
  configuration: enable/disable, gate slot counts, queue wait bound,
  and service-class policy (priority/slots/queue depth/timeout/
  sheddability);
* ``SYSPROC.ACCEL_GET_WLM('')`` — the live WLM state: gates with
  slots-in-use and queue lengths, per-class admission counters, and
  statement-outcome totals (read-only, like ACCEL_GET_HEALTH);
* ``SYSPROC.ACCEL_GET_MODELS('')`` — one log line per trained model
  with kind, owner, training volume, and quality metrics (read-only);
* ``SYSPROC.ACCEL_CHECKPOINT('')`` — write a durable replication
  checkpoint (cursor, table images, watermarks, lineage epochs);
* ``SYSPROC.ACCEL_RECOVER('')`` — restart resync: restore the newest
  valid checkpoint, replay the changelog suffix, full-reload what the
  checkpoint cannot cover, rebuild stale AOTs.

All of them require administrator authority (SYSADM), mirroring the
production requirement that accelerator administration is a privileged
operation.
"""

from __future__ import annotations

from repro.analytics.framework import Procedure, ProcedureContext, ProcedureRegistry
from repro.errors import AuthorizationError, ProcedureError, UnknownObjectError
from repro.sql.stats import DEFAULT_HISTOGRAM_BINS
from repro.wlm import ServiceClass

__all__ = ["register_admin_procedures"]


def _require_admin(ctx: ProcedureContext) -> None:
    if not ctx.connection.user.is_admin:
        raise AuthorizationError(
            "accelerator administration requires SYSADM authority"
        )


def _table_list(ctx: ProcedureContext) -> list[str]:
    tables = ctx.column_list("tables")
    if not tables:
        raise ProcedureError("missing required parameter 'tables'")
    return tables


def _accel_add_tables(ctx: ProcedureContext) -> str:
    _require_admin(ctx)
    copied = 0
    for table in _table_list(ctx):
        rows = ctx.system.add_table_to_accelerator(table)
        ctx.log(f"{table}: {rows} rows copied")
        copied += rows
    return f"ACCEL_ADD_TABLES ok: {copied} rows copied"


def _accel_remove_tables(ctx: ProcedureContext) -> str:
    _require_admin(ctx)
    for table in _table_list(ctx):
        ctx.system.remove_table_from_accelerator(table)
        ctx.log(f"{table}: acceleration removed")
    return "ACCEL_REMOVE_TABLES ok"


def _accel_load_tables(ctx: ProcedureContext) -> str:
    _require_admin(ctx)
    reloaded = 0
    for table in _table_list(ctx):
        rows = ctx.system.reload_accelerated_table(table)
        ctx.log(f"{table}: reloaded {rows} rows")
        reloaded += rows
    return f"ACCEL_LOAD_TABLES ok: {reloaded} rows"


def _accel_get_tables_info(ctx: ProcedureContext) -> str:
    system = ctx.system
    count = 0
    for descriptor in system.catalog.tables():
        db2_rows = (
            system.db2.storage_for(descriptor.name).row_count
            if system.db2.has_storage(descriptor.name)
            else None
        )
        accel_rows = (
            system.accelerator.storage_for(descriptor.name).row_count
            if system.accelerator.has_storage(descriptor.name)
            else None
        )
        ctx.log(
            f"{descriptor.name}: location={descriptor.location.value} "
            f"owner={descriptor.owner} db2_rows={db2_rows} "
            f"accel_rows={accel_rows}"
        )
        count += 1
    return f"ACCEL_GET_TABLES_INFO: {count} tables"


def _accel_groom_tables(ctx: ProcedureContext) -> str:
    _require_admin(ctx)
    reclaimed = 0
    for table in _table_list(ctx):
        stats = ctx.system.accelerator.groom(table)
        ctx.log(
            f"{table}: reclaimed {stats.rows_reclaimed} rows, "
            f"{stats.chunks_before} -> {stats.chunks_after} chunks"
        )
        reclaimed += stats.rows_reclaimed
    return f"ACCEL_GROOM_TABLES ok: {reclaimed} rows reclaimed"


def _accel_runstats(ctx: ProcedureContext) -> str:
    """RUNSTATS analogue: full-scan statistics for the cost-based
    optimizer. ``tables=`` limits collection (default: every stored
    table); ``bins=`` sets the equi-width histogram resolution."""
    _require_admin(ctx)
    tables = ctx.column_list("tables")
    bins = ctx.get_int("bins", DEFAULT_HISTOGRAM_BINS)
    if bins < 1:
        raise ProcedureError("'bins' must be >= 1")
    try:
        collected = ctx.system.run_statistics(tables, bins=bins)
    except UnknownObjectError as exc:
        raise ProcedureError(str(exc)) from None
    for name in collected:
        stats = ctx.system.stats.table(name)
        columns = len(stats.columns) if stats is not None else 0
        rows = stats.row_count if stats is not None else 0
        ctx.log(f"{name}: {rows} rows, {columns} columns profiled")
    return f"ACCEL_RUNSTATS ok: {len(collected)} tables"


def _accel_control_configure(ctx: ProcedureContext) -> str:
    """``action=configure`` — observability runtime configuration.

    Accepted parameters (combine freely):

    * ``trace_retention=N`` — resize the trace ring buffer (>= 1);
    * ``profiling=on|off`` — enable/disable the per-operator profiler;
    * ``profile_retention=N`` — resize the retained-profile ring (>= 1);
    * ``slow_threshold=SECONDS`` — slow-query log threshold (>= 0;
      0 captures every statement);
    * ``slow_capacity=N`` — slow-query log ring size (>= 1).
    """
    system = ctx.system
    changed: list[str] = []

    trace_retention = ctx.get_int("trace_retention")
    if trace_retention is not None:
        try:
            system.tracer.set_retention(trace_retention)
        except ValueError as exc:
            raise ProcedureError(str(exc)) from None
        changed.append(f"trace_retention={trace_retention}")

    profiling = ctx.get("profiling")
    if profiling is not None:
        system.profiler.enabled = _parse_flag(profiling, "profiling")
        changed.append(
            f"profiling={'on' if system.profiler.enabled else 'off'}"
        )

    profile_retention = ctx.get_int("profile_retention")
    if profile_retention is not None:
        try:
            system.profiler.set_retention(profile_retention)
        except ValueError as exc:
            raise ProcedureError(str(exc)) from None
        changed.append(f"profile_retention={profile_retention}")

    slow_threshold = ctx.get_float("slow_threshold")
    if slow_threshold is not None:
        try:
            system.profiler.slow_log.set_threshold(slow_threshold)
        except ValueError as exc:
            raise ProcedureError(str(exc)) from None
        changed.append(f"slow_threshold={slow_threshold:g}s")

    slow_capacity = ctx.get_int("slow_capacity")
    if slow_capacity is not None:
        try:
            system.profiler.slow_log.set_capacity(slow_capacity)
        except ValueError as exc:
            raise ProcedureError(str(exc)) from None
        changed.append(f"slow_capacity={slow_capacity}")

    if not changed:
        raise ProcedureError(
            "action=configure requires at least one of trace_retention=, "
            "profiling=, profile_retention=, slow_threshold=, slow_capacity="
        )
    for entry in changed:
        ctx.log(entry)
    return f"ACCEL_CONTROL_ACCELERATOR ok: {len(changed)} settings changed"


def _accel_control(ctx: ProcedureContext) -> str:
    _require_admin(ctx)
    action = (ctx.get("action") or "").lower()
    if action == "replicate":
        applied = ctx.system.replication.drain()
        return f"ACCEL_CONTROL_ACCELERATOR ok: {applied} changes applied"
    if action == "trim":
        dropped = ctx.system.recovery.trim_changelog()
        oldest = ctx.system.db2.change_log.oldest_lsn
        ctx.log(f"changelog trimmed: {dropped} records, oldest_lsn={oldest}")
        return f"ACCEL_CONTROL_ACCELERATOR ok: {dropped} records trimmed"
    if action == "status":
        backlog = ctx.system.replication.backlog
        stats = ctx.system.movement_snapshot()
        ctx.log(f"replication backlog: {backlog} records")
        ctx.log(
            f"interconnect: {stats.bytes_to_accelerator} bytes out, "
            f"{stats.bytes_from_accelerator} bytes back"
        )
        return "ACCEL_CONTROL_ACCELERATOR ok: status reported"
    if action == "configure":
        return _accel_control_configure(ctx)
    if action in ("kill_shard", "rebuild_shard", "rebalance"):
        return _accel_control_shards(ctx, action)
    raise ProcedureError(
        f"unknown action {action!r} "
        "(expected replicate, trim, status, configure, kill_shard, "
        "rebuild_shard, or rebalance)"
    )


def _accel_control_shards(ctx: ProcedureContext, action: str) -> str:
    """Shard lifecycle: fail one instance, rebuild it, rebalance."""
    accelerator = ctx.system.accelerator
    if action == "rebalance":
        moved = 0
        tables = 0
        for descriptor in ctx.system.catalog.tables():
            if not descriptor.is_accelerated:
                continue
            if not accelerator.has_storage(descriptor.name):
                continue
            spec = accelerator.storage_for(descriptor.name).map.spec
            moved += accelerator.redistribute(descriptor.name, spec)
            tables += 1
            ctx.log(f"{descriptor.name}: rebalanced under {spec.method}")
        return (
            f"ACCEL_CONTROL_ACCELERATOR ok: {tables} tables rebalanced "
            f"({moved} rows placed)"
        )
    shard_id = ctx.get_int("shard")
    if shard_id is None:
        raise ProcedureError(f"action={action} requires 'shard='")
    if action == "kill_shard":
        lost = accelerator.kill_shard(shard_id)
        ctx.log(f"shard {shard_id} down: {lost} resident rows lost")
        return f"ACCEL_CONTROL_ACCELERATOR ok: shard {shard_id} killed"
    reloaded = ctx.system.rebuild_shard(shard_id)
    ctx.log(f"shard {shard_id} rebuilt: {reloaded} tables reloaded")
    return (
        f"ACCEL_CONTROL_ACCELERATOR ok: shard {shard_id} rebuilt "
        f"({reloaded} tables reloaded)"
    )


def _accel_get_health(ctx: ProcedureContext) -> str:
    """Accelerator availability, circuit-breaker and replication health.

    Read-only (like ACCEL_GET_TABLES_INFO): monitoring must work for
    non-admin sessions too.
    """
    system = ctx.system
    health = system.health
    ctx.log(
        f"accelerator: state={health.state.value} "
        f"consecutive_failures={health.consecutive_failures} "
        f"failures_total={health.failures_total} "
        f"successes_total={health.successes_total}"
    )
    ctx.log(
        f"circuit: opened={health.times_opened} closed={health.times_closed} "
        f"probes={health.probes_attempted} "
        f"rejected={health.requests_rejected} "
        f"cooldown={health.cooldown_seconds}s"
    )
    accelerator = system.accelerator
    for shard in accelerator.shard_list:
        circuit = shard.health
        state = circuit.state.value if shard.alive else "DOWN"
        link = shard.interconnect.snapshot()
        ctx.log(
            f"shard{shard.shard_id}: state={state} "
            f"rows={accelerator.shard_row_count(shard.shard_id)} "
            f"scans={shard.scans} "
            f"rows_scanned={shard.rows_scanned} "
            f"rows_written={shard.rows_written} "
            f"failures={circuit.failures_total} "
            f"opened={circuit.times_opened} "
            f"rejected={circuit.requests_rejected} "
            f"bytes_out={link.bytes_to_accelerator} "
            f"bytes_back={link.bytes_from_accelerator}"
        )
    stats = system.replication.stats()
    ctx.log(
        f"replication: backlog={stats.backlog} records "
        f"(cursor_lsn={stats.cursor_lsn} head_lsn={stats.head_lsn}) "
        f"applied={stats.records_applied} retries={stats.retries} "
        f"abandoned={stats.batches_abandoned} "
        f"skipped_drains={stats.drains_skipped_offline} "
        f"backoff={stats.simulated_backoff_seconds * 1000:.1f}ms"
    )
    recovery = system.recovery
    age = recovery.last_checkpoint_age_seconds()
    ctx.log(
        "recovery: last_checkpoint="
        + (
            f"#{recovery.last_checkpoint_id} age={age:.1f}s"
            if recovery.last_checkpoint_id is not None
            else "none"
        )
        + f" retained={len(recovery.checkpoint_ids())}"
        + f" replay_lag={recovery.replay_lag_records()} records"
        + f" recoveries={recovery.recoveries}"
    )
    ctx.log(
        f"failbacks={system.failbacks} "
        f"faults_injected={system.faults.total_injected} "
        f"link_sends_failed={system.interconnect.sends_failed}"
    )
    return f"ACCEL_GET_HEALTH: {health.state.value}"


def _accel_get_trace(ctx: ProcedureContext) -> str:
    """Render retained statement traces as indented span trees.

    ``trace=T000042`` selects one trace by id; otherwise the newest
    ``limit`` (default 5) traces are rendered. Read-only, like
    ACCEL_GET_HEALTH — tracing must be inspectable from any session.
    """
    tracer = ctx.system.tracer
    if not tracer.enabled:
        ctx.log("tracing is disabled")
    trace_id = ctx.get("trace")
    if trace_id:
        trace = tracer.find(trace_id)
        if trace is None:
            raise ProcedureError(f"no retained trace {trace_id!r}")
        traces = [trace]
    else:
        limit = ctx.get_int("limit", 5)
        traces = tracer.traces()[-limit:]
    for trace in traces:
        ctx.log(
            f"{trace.trace_id} {trace.name} "
            f"{trace.elapsed_seconds * 1000:.3f}ms "
            f"({len(trace.spans)} spans)"
        )
        for line in trace.render():
            ctx.log(f"  {line}")
    return f"ACCEL_GET_TRACE: {len(traces)} traces"


def _accel_get_profile(ctx: ProcedureContext) -> str:
    """Render retained per-operator execution profiles.

    ``profile=P000042`` selects one profile by id; ``worst=N`` instead
    renders the N worst mis-estimated operators from the
    cardinality-feedback store; otherwise the newest ``limit`` (default
    5) profiles are rendered. Read-only, like ACCEL_GET_TRACE.
    """
    profiler = ctx.system.profiler
    if not profiler.enabled:
        ctx.log("profiling is disabled")
    worst = ctx.get_int("worst")
    if worst is not None:
        if worst < 1:
            raise ProcedureError("'worst' must be >= 1")
        entries = profiler.feedback.worst(worst)
        for entry in entries:
            ctx.log(
                f"{entry.operator} [{entry.detail}] path={entry.path} "
                f"engine={entry.engine} mean_q={entry.mean_q_error:.2f} "
                f"max_q={entry.q_error_max:.2f} "
                f"executions={entry.executions} "
                f"last est={entry.last_estimated} act={entry.last_actual}"
            )
        return f"ACCEL_GET_PROFILE: {len(entries)} feedback entries"
    profile_id = ctx.get("profile")
    if profile_id:
        profile = profiler.find(profile_id)
        if profile is None:
            raise ProcedureError(f"no retained profile {profile_id!r}")
        profiles = [profile]
    else:
        limit = ctx.get_int("limit", 5)
        profiles = profiler.profiles()[-limit:]
    for profile in profiles:
        for line in profile.render():
            ctx.log(line)
    return f"ACCEL_GET_PROFILE: {len(profiles)} profiles"


def _accel_get_metrics(ctx: ProcedureContext) -> str:
    """Dump the metrics registry (optionally ``prefix=``-filtered).

    One ``name = value`` log line per metric, flattened across owned
    instruments and registered sources. Read-only.
    """
    prefix = ctx.get("prefix") or ""
    metrics = ctx.system.metrics.collect()
    matched = 0
    for name, value in sorted(metrics.items()):
        if prefix and not name.startswith(prefix):
            continue
        if isinstance(value, float):
            ctx.log(f"{name} = {value:.6f}")
        else:
            ctx.log(f"{name} = {value}")
        matched += 1
    return f"ACCEL_GET_METRICS: {matched} metrics"


_FLAGS_TRUE = ("on", "true", "1", "y", "yes")
_FLAGS_FALSE = ("off", "false", "0", "n", "no")


def _parse_flag(value: str, param: str) -> bool:
    flag = value.strip().lower()
    if flag in _FLAGS_TRUE:
        return True
    if flag in _FLAGS_FALSE:
        return False
    raise ProcedureError(f"parameter '{param}' must be on or off, got {value!r}")


def _accel_set_wlm(ctx: ProcedureContext) -> str:
    """Reconfigure the workload manager at runtime (SYSADM only).

    Accepted parameters (combine freely, class and engine changes are
    independent):

    * ``enabled=on|off`` — master switch;
    * ``engine=DB2|ACCELERATOR, slots=N`` — resize that gate's slot pool
      (queued waiters are re-examined immediately);
    * ``max_wait=SECONDS`` — bound on admission queueing for both gates;
    * ``class=NAME`` plus any of ``priority=``, ``class_slots=``,
      ``queue_depth=``, ``timeout=`` (seconds, ``none`` clears),
      ``sheddable=on|off`` — update (or, with enough fields, define)
      a service class.
    """
    _require_admin(ctx)
    wlm = ctx.system.wlm
    changed: list[str] = []

    enabled = ctx.get("enabled")
    if enabled is not None:
        wlm.set_enabled(_parse_flag(enabled, "enabled"))
        changed.append(f"enabled={'on' if wlm.enabled else 'off'}")

    engine = ctx.get("engine")
    if engine is not None:
        slots = ctx.get_int("slots")
        if slots is None:
            raise ProcedureError("'engine=' requires 'slots='")
        try:
            wlm.resize_gate(engine, slots)
        except KeyError:
            raise ProcedureError(
                f"unknown engine {engine!r} (expected DB2 or ACCELERATOR)"
            ) from None
        except ValueError as exc:
            raise ProcedureError(str(exc)) from None
        changed.append(f"{engine.upper()} gate slots={slots}")

    max_wait = ctx.get_float("max_wait")
    if max_wait is not None:
        if max_wait <= 0:
            raise ProcedureError("'max_wait' must be positive seconds")
        for gate in wlm.gates.values():
            gate.max_wait_seconds = max_wait
        changed.append(f"max_wait={max_wait:g}s")

    class_name = ctx.get("class")
    if class_name is not None:
        changes: dict = {}
        if ctx.get("priority") is not None:
            changes["priority"] = ctx.get_int("priority")
        if ctx.get("class_slots") is not None:
            changes["concurrency_slots"] = ctx.get_int("class_slots")
        if ctx.get("queue_depth") is not None:
            changes["queue_depth"] = ctx.get_int("queue_depth")
        timeout = ctx.get("timeout")
        if timeout is not None:
            if timeout.strip().lower() in ("none", "null", "0"):
                changes["default_timeout_seconds"] = None
            else:
                changes["default_timeout_seconds"] = ctx.get_float("timeout")
        sheddable = ctx.get("sheddable")
        if sheddable is not None:
            changes["sheddable"] = _parse_flag(sheddable, "sheddable")
        if not changes:
            raise ProcedureError(
                "'class=' requires at least one of priority/class_slots/"
                "queue_depth/timeout/sheddable"
            )
        try:
            if wlm.classes.has(class_name):
                cls = wlm.classes.update(class_name, **changes)
            else:
                cls = wlm.classes.define(
                    ServiceClass(
                        name=class_name,
                        priority=changes.get("priority", 9),
                        concurrency_slots=changes.get("concurrency_slots", 2),
                        queue_depth=changes.get("queue_depth", 16),
                        default_timeout_seconds=changes.get(
                            "default_timeout_seconds"
                        ),
                        sheddable=changes.get("sheddable", False),
                    )
                )
        except ValueError as exc:
            raise ProcedureError(str(exc)) from None
        changed.append(
            f"class {cls.name}: priority={cls.priority} "
            f"slots={cls.concurrency_slots} queue_depth={cls.queue_depth} "
            f"timeout={cls.default_timeout_seconds} "
            f"sheddable={'Y' if cls.sheddable else 'N'}"
        )

    if not changed:
        raise ProcedureError(
            "nothing to change: pass enabled=, engine=+slots=, max_wait=, "
            "or class=..."
        )
    for entry in changed:
        ctx.log(entry)
    return f"ACCEL_SET_WLM ok: {len(changed)} changes"


def _accel_get_wlm(ctx: ProcedureContext) -> str:
    """Live workload-manager state. Read-only: monitoring must work for
    non-admin sessions even while their own statements are being shed.
    """
    wlm = ctx.system.wlm
    ctx.log(
        f"wlm: enabled={'on' if wlm.enabled else 'off'} "
        f"cheap_rows={wlm.cheap_rows} heavy_rows={wlm.heavy_rows} "
        f"timed_out={wlm.statements_timed_out} "
        f"cancelled={wlm.statements_cancelled} shed={wlm.statements_shed}"
    )
    for engine, gate in sorted(wlm.gates.items()):
        snap = gate.snapshot()
        ctx.log(
            f"{engine}: slots={snap['slots_in_use']}/{snap['slots_total']} "
            f"queued={snap['queued']} admitted={snap['admitted']} "
            f"bypassed={snap['bypassed']} shed={snap['shed']} "
            f"queue_timeouts={snap['queue_timeouts']} "
            f"max_wait={gate.max_wait_seconds:g}s"
        )
        stats_by_class = gate.class_stats()
        for cls in wlm.classes:
            stats = stats_by_class.get(cls.name)
            if stats is None:
                continue
            ctx.log(
                f"{engine}.{cls.name}: running={stats.running} "
                f"queued={stats.queued} admitted={stats.admitted} "
                f"bypassed={stats.bypassed} shed={stats.shed} "
                f"wait_ms={stats.wait_seconds_total * 1000:.1f}"
            )
    shed = wlm.shedder.snapshot()
    ctx.log(
        f"shedder: queue_pressure={shed['shed_queue_pressure']} "
        f"circuit_open={shed['shed_circuit_open']} "
        f"high_water={wlm.shedder.queue_high_water:g}x"
    )
    return f"ACCEL_GET_WLM: enabled={'on' if wlm.enabled else 'off'}"


def _accel_get_models(ctx: ProcedureContext) -> str:
    """Inventory of trained models. Read-only: monitoring must work for
    any session, so no SYSADM check (mirrors ACCEL_GET_WLM).
    """
    store = ctx.system.models
    names = store.names()
    for name in names:
        model = store.get(name)
        target = model.target if model.target else "-"
        metrics = "; ".join(
            f"{key}={value}" for key, value in sorted(model.metrics.items())
        )
        ctx.log(
            f"{model.name}: kind={model.kind} owner={model.owner} "
            f"target={target} features={','.join(model.features)} "
            f"rows={model.rows_trained} epochs={model.epochs_trained} "
            f"generation={model.generation} "
            f"trained_generation={model.trained_generation}"
            + (f" metrics[{metrics}]" if metrics else "")
        )
    return f"ACCEL_GET_MODELS: {len(names)} models"


def _accel_checkpoint(ctx: ProcedureContext) -> str:
    """Write a durable replication checkpoint (SYSADM only)."""
    _require_admin(ctx)
    result = ctx.system.recovery.checkpoint()
    ctx.log(
        f"checkpoint #{result.checkpoint_id}: cursor_lsn={result.cursor_lsn} "
        f"tables={result.tables} rows={result.rows} "
        f"bytes={result.bytes_written}"
    )
    return f"ACCEL_CHECKPOINT ok: #{result.checkpoint_id}"


def _accel_recover(ctx: ProcedureContext) -> str:
    """Restart resync from the newest valid checkpoint (SYSADM only).

    Meant for a freshly restarted (empty) accelerator; running it against
    a healthy one is wasteful but safe — restores are idempotent and the
    replay is deduplicated by the applied-LSN watermarks.
    """
    _require_admin(ctx)
    result = ctx.system.recovery.recover()
    source = (
        f"checkpoint #{result.checkpoint_id}"
        if result.checkpoint_id is not None
        else "no checkpoint (full reloads)"
    )
    ctx.log(
        f"recovered from {source}: tables_restored={result.tables_restored} "
        f"rows_restored={result.rows_restored} "
        f"records_replayed={result.records_replayed} "
        f"full_reloads={result.full_reloads} "
        f"aots_rebuilt={result.aots_rebuilt} aots_lost={result.aots_lost} "
        f"resync_bytes_saved={result.resync_bytes_saved} "
        f"corrupt_skipped={result.corrupt_skipped}"
    )
    return f"ACCEL_RECOVER ok: {source}"


def _accel_get_query_history(ctx: ProcedureContext) -> str:
    limit = ctx.get_int("limit", 20)
    history = list(ctx.system.statement_history)[-limit:]
    for record in history:
        ctx.log(
            f"{record.user} {record.statement_type:<12} "
            f"{record.engine:<12} {record.elapsed_seconds * 1000:9.2f}ms "
            f"rows={record.rowcount}"
        )
    return f"ACCEL_GET_QUERY_HISTORY: {len(history)} statements"


def register_admin_procedures(registry: ProcedureRegistry) -> None:
    for name, handler, description in (
        ("SYSPROC.ACCEL_ADD_TABLES", _accel_add_tables,
         "start accelerating DB2 tables"),
        ("SYSPROC.ACCEL_REMOVE_TABLES", _accel_remove_tables,
         "stop accelerating tables"),
        ("SYSPROC.ACCEL_LOAD_TABLES", _accel_load_tables,
         "re-snapshot accelerated copies"),
        ("SYSPROC.ACCEL_GET_TABLES_INFO", _accel_get_tables_info,
         "list table placement and sizes"),
        ("SYSPROC.ACCEL_GROOM_TABLES", _accel_groom_tables,
         "reclaim deleted rows in accelerator storage"),
        ("SYSPROC.ACCEL_RUNSTATS", _accel_runstats,
         "collect table/column statistics for the cost-based optimizer"),
        ("SYSPROC.ACCEL_CONTROL_ACCELERATOR", _accel_control,
         "replication drain / status"),
        ("SYSPROC.ACCEL_GET_HEALTH", _accel_get_health,
         "accelerator health, circuit breaker, and replication backlog"),
        ("SYSPROC.ACCEL_GET_QUERY_HISTORY", _accel_get_query_history,
         "recent statements with engine and latency"),
        ("SYSPROC.ACCEL_GET_TRACE", _accel_get_trace,
         "render retained statement traces as span trees"),
        ("SYSPROC.ACCEL_GET_PROFILE", _accel_get_profile,
         "render retained per-operator execution profiles"),
        ("SYSPROC.ACCEL_GET_METRICS", _accel_get_metrics,
         "dump the metrics registry (counters/gauges/histograms/sources)"),
        ("SYSPROC.ACCEL_SET_WLM", _accel_set_wlm,
         "configure the workload manager (enable, slots, service classes)"),
        ("SYSPROC.ACCEL_GET_WLM", _accel_get_wlm,
         "live workload-manager gates, classes, and shed counters"),
        ("SYSPROC.ACCEL_GET_MODELS", _accel_get_models,
         "inventory of trained models with training volume and metrics"),
        ("SYSPROC.ACCEL_CHECKPOINT", _accel_checkpoint,
         "write a durable replication checkpoint"),
        ("SYSPROC.ACCEL_RECOVER", _accel_recover,
         "restart resync from the newest valid checkpoint"),
    ):
        registry.register(
            Procedure(
                name=name,
                handler=handler,
                description=description,
                input_params=(),
                output_params=(),
            )
        )
