"""The traced run: per-layer metrics from spans around each layer boundary.

Every workload is driven in-process here (``decode`` -> ``FrontDoor.submit``
-> ``FrontDoor.drive_tick`` on the harness thread), at a third of the
untraced length, twice: once bare, once with the spans of :mod:`spans`
installed.  The difference between the two ``tick_p50_ms`` is the tracing
overhead.  Shard workers of the process backend are separate processes, so
the ``engine.server.*`` split exists on the thread backend only; a layer a
workload does not run reads 0.

Per-layer numbers are as measured (not scaled to reference host speed):
they are read against each other within one run, not across runs.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict
from typing import Dict, List

import lifecycle
import measure
import results
from spans import Span, SpanRecorder, self_seconds


def _store_identity(store, *args) -> int:
    return id(store)


#: (module, owner class or None, attribute, span name[, key]).  Module-level
#: names are wrapped in the namespace that *calls* them.  A key gives the
#: span the identity of the store it concerns, so a job's submit can be
#: paired with the store calls that serve it.
TARGETS = (
    ("repro.frontend.protocol", None, "decode", "protocol.decode"),
    ("repro.frontend.gateway", "FrontDoor", "submit", "frontdoor.submit"),
    ("repro.frontend.gateway", "FrontDoor", "drive_tick",
     "frontdoor.drive_tick"),
    ("repro.engine.fleet", "ShardFleet", "submit_commands",
     "fleet.submit_commands"),
    ("repro.engine.fleet", "ShardFleet", "try_run_ticks",
     "fleet.try_run_ticks"),
    ("repro.engine.fleet", "ShardFleet", "recover", "fleet.recover"),
    ("repro.engine.server", "DurableGameServer", "run_tick",
     "server.run_tick"),
    ("apps", "PlanCycleApp", "plan_tick_with_commands", "app.plan"),
    # The meter's poll runs inside drive_tick; its own span keeps it out of
    # the front door's self time.
    ("workloads", "TickMeter", "poll", "harness.poll"),
    ("repro.config", "StateGeometry", "cell_index", "geometry.cell_index"),
    ("repro.config", "StateGeometry", "object_of_cell",
     "geometry.object_of_cell"),
    ("numpy", None, "unique", "numpy.unique"),
    ("repro.core.framework", "CheckpointFramework", "process_updates",
     "framework.process_updates"),
    ("repro.core.framework", "CheckpointFramework", "end_of_tick",
     "framework.end_of_tick"),
    ("repro.engine.executor", "RealExecutor", "handle_updates",
     "executor.handle_updates"),
    ("repro.engine.executor", "RealExecutor", "copy_to_memory",
     "executor.copy_to_memory"),
    ("repro.state.table", "GameStateTable", "apply_updates",
     "table.apply_updates"),
    ("repro.storage.action_log", "ActionLog", "append", "action_log.append"),
    ("repro.engine.writer_pool", "PoolWriter", "submit", "pool.submit",
     lambda handle, job: id(handle.store)),
    ("repro.storage.double_backup", "DoubleBackupStore", "begin_checkpoint",
     "store.begin", _store_identity),
    ("repro.storage.checkpoint_log", "CheckpointLogStore", "begin_checkpoint",
     "store.begin", _store_identity),
    ("repro.storage.double_backup", "DoubleBackupStore",
     "write_checkpoint_vectored", "double_backup.write", _store_identity),
    ("repro.storage.checkpoint_log", "CheckpointLogStore",
     "write_checkpoint_vectored", "checkpoint_log.write", _store_identity),
    ("repro.storage.double_backup", None, "pwritev_all", "layout.pwritev"),
    ("repro.storage.checkpoint_log", None, "write_all", "layout.pwritev"),
    ("os", None, "fsync", "os.fsync"),
    ("repro.engine.recovery", "RecoveryManager", "recover",
     "recovery.recover"),
    ("repro.storage.double_backup", "DoubleBackupStore", "read_image",
     "double_backup.restore"),
    ("repro.storage.checkpoint_log", "CheckpointLogStore", "restore_image",
     "checkpoint_log.restore"),
)

#: A run whose calibration-kernel quartiles differ by more is flagged noisy.
NOISY_QUARTILE_RATIO = 1.5


def install(recorder: SpanRecorder) -> None:
    for target in TARGETS:
        recorder.wrap(*target)


def _ms(seconds: List[float]) -> List[float]:
    return [value * 1e3 for value in seconds]


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def per_layer(baseline: lifecycle.LifecycleResult,
              traced: lifecycle.LifecycleResult,
              threads: List[List[Span]], calibrator) -> Dict[str, float]:
    """Every per-layer metric of one traced run, by name."""
    serve, recovery = traced.serve, traced.recovery
    by_name: Dict[str, List[Span]] = defaultdict(list)
    own: Dict[str, List[float]] = defaultdict(list)
    #: Seconds of each (parent span name, child span name) pair.
    child_seconds: Dict[tuple, float] = defaultdict(float)
    fsync_by_parent: Dict[str, List[Span]] = defaultdict(list)
    for spans in threads:
        for span, mine in zip(spans, self_seconds(spans)):
            by_name[span.name].append(span)
            own[span.name].append(mine)
            parent = spans[span.parent].name if span.parent >= 0 else ""
            child_seconds[parent, span.name] += span.seconds
            if span.name == "os.fsync":
                fsync_by_parent[parent].append(span)

    def within(name: str, window) -> List[Span]:
        return [s for s in by_name[name] if window[0] <= s.start <= window[1]]

    def seconds(name: str, window=serve.window) -> List[float]:
        return [s.seconds for s in within(name, window)]

    # Warm-up ticks included: every run_tick span and what ran inside it.
    run_tick_total = sum(s.seconds for s in by_name["server.run_tick"])
    double_writes = within("double_backup.write", serve.window)
    log_writes = within("checkpoint_log.write", serve.window)
    checkpoints = max(1, len(double_writes) + len(log_writes))
    # Pair each submitted job with the store calls that served it.
    queue_wait, flush = [], []
    begins = sorted(by_name["store.begin"], key=lambda s: s.start)
    ends = sorted(by_name["double_backup.write"]
                  + by_name["checkpoint_log.write"], key=lambda s: s.start)
    for submit in within("pool.submit", serve.window):
        begin = next((b for b in begins if b.key == submit.key
                      and b.start >= submit.start), None)
        if begin is None:
            continue
        queue_wait.append(begin.start - submit.start)
        end = next((e for e in ends if e.key == submit.key
                    and e.start >= begin.start), None)
        if end is not None:
            flush.append(end.end - begin.start)
    checkpoint_fsyncs = [
        span for parent, spans in fsync_by_parent.items()
        if parent != "action_log.append"
        for span in spans if serve.window[0] <= span.start <= serve.window[1]
    ]
    pwritev = within("layout.pwritev", serve.window)
    # The last recovery's per-shard reports; a field a later change drops
    # reads 0.
    def reported(field: str) -> List[float]:
        return [float(getattr(r, field, 0.0)) for r in recovery.reports]

    restore_ms, replay_ms = _ms(reported("restore_seconds")), _ms(
        reported("replay_seconds"))
    recover_wall = _ms(seconds("fleet.recover", recovery.window))
    game_ms = [a + b for a, b in zip(restore_ms, replay_ms)]
    kernel = [ms for started, ms in calibrator.samples()
              if serve.window[0] <= started <= recovery.window[1]]
    kernel_q1, kernel_median, kernel_q3 = measure.quartiles(kernel)
    late = serve.ledger.lateness()
    acked = max(1, len(serve.ledger.latencies()))
    baseline_tick = statistics.median(baseline.serve.tick_seconds)
    traced_tick = statistics.median(serve.tick_seconds)

    return {
        "frontend.protocol.decode_us":
            _mean(seconds("protocol.decode")) * 1e6,
        "frontend.gateway.submit_us":
            _mean(seconds("frontdoor.submit")) * 1e6,
        "frontend.gateway.drive_self_ms":
            _median(_ms(own["frontdoor.drive_tick"])),
        "frontend.gateway.acks_per_cmd": serve.ledger.acks / acked,
        "frontend.gateway.rejects": float(serve.ledger.rejects),
        "engine.fleet.submit_commands_us":
            _mean(seconds("fleet.submit_commands")) * 1e6,
        "engine.fleet.run_tick_p50_ms":
            _median(_ms(seconds("fleet.try_run_ticks"))),
        "engine.fleet.run_tick_p99_ms": measure.tail(
            _ms(seconds("fleet.try_run_ticks")) or [0.0])["value"],
        "engine.fleet.ckpt_age_max_ticks": float(serve.max_age),
        "engine.server.run_tick_ms":
            _median(_ms(seconds("server.run_tick"))),
        "engine.server.tick_self_ms": _median(_ms(own["server.run_tick"])),
        # The app also plans inside recoveries and the oracle; only the
        # calls made from run_tick count against the tick.
        "app.plan_share": (
            child_seconds["server.run_tick", "app.plan"] / run_tick_total
            if run_tick_total else 0.0),
        "engine.executor.handle_updates_ms":
            _median(_ms(seconds("executor.handle_updates"))),
        "engine.executor.copy_to_memory_ms":
            _mean(_ms(seconds("executor.copy_to_memory"))),
        "state.table.apply_updates_ms":
            _median(_ms(seconds("table.apply_updates"))),
        "storage.action_log.append_us":
            _median(seconds("action_log.append")) * 1e6,
        "storage.action_log.bytes_per_tick":
            traced.action_log_bytes / max(1, serve.ticks_driven)
            / traced.spec.shards,
        "engine.writer_pool.queue_wait_ms": _median(_ms(queue_wait)),
        "engine.writer_pool.flush_ms": _median(_ms(flush)),
        "engine.writer_pool.jobs": float(len(queue_wait)),
        "storage.double_backup.write_ms":
            _median(_ms([s.seconds for s in double_writes])),
        "storage.checkpoint_log.write_ms":
            _median(_ms([s.seconds for s in log_writes])),
        "storage.double_backup.bytes_per_ckpt":
            _mean([s.result or 0.0 for s in double_writes]),
        "storage.checkpoint_log.bytes_per_ckpt":
            _mean([s.result or 0.0 for s in log_writes]),
        "storage.layout.pwritev_calls_per_ckpt": len(pwritev) / checkpoints,
        "storage.layout.pwritev_ms":
            sum(s.seconds for s in pwritev) * 1e3 / checkpoints,
        "storage.layout.fsync_calls_per_ckpt":
            len(checkpoint_fsyncs) / checkpoints,
        "storage.layout.fsync_ms":
            sum(s.seconds for s in checkpoint_fsyncs) * 1e3 / checkpoints,
        "engine.recovery.restore_ms": _mean(restore_ms),
        "engine.recovery.replay_ms": _mean(replay_ms),
        "engine.recovery.replay_ms_per_tick":
            sum(replay_ms) / max(1.0, sum(reported("ticks_replayed"))),
        "engine.recovery.ticks_replayed": _mean(reported("ticks_replayed")),
        "engine.recovery.bytes_restored": _mean(reported("bytes_restored")),
        "engine.recovery.other_ms":
            max(0.0, _median(recover_wall) - max(game_ms, default=0.0)),
        "storage.double_backup.restore_ms": _median(
            _ms(seconds("double_backup.restore", recovery.window))),
        "storage.checkpoint_log.restore_ms": _median(
            _ms(seconds("checkpoint_log.restore", recovery.window))),
        "storage.checkpoint_log.scan_bytes":
            float(traced.log_scan_bytes) / traced.spec.shards,
        "engine.recovery.cold_p50_ms":
            _median(_ms(traced.cold_recovery_seconds)),
        "obs.telemetry_ms": (traced.telemetry_seconds or 0.0) * 1e3,
        "trace.overhead_frac": traced_tick / baseline_tick - 1.0,
        "trace.coverage_frac": (
            sum(seconds for (parent, _), seconds in child_seconds.items()
                if parent == "server.run_tick") / run_tick_total
            if run_tick_total else 0.0),
        "loadgen.late_p99_ms":
            measure.tail(list(late * 1e3))["value"] if len(late) else 0.0,
        "host.calib_ms": kernel_median,
        "host.noisy": float(kernel_q3 > NOISY_QUARTILE_RATIO * kernel_q1),
    }


def run(spec, seed: int, workdir: str, deadline: float, calibrator,
        out: str) -> dict:
    """Bare pass, traced pass; returns the result document."""
    common = dict(seed=seed, workdir=workdir, deadline_seconds=deadline,
                  setups=1, exclude_pids=[calibrator.pid],
                  transport="inproc")
    baseline = lifecycle.run_lifecycle(spec, **common)
    recorder = SpanRecorder()
    install(recorder)
    try:
        traced = lifecycle.run_lifecycle(spec, diagnostics=True, **common)
    finally:
        recorder.restore()
    threads = recorder.threads()
    os.makedirs(out, exist_ok=True)
    spans_written = recorder.write_chrome_trace(
        os.path.join(out, f"trace-{spec.name}.json"), traced.serve.window[0])
    values = per_layer(baseline, traced, threads, calibrator)
    # The unbounded end-to-end readings, from the bare pass.
    values.update({
        name: entry["value"]
        for name, entry in results.diagnostics(baseline, calibrator).items()
    })
    return {
        "correct": baseline.correct and traced.correct,
        "attempted": baseline.attempted + traced.attempted,
        "failed": baseline.failed + traced.failed,
        "checks": {**{f"bare.{k}": v for k, v in baseline.checks.items()},
                   **traced.checks},
        "metrics": {name: {"value": value} for name, value in values.items()},
        "absent_spans": recorder.absent,
        "spans_written": spans_written,
        "end_to_end_traced": results.end_to_end(traced, calibrator),
    }
