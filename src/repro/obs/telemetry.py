"""The merged fleet snapshot: per-shard schema and telemetry dataclasses.

Two halves:

* :data:`SHARD_METRIC_SPECS` -- the per-shard metrics row every backend
  publishes (tick-duration histogram, commands drained, staging and log
  waits, cut lag).  On the process backend the row is an int64 slot in
  the shard's :class:`~repro.state.shared.SharedArena` written by the
  worker's tick loop and scraped by the parent with zero syscalls; on the
  thread backend it is an ordinary in-process row written by the
  ticking thread.  Same layout either way, so
  :meth:`~repro.engine.fleet.ShardFleet.telemetry` merges them identically.

* :class:`FleetTelemetry` / :class:`ShardTelemetry` / :class:`PoolTelemetry`
  -- the detached, JSON-serializable snapshot assembled by the fleet,
  served through the gateway's ``STATS`` frame, and printed by
  ``python -m repro.obs.dump``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import (
    DURATION_BUCKETS_US,
    HistogramSnapshot,
    MetricSpec,
    MetricsLayout,
    global_registry,
    merge_histograms,
)

#: The per-shard metrics row.  Single writer *per field*, exactly like the
#: control row: the shard's tick loop (the worker process, or the driver
#: thread on the thread backend) owns ``tick_us`` / ``commands_drained`` /
#: ``staging_us`` / ``log_wait_us`` / ``cut_lag_ticks``; the fleet parent,
#: which is the ring producer, owns ``ring_high_water_bytes``.
SHARD_METRIC_SPECS: Tuple[MetricSpec, ...] = (
    MetricSpec("tick_us", "histogram", DURATION_BUCKETS_US),
    MetricSpec("commands_drained", "counter"),
    MetricSpec("staging_us", "counter"),
    MetricSpec("log_wait_us", "counter"),
    MetricSpec("cut_lag_ticks", "gauge"),
    MetricSpec("ring_high_water_bytes", "gauge"),
)

#: The one layout both sides of a shared shard-metrics slot agree on.
SHARD_METRICS_LAYOUT = MetricsLayout(SHARD_METRIC_SPECS)



@dataclass(frozen=True)
class ShardTelemetry:
    """One shard's slice of the fleet snapshot."""

    index: int
    alive: bool
    ticks_run: int
    tick_p50_us: float
    tick_p99_us: float
    tick_mean_us: float
    commands_drained: int
    #: Microseconds the worker spent gathering cut-consistent payloads.
    staging_us: int
    #: Microseconds ticks waited for their log record's fsync.
    log_wait_us: int
    #: Ticks run since the newest cut handed to the checkpoint path.
    cut_lag_ticks: int
    #: Ticks run beyond the newest *durable* cut (replay work on a crash).
    checkpoint_age_ticks: int
    bytes_written: int
    ring_pending_bytes: int
    ring_capacity_bytes: int
    #: Fullest the shard's command ingress has ever been, in ring bytes.
    ring_high_water_bytes: int


@dataclass(frozen=True)
class PoolTelemetry:
    """The shared checkpoint writer pool's slice of the snapshot."""

    num_workers: int
    queue_depth: int
    max_queue_depth: int
    jobs_submitted: int
    jobs_completed: int
    jobs_abandoned: int
    bytes_written: int
    busy_seconds: float
    max_checkpoint_age_ticks: int

    @classmethod
    def from_stats(cls, stats, num_workers: int) -> "PoolTelemetry":
        """Build from a :class:`~repro.engine.writer_pool.PoolStats`."""
        return cls(
            num_workers=num_workers,
            queue_depth=stats.queue_depth,
            max_queue_depth=stats.max_queue_depth,
            jobs_submitted=stats.jobs_submitted,
            jobs_completed=stats.jobs_completed,
            jobs_abandoned=stats.jobs_abandoned,
            bytes_written=stats.bytes_written,
            busy_seconds=stats.busy_seconds,
            max_checkpoint_age_ticks=stats.max_checkpoint_age_ticks,
        )


@dataclass(frozen=True)
class FleetTelemetry:
    """One consistent-enough view of the whole serving stack.

    Scrape consistency: every number is read without locks from
    single-writer cells, so fields may be a tick apart from each other but
    each is individually exact (never torn).  The fleet-wide percentiles
    come from merging the shards' fixed-bucket histograms, so they are
    O(shards * buckets) to compute however long the fleet has run.
    """

    backend: str
    num_shards: int
    shards: List[ShardTelemetry]
    #: Fleet-merged tick-duration percentiles, microseconds.
    tick_p50_us: float
    tick_p99_us: float
    tick_mean_us: float
    max_checkpoint_age_ticks: int
    ring_high_water_bytes: int
    pool: Optional[PoolTelemetry] = None
    #: Process-global recovery counters (bytes restored, bytes read, ...).
    recovery: Dict[str, int] = field(default_factory=dict)
    #: Gateway serving counters, when served through a front door.
    gateway: Optional[Dict[str, int]] = None

    def as_dict(self) -> Dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Dict) -> "FleetTelemetry":
        shards = [ShardTelemetry(**shard) for shard in data.get("shards", [])]
        pool = data.get("pool")
        return cls(
            backend=data["backend"],
            num_shards=data["num_shards"],
            shards=shards,
            tick_p50_us=data["tick_p50_us"],
            tick_p99_us=data["tick_p99_us"],
            tick_mean_us=data["tick_mean_us"],
            max_checkpoint_age_ticks=data["max_checkpoint_age_ticks"],
            ring_high_water_bytes=data["ring_high_water_bytes"],
            pool=PoolTelemetry(**pool) if pool else None,
            recovery=dict(data.get("recovery", {})),
            gateway=data.get("gateway"),
        )

    @classmethod
    def from_json(cls, blob: str) -> "FleetTelemetry":
        return cls.from_dict(json.loads(blob))


def recovery_counters() -> Dict[str, int]:
    """Snapshot of the process-global recovery counters."""
    row = global_registry()
    return {
        "recoveries_completed": row.value("recoveries_completed"),
        "recovery_bytes_restored": row.value("recovery_bytes_restored"),
        "recovery_bytes_read": row.value("recovery_bytes_read"),
        "recovery_log_bytes_read": row.value("recovery_log_bytes_read"),
        "recovery_replay_ticks": row.value("recovery_replay_ticks"),
    }


def assemble_fleet_telemetry(
    backend: str,
    shards: List[ShardTelemetry],
    tick_histograms: List[Optional[HistogramSnapshot]],
    pool: Optional[PoolTelemetry] = None,
    gateway: Optional[Dict[str, int]] = None,
) -> FleetTelemetry:
    """Fold per-shard rows into the one merged snapshot."""
    merged = merge_histograms([h for h in tick_histograms if h is not None])
    return FleetTelemetry(
        backend=backend,
        num_shards=len(shards),
        shards=shards,
        tick_p50_us=merged.percentile(0.50) if merged else 0.0,
        tick_p99_us=merged.percentile(0.99) if merged else 0.0,
        tick_mean_us=merged.mean if merged else 0.0,
        max_checkpoint_age_ticks=max(
            (shard.checkpoint_age_ticks for shard in shards), default=0
        ),
        ring_high_water_bytes=max(
            (shard.ring_high_water_bytes for shard in shards), default=0
        ),
        pool=pool,
        recovery=recovery_counters(),
        gateway=gateway,
    )
