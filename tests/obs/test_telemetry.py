"""Tests for the telemetry snapshot dataclasses and assembly."""

from repro.engine.writer_pool import PoolStats
from repro.obs import metrics
from repro.obs.metrics import (
    RowMetrics,
    global_registry,
    reset_global_registry,
)
from repro.obs.telemetry import (
    SHARD_METRICS_LAYOUT,
    FleetTelemetry,
    PoolTelemetry,
    ShardTelemetry,
    assemble_fleet_telemetry,
    recovery_counters,
)


def make_shard(index, **overrides):
    base = dict(
        index=index, alive=True, ticks_run=10, tick_p50_us=100.0,
        tick_p99_us=400.0, tick_mean_us=150.0, commands_drained=5,
        log_wait_us=4, cut_lag_ticks=1, checkpoint_age_ticks=2,
        bytes_written=4096, ring_pending_bytes=0,
        ring_capacity_bytes=65536, ring_high_water_bytes=80,
    )
    base.update(overrides)
    return ShardTelemetry(**base)


class TestShardSchema:
    def test_slot_spec_is_one_row(self, monkeypatch):
        name, shape, _ = SHARD_METRICS_LAYOUT.slot_spec()
        assert name == "obs_metrics"
        assert shape == (SHARD_METRICS_LAYOUT.num_fields,)
        monkeypatch.setattr(metrics, "METRICS_SLOT", "m")
        assert SHARD_METRICS_LAYOUT.slot_spec()[0] == "m"

    def test_layout_has_the_published_fields(self):
        names = [spec.name for spec in SHARD_METRICS_LAYOUT.specs]
        assert names == ["tick_us", "commands_drained",
                         "log_wait_us", "cut_lag_ticks",
                         "ring_high_water_bytes"]


class TestPoolTelemetry:
    def test_from_stats_copies_every_field(self):
        stats = PoolStats(
            jobs_submitted=9, jobs_completed=8, jobs_abandoned=1,
            bytes_written=1 << 20, busy_seconds=0.25, queue_depth=2,
            max_queue_depth=5,
            max_checkpoint_age_ticks=6,
        )
        pool = PoolTelemetry.from_stats(stats, num_workers=3)
        assert pool.num_workers == 3
        assert pool.jobs_submitted == 9
        assert pool.jobs_completed == 8
        assert pool.queue_depth == 2
        assert pool.max_queue_depth == 5
        assert pool.max_checkpoint_age_ticks == 6


class TestAssembly:
    def test_merges_histograms_and_maxes(self):
        reset_global_registry()
        rows = [RowMetrics(SHARD_METRICS_LAYOUT) for _ in range(2)]
        rows[0].histogram("tick_us").observe(100)
        rows[1].histogram("tick_us").observe(10_000)
        shards = [
            make_shard(0, checkpoint_age_ticks=2, ring_high_water_bytes=10),
            make_shard(1, checkpoint_age_ticks=7, ring_high_water_bytes=99),
        ]
        snapshot = assemble_fleet_telemetry(
            "thread", shards,
            [row.histogram("tick_us").snapshot() for row in rows],
        )
        assert snapshot.num_shards == 2
        assert snapshot.max_checkpoint_age_ticks == 7
        assert snapshot.ring_high_water_bytes == 99
        # One 100us sample, one 10ms sample: the p99 sits in the top bucket.
        assert snapshot.tick_p99_us > snapshot.tick_p50_us
        assert snapshot.tick_mean_us > 0

    def test_empty_fleet_is_all_zeroes(self):
        reset_global_registry()
        snapshot = assemble_fleet_telemetry("thread", [], [])
        assert snapshot.tick_p99_us == 0.0
        assert snapshot.max_checkpoint_age_ticks == 0

    def test_recovery_counters_flow_through(self):
        reset_global_registry()
        global_registry().counter("recoveries_completed").inc(2)
        global_registry().counter("recovery_replay_ticks").inc(40)
        snapshot = assemble_fleet_telemetry("thread", [], [])
        assert snapshot.recovery["recoveries_completed"] == 2
        assert snapshot.recovery["recovery_replay_ticks"] == 40
        assert recovery_counters()["recovery_bytes_read"] == 0

    def test_dump_shows_read_amplification(self):
        from repro.obs.dump import render

        reset_global_registry()
        global_registry().counter("recoveries_completed").inc(1)
        global_registry().counter("recovery_bytes_restored").inc(1000)
        global_registry().counter("recovery_bytes_read").inc(4500)
        snapshot = assemble_fleet_telemetry("thread", [], []).as_dict()
        assert "bytes=1000 read=4500 (amp 4.50x)" in render(snapshot)
        # A snapshot from a server that predates the counter still renders.
        del snapshot["recovery"]["recovery_bytes_read"]
        assert "bytes=1000 read=0 (amp 0.00x)" in render(snapshot)
        reset_global_registry()


class TestSerialization:
    def test_json_round_trip(self):
        reset_global_registry()
        original = assemble_fleet_telemetry(
            "process", [make_shard(0), make_shard(1, alive=False)], [],
            pool=PoolTelemetry.from_stats(PoolStats(jobs_submitted=3), 2),
            gateway={"sessions": 4, "commands_applied": 12},
        )
        restored = FleetTelemetry.from_json(original.to_json())
        assert restored == original
        assert restored.shards[1].alive is False
        assert restored.pool.num_workers == 2
        assert restored.gateway == {"sessions": 4, "commands_applied": 12}

    def test_round_trip_without_pool_or_gateway(self):
        reset_global_registry()
        original = assemble_fleet_telemetry("thread", [make_shard(0)], [])
        restored = FleetTelemetry.from_json(original.to_json())
        assert restored == original
        assert restored.pool is None
        assert restored.gateway is None
