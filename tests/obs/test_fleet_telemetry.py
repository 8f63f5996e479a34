"""Thread-backend fleet telemetry and the gateway STATS frame, end to end."""

import asyncio

import pytest

from repro.config import StateGeometry
from repro.engine.fleet import ShardFleet
from repro.frontend import FrontDoor, GatewayClient, GatewayServer
from repro.obs.dump import fetch_stats, render
from repro.obs.telemetry import FleetTelemetry

GEOMETRY = StateGeometry(rows=64, columns=8)


@pytest.fixture
def app_factory(random_walk_app):
    app_class = type(random_walk_app)
    return lambda index: app_class(GEOMETRY, updates_per_tick=16)


class TestThreadFleetTelemetry:
    def test_counters_match_the_work_done(self, app_factory, tmp_path):
        fleet = ShardFleet(app_factory, tmp_path, 2, seed=3,
                           min_checkpoint_interval_ticks=2)
        try:
            for index in range(2):
                fleet.submit_commands(index, [b"heal:1", b"heal:2"])
            fleet.run_ticks(6)
            fleet.quiesce()
            snapshot = fleet.telemetry()
            assert snapshot.backend == "thread"
            assert snapshot.num_shards == 2
            for shard in snapshot.shards:
                assert shard.alive
                assert shard.ticks_run == 6
                assert shard.commands_drained == 2
                assert shard.bytes_written > 0
                assert shard.ring_high_water_bytes > 0
            assert snapshot.tick_p99_us >= snapshot.tick_p50_us > 0
            assert snapshot.max_checkpoint_age_ticks >= 0
            # The snapshot survives the wire format unchanged.
            assert FleetTelemetry.from_json(snapshot.to_json()) == snapshot
        finally:
            fleet.close()

    def test_render_is_human_readable(self, app_factory, tmp_path):
        fleet = ShardFleet(app_factory, tmp_path, 1, seed=3)
        try:
            fleet.run_ticks(2)
            text = render(fleet.telemetry().as_dict())
            assert "thread" in text
            assert "shard  0 up" in text
        finally:
            fleet.close()


class TestStatsFrame:
    def test_stats_served_pre_hello_and_mid_session(self, app_factory,
                                                    tmp_path):
        async def scenario():
            fd = FrontDoor(ShardFleet(app_factory, tmp_path, 2, seed=3))
            async with GatewayServer(fd, tick_interval=0.002) as gateway:
                host, port = gateway.address

                # Pre-HELLO: a bare monitoring probe, no session needed.
                cold = await asyncio.to_thread(fetch_stats, host, port)
                assert cold["backend"] == "thread"
                assert cold["gateway"]["sessions"] == 0

                client = await GatewayClient.connect(host, port, "alice")
                for _ in range(4):
                    await client.send_command(b"a")
                await client.settle(timeout=10.0)

                warm = await asyncio.to_thread(fetch_stats, host, port)
                assert warm["gateway"]["sessions"] == 1
                assert warm["gateway"]["commands_applied"] == 4
                assert warm["gateway"]["ticks_driven"] > 0
                assert warm["gateway"]["queue_capacity_bytes"] > 0
                # Commands per batch: one batch per read of the connection.
                assert 1 <= warm["gateway"]["admission_batches"] <= 4
                assert "cmds/batch=" in render(warm)
                assert len(warm["shards"]) == 2
                # The frame is the plain FleetTelemetry wire format.
                assert FleetTelemetry.from_dict(warm).num_shards == 2
                await client.close()
            fd.fleet.close()

        asyncio.run(scenario())
