"""The public API surface: everything in ``repro.__all__`` exists and the
documented quickstart works verbatim."""

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_key_types_importable(self):
        # The names the README leans on.
        from repro import (  # noqa: F401
            CheckpointSimulator,
            GameStateTable,
            PAPER_CONFIG,
            ZipfTrace,
        )
        from repro.engine import DurableGameServer, RecoveryManager  # noqa: F401
        from repro.game import BattleScenario, KnightsArchersGame  # noqa: F401


class TestQuickstart:
    def test_readme_quickstart_runs(self):
        from repro import CheckpointSimulator, ZipfTrace, small_config

        config = small_config()
        trace = ZipfTrace(
            config.geometry, updates_per_tick=200, skew=0.8, num_ticks=20
        )
        simulator = CheckpointSimulator(config)
        results = simulator.run_all(trace)
        assert len(results) == 6
        for result in results:
            assert result.avg_checkpoint_time >= 0
            assert result.recovery_time > 0


def test_no_single_valued_parameter_grows_back():
    """Sizes, names and locations that only ever took one value are module
    constants, not parameters: ring and trace-buffer sizes, lock stripes,
    gather chunks, writer and pool names, the metrics row count, and the
    shared segments' tag, directory and slot."""
    import inspect

    import repro.obs
    from repro.engine.executor import RealExecutor
    from repro.engine.fleet import ShardFleet
    from repro.engine.server import DurableGameServer
    from repro.engine.shard_handle import ThreadShardHandle
    from repro.engine.shard_worker import ProcessShardHandle, shard_arena_slots
    from repro.engine.writer import flush_checkpoint_job
    from repro.engine.writer_pool import CheckpointWriterPool
    from repro.frontend.gateway import FrontDoor, GatewayStats
    from repro.obs.metrics import MetricsLayout, RowMetrics
    from repro.obs.trace import Tracer
    from repro.state.shared import (
        SharedArena,
        SharedGameStateTable,
        reap_stale_segments,
    )

    open_all = ["app_factory", "directories", "algorithm", "seed",
                "shard_kwargs", "pool"]
    expected = {
        ShardFleet.__init__: ["self", "app_factory", "directory",
                              "num_shards", "algorithm", "seed", "pool_size",
                              "backend", "shard_kwargs"],
        ThreadShardHandle.__init__: ["self", "index", "shard"],
        ThreadShardHandle.open_all: open_all,
        ProcessShardHandle.open_all: open_all,
        shard_arena_slots: ["geometry", "dtype"],
        DurableGameServer.__init__: [
            "self", "app", "directory", "algorithm", "seed",
            "full_dump_period", "fsync_policy",
            "min_checkpoint_interval_ticks", "writer_pool", "table", "writer",
        ],
        RealExecutor.__init__: ["self", "table", "store", "writer_pool",
                                "writer"],
        CheckpointWriterPool.__init__: ["self", "num_workers"],
        CheckpointWriterPool.register: ["self", "store"],
        flush_checkpoint_job: ["store", "job", "should_abandon",
                               "on_chunk_written", "slab_for"],
        FrontDoor.__init__: ["self", "fleet", "commands_per_tick_limit",
                             "max_pending_commands"],
        GatewayStats.__init__: ["self"],
        RowMetrics.__init__: ["self", "layout", "array"],
        MetricsLayout.slot_spec: ["self"],
        Tracer.__init__: ["self", "enabled"],
        SharedArena.__init__: ["self", "path", "slots", "create"],
        SharedArena.create: ["slots"],
        SharedArena.attach: ["path", "slots"],
        reap_stale_segments: [],
        SharedGameStateTable.__init__: ["self", "geometry", "arena", "dtype"],
        SharedGameStateTable.slot_spec: ["geometry", "dtype"],
    }
    for function, names in expected.items():
        parameters = list(inspect.signature(function).parameters)
        assert parameters == names, function.__qualname__
    assert not hasattr(repro.obs, "MetricsRegistry")
    assert not hasattr(repro.obs.metrics, "MetricsRegistry")
