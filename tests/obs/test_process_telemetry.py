"""Process-backend telemetry: parent scrapes vs. worker ground truth,
dead-worker readability, and the cross-process trace pipeline."""

import multiprocessing
import os
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import StateGeometry
from repro.engine.fleet import ShardFleet
from repro.obs.export import validate_chrome_trace, write_chrome_trace
from repro.obs.trace import configure_tracing

GEOMETRY = StateGeometry(rows=400, columns=10)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process backend needs the fork start method",
)


@pytest.fixture
def app_factory(random_walk_app):
    app_class = type(random_walk_app)
    return lambda index: app_class(GEOMETRY)


def make_fleet(app_factory, directory, num_shards=2, **kwargs):
    kwargs.setdefault("algorithm", "copy-on-update")
    kwargs.setdefault("seed", 5)
    kwargs.setdefault("min_checkpoint_interval_ticks", 3)
    return ShardFleet(
        app_factory, directory, num_shards, backend="process", **kwargs
    )


class TestScrapeAgreement:
    # app_factory is a pure factory (no per-example state), so reusing it
    # across generated inputs is safe.
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        ticks=st.integers(min_value=1, max_value=6),
        commands=st.lists(
            st.integers(min_value=0, max_value=4), min_size=2, max_size=2
        ),
    )
    def test_parent_scrape_equals_worker_totals(
        self, app_factory, tmp_path_factory, ticks, commands
    ):
        """After quiesce, the shared-memory rows the parent scrapes agree
        exactly with the work the fleet was asked to do."""
        directory = tmp_path_factory.mktemp("scrape")
        fleet = make_fleet(app_factory, directory)
        try:
            for index, count in enumerate(commands):
                if count:
                    accepted = fleet.submit_commands(
                        index, [b"heal:1"] * count
                    )
                    assert accepted == count
            fleet.run_ticks(ticks)
            fleet.quiesce()
            snapshot = fleet.telemetry()
            assert snapshot.backend == "process"
            for index, shard in enumerate(snapshot.shards):
                assert shard.alive
                assert shard.ticks_run == ticks
                assert shard.commands_drained == commands[index]
                assert shard.bytes_written > 0
            total_drained = sum(s.commands_drained for s in snapshot.shards)
            assert total_drained == sum(commands)
        finally:
            fleet.close()

    def test_histograms_fill_from_worker_ticks(self, app_factory, tmp_path):
        fleet = make_fleet(app_factory, tmp_path)
        try:
            fleet.run_ticks(8)
            snapshot = fleet.telemetry()
            # Every worker published one tick-duration sample per tick.
            for shard in snapshot.shards:
                assert shard.tick_p50_us > 0
                assert shard.tick_p99_us >= shard.tick_p50_us
            assert snapshot.tick_p99_us > 0
        finally:
            fleet.close()


class TestDeadWorker:
    def test_last_published_values_survive_the_worker(self, app_factory,
                                                      tmp_path):
        """A SIGKILLed worker's metrics row lives in the shared arena, so
        the parent still reads its final published values."""
        fleet = make_fleet(app_factory, tmp_path)
        try:
            fleet.run_ticks(5)
            fleet.crash_worker(0, when="kill")
            deadline = time.monotonic() + 5.0
            while not fleet.dead_shards() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert fleet.dead_shards() == [0]
            snapshot = fleet.telemetry()
            dead, live = snapshot.shards
            assert dead.alive is False
            assert dead.ticks_run == 5  # the corpse's row is still readable
            assert dead.tick_p50_us > 0
            assert live.alive is True
        finally:
            fleet.close()


class TestCrossProcessTracing:
    def test_worker_spans_export_as_valid_chrome_trace(self, app_factory,
                                                       tmp_path):
        configure_tracing(True)
        try:
            fleet = make_fleet(app_factory, tmp_path)
            try:
                fleet.run_ticks(4)
                events = fleet.trace_events()
            finally:
                fleet.close()
        finally:
            tracer = configure_tracing(False)
            tracer.drain()
        parent_pid = os.getpid()
        worker_pids = {e["pid"] for e in events} - {parent_pid}
        assert worker_pids, "no worker-side spans crossed the trace ring"
        names = {e["name"] for e in events}
        assert "shard_tick" in names
        assert "fleet_run_ticks" in names
        path = str(tmp_path / "trace.json")
        write_chrome_trace(
            path, events,
            process_names={pid: f"worker {pid}" for pid in worker_pids},
        )
        assert validate_chrome_trace(path) == len(events) + len(worker_pids)

    @pytest.mark.parametrize("backend, pool_size", [
        ("thread", None), ("thread", 1), ("process", 2),
    ])
    def test_every_flush_is_one_ckpt_flush_span(self, app_factory, tmp_path,
                                                backend, pool_size):
        """Inline, pool and worker flushes each record one ``ckpt_flush``
        span per checkpoint, in the process that ran the flush."""
        configure_tracing(True)
        try:
            with ShardFleet(app_factory, tmp_path, 2, backend=backend,
                            seed=5, pool_size=pool_size,
                            min_checkpoint_interval_ticks=3) as fleet:
                report = fleet.run_ticks(9, checkpoint_barrier=True)
                flushers = (set(fleet.worker_pids) if backend == "process"
                            else {os.getpid()})
                events = fleet.trace_events()
        finally:
            configure_tracing(False).drain()
        flushes = [e for e in events if e["name"] == "ckpt_flush"]
        assert {e["pid"] for e in flushes} == flushers
        assert len(flushes) == sum(
            stats.checkpoints_started for stats in report.shard_stats
        )
        assert all(set(e["args"]) == {"epoch", "cut"} for e in flushes)

    def test_tracing_disabled_fleet_emits_nothing(self, app_factory,
                                                  tmp_path):
        fleet = make_fleet(app_factory, tmp_path)
        try:
            fleet.run_ticks(3)
            assert fleet.trace_events() == []
        finally:
            fleet.close()
