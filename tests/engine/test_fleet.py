"""Tests for the multi-shard fleet driver."""

import time

import numpy as np
import pytest

from repro.config import StateGeometry
from repro.engine import fleet as fleet_module
from repro.engine.fleet import ShardFleet, shard_directory
from repro.engine.shard import MMOShard
from repro.errors import EngineError

GEOMETRY = StateGeometry(rows=400, columns=10)


@pytest.fixture
def app_factory(random_walk_app):
    app_class = type(random_walk_app)
    return lambda index: app_class(GEOMETRY)


def make_fleet(app_factory, directory, num_shards=3, **kwargs):
    kwargs.setdefault("algorithm", "copy-on-update")
    kwargs.setdefault("seed", 5)
    kwargs.setdefault("pool_size", 2)
    return ShardFleet(app_factory, directory, num_shards, **kwargs)


class TestConstruction:
    def test_invalid_shard_count_rejected(self, app_factory, tmp_path):
        with pytest.raises(EngineError):
            ShardFleet(app_factory, tmp_path, num_shards=0)

    def test_shards_get_distinct_directories(self, app_factory, tmp_path):
        with make_fleet(app_factory, tmp_path) as fleet:
            directories = {shard.directory for shard in fleet.shards}
            assert len(directories) == 3
            assert str(shard_directory(tmp_path, 0)) in {
                str(d) for d in directories
            }


class TestRuns:
    def test_parallel_run_reports_throughput(self, app_factory, tmp_path):
        with make_fleet(app_factory, tmp_path) as fleet:
            report = fleet.run_ticks(20, parallel=True)
            assert report.num_shards == 3
            assert report.ticks_per_shard == 20
            assert report.ticks_per_second > 0
            assert len(report.shard_stats) == 3
            assert all(s.ticks_run == 20 for s in report.shard_stats)

    def test_serial_run_matches_shape(self, app_factory, tmp_path):
        with make_fleet(app_factory, tmp_path, pool_size=None) as fleet:
            report = fleet.run_ticks(10, parallel=False)
            assert all(s.ticks_run == 10 for s in report.shard_stats)

    def test_parallel_and_serial_runs_agree(self, app_factory, tmp_path):
        """Thread-per-shard scheduling must not change any shard's state."""
        cells = {}
        for label, parallel in (("par", True), ("ser", False)):
            with make_fleet(app_factory, tmp_path / label) as fleet:
                fleet.run_ticks(15, parallel=parallel)
                cells[label] = [
                    s.game.table.cells.copy() for s in fleet.shards
                ]
        for par, ser in zip(cells["par"], cells["ser"]):
            assert np.array_equal(par, ser)


class TestRecovery:
    def test_crash_and_recover_every_shard(self, app_factory, tmp_path):
        fleet = make_fleet(app_factory, tmp_path)
        fleet.run_ticks(25, parallel=True)
        live = [shard.game.table.cells.copy() for shard in fleet.shards]
        fleet.crash()
        reports = ShardFleet.recover(app_factory, tmp_path, 3, seed=5)
        assert len(reports) == 3
        for recovered, expected in zip(reports, live):
            assert np.array_equal(recovered.game.table.cells, expected)
            recovered.persistence.close()

    def test_parallel_and_serial_recovery_agree(self, app_factory, tmp_path):
        """Recovery thread scheduling must not change any recovered state:
        the fleet's threaded recovery equals each shard recovered in turn,
        and both equal the live state."""
        fleet = make_fleet(app_factory, tmp_path, num_shards=4)
        fleet.run_ticks(25, parallel=True)
        live = [shard.game.table.cells.copy() for shard in fleet.shards]
        fleet.crash()

        def recovered(reports):
            cells = [report.game.table.cells.copy() for report in reports]
            for report in reports:
                report.persistence.close()
            return cells

        serial = recovered([
            MMOShard.recover(app_factory(index),
                             shard_directory(tmp_path, index), seed=5 + index)
            for index in range(4)
        ])
        parallel = recovered(
            ShardFleet.recover(app_factory, tmp_path, 4, seed=5)
        )
        for alone, threaded, expected in zip(serial, parallel, live):
            assert np.array_equal(alone, threaded)
            assert np.array_equal(alone, expected)

    def test_parallel_recovery_runs_one_thread_per_shard(
        self, app_factory, tmp_path, monkeypatch
    ):
        fleet = make_fleet(app_factory, tmp_path)
        fleet.run_ticks(10)
        live = [shard.game.table.cells.copy() for shard in fleet.shards]
        fleet.crash()
        sizes = []

        class CountingExecutor(fleet_module.ThreadPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(fleet_module, "ThreadPoolExecutor",
                            CountingExecutor)
        reports = ShardFleet.recover(app_factory, tmp_path, 3, seed=5)
        assert sizes == [3]
        assert len(reports) == 3
        for report, expected in zip(reports, live):
            assert np.array_equal(report.game.table.cells, expected)
            report.persistence.close()

    def test_crash_twice_rejected(self, app_factory, tmp_path):
        fleet = make_fleet(app_factory, tmp_path)
        fleet.run_ticks(5)
        fleet.crash()
        with pytest.raises(EngineError):
            fleet.crash()


class TestCheckpointAge:
    def test_ages_tracked_per_shard_and_aggregated(
        self, app_factory, tmp_path
    ):
        with make_fleet(app_factory, tmp_path, pool_size=2) as fleet:
            assert fleet.checkpoint_ages() == [0, 0, 0]
            assert fleet.max_checkpoint_age == 0
            fleet.run_ticks(12, parallel=True)
            deadline = time.monotonic() + 10.0
            while (
                any(
                    shard.game.last_committed_checkpoint_tick is None
                    for shard in fleet.shards
                )
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            ages = fleet.checkpoint_ages()
            assert len(ages) == 3
            # Every shard committed at least one cut, so the replay debt
            # is bounded by the ticks run, and usually far smaller.
            assert all(0 <= age < 12 for age in ages)
            assert fleet.max_checkpoint_age == max(ages)
