"""A writer that captures a checkpoint at its cut gets no snapshot.

The inline writer flushes on the game thread at the cut, and the process
backend's checkpoint proxy stages into shared memory there.  Either way
the live table *is* the cut when the payloads are read, so the executor
must allocate no snapshot, make no old-value save, and still land the
bytes a pool writer -- which reads beside the mutator and needs the
snapshot -- lands.
"""

import multiprocessing

import numpy as np
import pytest

from repro.config import StateGeometry
from repro.core.registry import ALGORITHM_KEYS
from repro.engine.executor import RealExecutor
from repro.engine.fleet import ShardFleet
from repro.engine.writer import InlineWriter
from repro.state.table import GameStateTable
from repro.storage.double_backup import DoubleBackupStore
from tests.conftest import RandomWalkApp
from tests.properties.test_backend_equivalence import tree_digest

GEOMETRY = StateGeometry(rows=4096, columns=8)

TICKS = 12

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process backend needs the fork start method",
)


def run_fleet(directory, algorithm, backend, pool_size):
    """Run a barriered two-shard fleet; return its tree digest and the
    per-shard stats."""
    with ShardFleet(
        lambda index: RandomWalkApp(GEOMETRY, updates_per_tick=200),
        directory, num_shards=2, algorithm=algorithm, seed=5,
        backend=backend, pool_size=pool_size,
        min_checkpoint_interval_ticks=2,
    ) as fleet:
        report = fleet.run_ticks(TICKS, checkpoint_barrier=True)
        fleet.quiesce()
    assert all(
        stats.checkpoints_completed >= TICKS // 2 - 1
        for stats in report.shard_stats
    )
    return tree_digest(directory), report.shard_stats


def forbid_snapshots(monkeypatch):
    """Fail any executor built with a snapshot, and any old-value save or
    eager copy.  Workers fork after this runs, so it holds in them too: a
    violation there fails the worker's tick, and the fleet raises."""
    build = RealExecutor.__init__

    def checked_init(self, *args, **kwargs):
        build(self, *args, **kwargs)
        if self._snapshot is not None or self._snapshot_mask is not None:
            raise AssertionError("a cut-capturing executor built a snapshot")

    def no_save(self, object_ids):
        raise AssertionError("old-value save by a cut-capturing executor")

    monkeypatch.setattr(RealExecutor, "__init__", checked_init)
    monkeypatch.setattr(GameStateTable, "read_objects", no_save)


@needs_fork
@pytest.mark.parametrize("algorithm", ALGORITHM_KEYS)
def test_cut_capturing_writers_land_the_pool_bytes(
    algorithm, tmp_path, monkeypatch
):
    pooled, pooled_stats = run_fleet(
        tmp_path / "pooled", algorithm, "thread", 2
    )
    # The pool writer's snapshot does work for every algorithm, so a zero
    # below is the cut capture, not an algorithm that never copies.
    assert sum(
        stats.sync_copy_seconds + stats.handle_update_seconds
        for stats in pooled_stats
    ) > 0
    forbid_snapshots(monkeypatch)
    inline, inline_stats = run_fleet(
        tmp_path / "inline", algorithm, "thread", None
    )
    process, process_stats = run_fleet(
        tmp_path / "process", algorithm, "process", 2
    )
    assert inline == pooled
    assert process == pooled
    for stats in inline_stats + process_stats:
        assert stats.sync_copy_seconds == 0.0
        assert stats.handle_update_seconds == 0.0


def test_no_second_cut_copy_grows_back(tmp_path):
    """A ``concurrent_reader = False`` writer leaves the executor with no
    snapshot buffer, no snapshot mask and no stripe locks -- and with no
    image-sized buffer of any other name."""
    geometry = StateGeometry(rows=64, columns=8)
    table = GameStateTable(geometry, dtype=np.float32)
    with DoubleBackupStore(tmp_path, geometry) as store:
        writer = InlineWriter(store)
        assert writer.concurrent_reader is False
        executor = RealExecutor(table, store, writer=writer)
        assert executor._snapshot is None
        assert executor._snapshot_mask is None
        assert executor._locks is None
        image_bytes = geometry.num_objects * geometry.object_bytes
        assert not [
            name for name, value in vars(executor).items()
            if isinstance(value, np.ndarray) and value.nbytes >= image_bytes
        ]
