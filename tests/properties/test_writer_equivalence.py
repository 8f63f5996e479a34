"""Property: a fleet with no writer pool writes the pooled fleet's bytes.

Without a pool each shard's inline writer flushes a checkpoint on its game
thread at the cut; with one the pool's workers flush it.  Under the
per-tick checkpoint barrier both schedules are a pure function of the tick
number, and both land every checkpoint through ``flush_checkpoint_job``, so
the checkpoint directory trees must be byte-identical for every algorithm.
With ``test_backend_equivalence.py`` (thread pool against process
backend), all three write arrangements are equal.
"""

import os

import pytest

from repro.config import StateGeometry
from repro.core.registry import ALGORITHM_KEYS
from repro.engine.fleet import ShardFleet
from repro.storage.checkpoint_log import CheckpointLogStore
from repro.storage.double_backup import DoubleBackupStore
from tests.conftest import RandomWalkApp
from tests.properties.test_backend_equivalence import tree_digest

#: 1,024 objects a full checkpoint: more than the 512 a log record frames.
GEOMETRY = StateGeometry(rows=16_384, columns=8)

TICKS = 12


def run_fleet(directory, algorithm, pool_size):
    with ShardFleet(
        lambda index: RandomWalkApp(GEOMETRY, updates_per_tick=300),
        directory, num_shards=2, algorithm=algorithm, seed=3,
        pool_size=pool_size, min_checkpoint_interval_ticks=2,
    ) as fleet:
        assert fleet.writer_threads == (pool_size or 0)
        report = fleet.run_ticks(TICKS, checkpoint_barrier=True)
        assert all(
            stats.checkpoints_completed >= TICKS // 2 - 1
            for stats in report.shard_stats
        )
    return tree_digest(directory)


@pytest.mark.parametrize("algorithm", ALGORITHM_KEYS)
def test_inline_fleet_writes_pooled_bytes(algorithm, tmp_path):
    inline = run_fleet(tmp_path / "inline", algorithm, None)
    pooled = run_fleet(tmp_path / "pooled", algorithm, 2)
    assert inline == pooled
    stores = {CheckpointLogStore.FILE_NAME, *DoubleBackupStore.FILE_NAMES}
    assert any(os.path.basename(name) in stores for name in inline)
