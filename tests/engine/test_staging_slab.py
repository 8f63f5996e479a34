"""Tests for the one staging path: each pool handle stages its checkpoints
into one slab it owns, the slab lives exactly as long as the handle, and a
process shard stages nothing for another process."""

import inspect
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.engine.shard_worker as shard_worker
from repro.config import StateGeometry
from repro.engine.fleet import ShardFleet
from repro.engine.writer_pool import CheckpointWriterPool
from tests.conftest import RandomWalkApp

GEOMETRY = StateGeometry(rows=400, columns=10)


def test_no_second_staging_path_grows_back():
    """``read_payloads_into`` is the only staging contract: no fresh-bytes
    reader, no second gather copy, no heap trimming after staged chunks,
    and no per-chunk iovec planner.  The one heap trim left is the
    process backend's, before it forks its workers."""
    root = Path(repro.__file__).parent
    sources = {
        path.relative_to(root).as_posix(): path.read_text()
        for path in root.rglob("*.py")
    }
    for gone in (r"\bread_payloads\b", "_gather_payloads",
                 "release_freed_heap", "_pwritev_sorted_parts"):
        assert not any(re.search(gone, text) for text in sources.values())
    assert [
        name for name, text in sources.items() if "malloc_trim" in text
    ] == ["engine/shard_worker.py"]


@pytest.mark.parametrize("end", ["crash", "close"])
def test_slab_dies_with_its_handle(tmp_path, end):
    """A thread fleet's pool handles each allocate one slab on their first
    checkpoint, reuse it, and drop it when the fleet crashes or closes."""
    fleet = ShardFleet(
        lambda index: RandomWalkApp(GEOMETRY), tmp_path, 2,
        backend="thread", pool_size=1, seed=3,
        algorithm="copy-on-update", min_checkpoint_interval_ticks=1,
    )
    fleet.run_ticks(4, checkpoint_barrier=True)
    handles = fleet.writer_pool.handles
    slabs = [weakref.ref(handle._slab) for handle in handles]
    fleet.run_ticks(4, checkpoint_barrier=True)
    assert all(
        handle._slab is slab() for handle, slab in zip(handles, slabs)
    )
    getattr(fleet, end)()
    assert [slab() for slab in slabs] == [None, None]


def test_no_cross_process_flush_grows_back():
    """A worker flushes its own checkpoints: no proxy stages a copy for the
    parent, the shard's segment has no staging slot, and no pool handle
    borrows a slab it does not own."""
    source = inspect.getsource(shard_worker)
    for gone in ("WorkerCheckpointProxy", "_StagedSource", "F_JOB_STATE",
                 "STAGING_SLOT"):
        assert gone not in source
    slots = shard_worker.shard_arena_slots(GEOMETRY, np.int32)
    assert not [name for name, *_ in slots if "stag" in name]
    assert list(inspect.signature(CheckpointWriterPool.register).parameters) \
        == ["self", "store"]
