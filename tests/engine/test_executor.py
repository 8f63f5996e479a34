"""Tests for the real subroutine executor.

Without a pool the executor's inline writer lands each checkpoint inside
``begin_stable_write``.  The tests that need a checkpoint in flight hand it
to a one-worker pool and hold the flush at a :class:`FlushGate`.
"""

import inspect
import pathlib
import re

import numpy as np
import pytest

import repro
from repro.config import StateGeometry
from repro.core.plan import CheckpointPlan, DiskLayout, UpdateEffects, empty_ids
from repro.engine.executor import RealExecutor
from repro.engine.writer import flush_checkpoint_job
from repro.engine.writer_pool import CheckpointWriterPool
from repro.errors import CheckpointWriterError, EngineError, StorageError
from repro.state.table import GameStateTable
from repro.storage.double_backup import DoubleBackupStore
from tests.conftest import FlushGate


@pytest.fixture
def geometry():
    return StateGeometry(rows=8, columns=8, cell_bytes=4, object_bytes=32)


@pytest.fixture
def table(geometry):
    table = GameStateTable(geometry, dtype=np.uint32)
    table.flat[:] = np.arange(geometry.num_cells, dtype=np.uint32)
    return table


@pytest.fixture
def store(tmp_path, geometry):
    with DoubleBackupStore(tmp_path, geometry) as opened:
        yield opened


@pytest.fixture
def pool():
    """One worker: a checkpoint handed to it is in flight until it lands."""
    pool = CheckpointWriterPool(1)
    yield pool
    pool.kill()


def plan_all(index=0):
    return CheckpointPlan(
        checkpoint_index=index,
        eager_copy_ids=empty_ids(),
        write_ids=None,
        layout=DiskLayout.DOUBLE_BACKUP,
    )


def gated_executor(table, store, pool):
    """A pool-backed executor whose flush waits at the returned gate before
    it stages a single payload."""
    executor = RealExecutor(table, store, writer_pool=pool)
    gate = FlushGate()
    stage = executor.read_payloads_into

    def read_payloads_into(object_ids, out):
        gate()
        stage(object_ids, out)

    executor.read_payloads_into = read_payloads_into
    return executor, gate


class TestDrainAndCommit:
    def test_full_drain_commits(self, table, store):
        """The inline writer lands the whole checkpoint at its cut."""
        executor = RealExecutor(table, store)
        executor.set_current_tick(5)
        executor.copy_to_memory(plan_all())
        executor.begin_stable_write(plan_all())
        assert executor.writer.totals()[0] == table.geometry.checkpoint_bytes
        assert executor.writer.last_committed == (1, 5)
        assert store.latest_consistent().tick == 5
        assert executor.stable_write_finished()

    def test_commit_records_cut_tick_not_commit_tick(
        self, table, store, pool
    ):
        executor, gate = gated_executor(table, store, pool)
        executor.set_current_tick(3)           # the cut
        executor.copy_to_memory(plan_all())
        executor.begin_stable_write(plan_all())
        assert gate.reached.wait(timeout=10.0)
        for tick in range(4, 10):
            executor.set_current_tick(tick)    # time moves on in flight
            assert not executor.stable_write_finished()
        gate.release()
        assert executor.writer.wait_idle(timeout=10.0)
        assert executor.stable_write_finished()
        assert executor.writer.last_committed == (1, 3)
        assert store.latest_consistent().tick == 3

    def test_image_matches_table(self, table, store, geometry):
        executor = RealExecutor(table, store)
        executor.set_current_tick(0)
        executor.copy_to_memory(plan_all())
        executor.begin_stable_write(plan_all())
        image = store.read_image(0)
        assert image == table.full_image()

    def test_empty_write_set_commits_immediately(self, table, store):
        plan = CheckpointPlan(
            checkpoint_index=0,
            eager_copy_ids=empty_ids(),
            write_ids=empty_ids(),
            layout=DiskLayout.DOUBLE_BACKUP,
        )
        executor = RealExecutor(table, store)
        executor.set_current_tick(7)
        executor.copy_to_memory(plan)
        executor.begin_stable_write(plan)
        assert executor.stable_write_finished()
        assert store.latest_consistent().tick == 7


class TestInlineFailure:
    def test_failed_flush_is_sticky_and_never_finishes(self, table, store):
        """The store keeps the uncommitted checkpoint, the submitting call
        raises chained to the store's error, and so does every check."""
        executor = RealExecutor(table, store)
        executor.set_current_tick(0)
        executor.copy_to_memory(plan_all(0))
        executor.begin_stable_write(plan_all(0))
        assert executor.stable_write_finished()

        def explode():
            raise StorageError("injected flush fault")

        store.write_fault_hook = explode
        executor.set_current_tick(1)
        with pytest.raises(CheckpointWriterError) as failure:
            executor.begin_stable_write(plan_all(1))
        assert isinstance(failure.value.__cause__, StorageError)
        for _ in range(2):
            with pytest.raises(CheckpointWriterError):
                executor.stable_write_finished()
            with pytest.raises(CheckpointWriterError):
                executor.writer.check()
        assert executor.writer.last_committed == (1, 0)
        assert store.latest_consistent().tick == 0
        executor.shutdown()


class TestCutConsistency:
    def test_eager_copy_preserves_cut_values(
        self, table, store, geometry, pool
    ):
        """Updates after the cut must not leak into the checkpoint."""
        all_ids = np.arange(geometry.num_objects, dtype=np.int64)
        plan = CheckpointPlan(
            checkpoint_index=0,
            eager_copy_ids=all_ids,
            write_ids=None,
            layout=DiskLayout.DOUBLE_BACKUP,
        )
        executor, gate = gated_executor(table, store, pool)
        executor.set_current_tick(0)
        cut_image = table.full_image()
        executor.copy_to_memory(plan)
        executor.begin_stable_write(plan)
        assert gate.reached.wait(timeout=10.0)
        table.flat[:] = 999_999  # post-cut mutation, before any staging
        gate.release()
        assert executor.writer.wait_idle(timeout=10.0)
        assert store.read_image(0) == cut_image

    def test_copy_on_update_preserves_cut_values(
        self, table, store, geometry, pool
    ):
        plan = plan_all()
        executor, gate = gated_executor(table, store, pool)
        executor.set_current_tick(0)
        cut_image = table.full_image()
        executor.copy_to_memory(plan)      # no eager ids: pure COU
        executor.begin_stable_write(plan)
        assert gate.reached.wait(timeout=10.0)
        # First-touch old-value save, then the update -- the engine's order.
        touched = np.array([0, 3], dtype=np.int64)
        executor.handle_updates(
            UpdateEffects(bit_tests=2, first_touch_ids=touched, copy_ids=touched)
        )
        table.write_objects(touched, np.full((2, 8), 7, dtype=np.uint32))
        gate.release()
        assert executor.writer.wait_idle(timeout=10.0)
        assert store.read_image(0) == cut_image

    def test_copy_once_guard(self, table, store, pool):
        """A second save of the same object must not clobber the first."""
        executor, gate = gated_executor(table, store, pool)
        executor.set_current_tick(0)
        executor.copy_to_memory(plan_all())
        executor.begin_stable_write(plan_all())
        assert gate.reached.wait(timeout=10.0)
        ids = np.array([2], dtype=np.int64)
        original = table.read_objects(ids).copy()
        executor.handle_updates(
            UpdateEffects(bit_tests=1, first_touch_ids=ids, copy_ids=ids)
        )
        table.write_objects(ids, np.full((1, 8), 1, dtype=np.uint32))
        # A buggy caller reports the same object as needing a copy again.
        executor.handle_updates(
            UpdateEffects(bit_tests=1, first_touch_ids=ids, copy_ids=ids)
        )
        gate.release()
        assert executor.writer.wait_idle(timeout=10.0)
        restored = np.frombuffer(
            store.read_objects(0, ids), dtype=np.uint32
        ).reshape(1, 8)
        assert np.array_equal(restored, original)


class TestLogStoreExecutor:
    def test_full_dump_and_partial_via_log(self, table, geometry, tmp_path):
        from repro.storage.checkpoint_log import CheckpointLogStore

        with CheckpointLogStore(tmp_path, geometry) as store:
            executor = RealExecutor(table, store)
            # Checkpoint 0: a full dump straight to the log.
            plan = CheckpointPlan(
                checkpoint_index=0,
                eager_copy_ids=empty_ids(),
                write_ids=None,
                layout=DiskLayout.LOG,
                is_full_dump=True,
            )
            executor.set_current_tick(4)
            executor.copy_to_memory(plan)
            executor.begin_stable_write(plan)
            assert executor.stable_write_finished()
            image, epoch, tick = store.restore_image()
            assert (epoch, tick) == (1, 4)
            assert image == table.full_image()
            # Checkpoint 1: a partial append of one changed object.
            table.write_objects(
                np.array([3]), np.full((1, 8), 77, dtype=np.uint32)
            )
            plan = CheckpointPlan(
                checkpoint_index=1,
                eager_copy_ids=empty_ids(),
                write_ids=np.array([3], dtype=np.int64),
                layout=DiskLayout.LOG,
            )
            executor.set_current_tick(9)
            executor.copy_to_memory(plan)
            executor.begin_stable_write(plan)
            image, epoch, tick = store.restore_image()
            assert (epoch, tick) == (2, 9)
            assert image == table.full_image()


class TestValidation:
    def test_geometry_mismatch_rejected(self, table, tmp_path):
        other = StateGeometry(rows=16, columns=8, cell_bytes=4, object_bytes=32)
        with DoubleBackupStore(tmp_path, other) as store:
            with pytest.raises(EngineError):
                RealExecutor(table, store)

    def test_overlapping_writes_rejected(self, table, store, pool):
        executor, gate = gated_executor(table, store, pool)
        executor.set_current_tick(0)
        executor.begin_stable_write(plan_all(0))
        assert gate.reached.wait(timeout=10.0)
        with pytest.raises(EngineError):
            executor.begin_stable_write(plan_all(1))
        gate.release()
        assert executor.writer.wait_idle(timeout=10.0)


def test_no_second_write_path_grows_back():
    """Every checkpoint reaches disk through ``flush_checkpoint_job``: no
    per-tick budget, no drain, and no other store write call in ``src/``."""
    root = pathlib.Path(repro.__file__).parent
    sources = {
        path.relative_to(root).as_posix(): path.read_text()
        for path in root.rglob("*.py")
    }
    assert not [name for name, text in sources.items()
                if "writer_bytes_per_tick" in text]
    assert not hasattr(RealExecutor, "drain")
    engine = {name: text for name, text in sources.items()
              if not name.startswith("storage/")}
    chunked = re.compile(
        r"(?<!self)\.(write_objects|append_objects|commit_checkpoint)\("
    )
    assert not [name for name, text in engine.items()
                if chunked.search(text)]
    vectored = [name for name, text in engine.items()
                for _ in re.finditer(r"\.write_checkpoint_vectored\(", text)]
    assert vectored == ["engine/writer.py"]
    assert ".write_checkpoint_vectored(" in inspect.getsource(
        flush_checkpoint_job
    )
