"""Tests for the real threaded implementation of NS and COU."""

import threading

import numpy as np
import pytest

from repro.config import StateGeometry
from repro.engine.writer_pool import CheckpointWriterPool
from repro.errors import ValidationError
from repro.storage.double_backup import DoubleBackupStore
from repro.validation.realimpl import RealCheckpointServer
from repro.workloads.zipf import ZipfTrace

#: Tiny geometry so each test runs in well under a second.
TEST_GEOMETRY = StateGeometry(rows=4_096, columns=8)


class TestConstruction:
    def test_unsupported_algorithm_rejected(self):
        with pytest.raises(ValidationError):
            RealCheckpointServer("partial-redo")

    def test_context_manager_cleans_up(self, tmp_path):
        with RealCheckpointServer(
            "naive-snapshot", geometry=TEST_GEOMETRY, directory=tmp_path
        ) as server:
            server.run(updates_per_tick=100, num_ticks=5)
        # Directory was caller-provided, so files stay for inspection.
        assert (tmp_path / "backup0.db").exists()


@pytest.mark.parametrize("algorithm", ["naive-snapshot", "copy-on-update"])
class TestRuns:
    def test_run_produces_measurements(self, algorithm, tmp_path):
        with RealCheckpointServer(
            algorithm, geometry=TEST_GEOMETRY, directory=tmp_path
        ) as server:
            result = server.run(updates_per_tick=500, num_ticks=30)
        assert result.ticks == 30
        assert result.tick_overhead.shape == (30,)
        assert (result.tick_overhead >= 0).all()
        assert result.checkpoint_durations, "no checkpoint completed"
        assert result.avg_checkpoint_time > 0
        assert result.restore_seconds > 0
        assert result.recovery_time >= result.restore_seconds

    def test_checkpoint_on_disk_is_consistent(self, algorithm, tmp_path):
        with RealCheckpointServer(
            algorithm, geometry=TEST_GEOMETRY, directory=tmp_path
        ) as server:
            server.run(updates_per_tick=500, num_ticks=30)
        with DoubleBackupStore(tmp_path, TEST_GEOMETRY) as store:
            found = store.latest_consistent()
            image = store.read_image(found.backup_index)
            assert len(image) == TEST_GEOMETRY.checkpoint_bytes

    def test_summary_keys(self, algorithm, tmp_path):
        with RealCheckpointServer(
            algorithm, geometry=TEST_GEOMETRY, directory=tmp_path
        ) as server:
            result = server.run(updates_per_tick=200, num_ticks=10)
        summary = result.summary()
        for key in ("algorithm", "avg_overhead_s", "avg_checkpoint_s",
                    "recovery_s", "checkpoints_completed"):
            assert key in summary


class TestCutConsistency:
    """The threaded writer must emit exactly the cut state despite racing
    the mutator -- the core claim of the Section 3 COW protocol."""

    @pytest.mark.parametrize("algorithm", ["naive-snapshot", "copy-on-update"])
    def test_disk_image_matches_cut(self, algorithm, tmp_path):
        # 16-object gather rounds: many small stripe-lock handoffs per flush.
        with CheckpointWriterPool(1, chunk_objects=16) as pool:
            with RealCheckpointServer(
                algorithm,
                geometry=TEST_GEOMETRY,
                directory=tmp_path,
                verify_consistency=True,
                num_stripes=4,      # coarse stripes stress lock contention
                writer_pool=pool,
            ) as server:
                server.run(updates_per_tick=3_000, num_ticks=40)
                assert server.verify_last_checkpoint()

    def test_verify_requires_flag(self, tmp_path):
        with RealCheckpointServer(
            "copy-on-update", geometry=TEST_GEOMETRY, directory=tmp_path
        ) as server:
            server.run(updates_per_tick=100, num_ticks=5)
            from repro.errors import ValidationError

            with pytest.raises(ValidationError):
                server.verify_last_checkpoint()


class TestCopyOnUpdateSemantics:
    @staticmethod
    def saved_in_one_tick(directory, updates_per_tick):
        """Old values Handle-Update saves for one tick of updates landing
        while the first checkpoint (write set: everything) is in flight."""
        flush_may_proceed = threading.Event()
        cells = next(ZipfTrace(
            TEST_GEOMETRY, updates_per_tick=updates_per_tick, skew=0.8,
            num_ticks=1, seed=3,
        ).ticks())
        values = np.arange(1 << 16, dtype=np.uint32)
        with RealCheckpointServer(
            "copy-on-update", geometry=TEST_GEOMETRY, directory=directory
        ) as server:
            # Hold the flush so the checkpoint stays in flight whatever the
            # scheduler does: the count cannot depend on timing.
            server._store.write_fault_hook = flush_may_proceed.wait
            try:
                server._begin_checkpoint(0, cut_tick=0)
                server._apply_updates(cells, values)
                saved = int(server._saved_mask.sum())
                distinct = len(set(
                    TEST_GEOMETRY.object_of_cell(cells).tolist()
                ))
                assert saved == distinct
                # Same objects again: no first touch, nothing saved.
                server._apply_updates(cells, values)
                assert int(server._saved_mask.sum()) == saved
            finally:
                flush_may_proceed.set()
        return saved

    def test_cou_overhead_scales_with_updates(self, tmp_path):
        """A count, not a wall clock (timing medians of 25 ticks flip under
        load): one old-value save per distinct object updated, so 5,000
        updates a tick save more than 50 do."""
        small = self.saved_in_one_tick(tmp_path / "small", 50)
        large = self.saved_in_one_tick(tmp_path / "large", 5_000)
        assert 0 < small <= 50
        assert large > small

    def test_tick_period_respected(self, tmp_path):
        import time

        period = 0.005
        with RealCheckpointServer(
            "naive-snapshot", geometry=TEST_GEOMETRY, directory=tmp_path,
            tick_period=period, query_reads=0,
        ) as server:
            started = time.perf_counter()
            server.run(updates_per_tick=10, num_ticks=20)
            elapsed = time.perf_counter() - started
        assert elapsed >= 20 * period * 0.9


class TestWriterFaults:
    def test_store_fault_surfaces_as_validation_error(self, tmp_path):
        """A writer-thread store failure must not vanish: satellite of the
        silent ``writer.join(timeout=...)`` bug -- the run now raises with
        the pending writer error attached."""
        from repro.errors import StorageError

        with pytest.raises(ValidationError) as excinfo:
            with RealCheckpointServer(
                "naive-snapshot", geometry=TEST_GEOMETRY, directory=tmp_path
            ) as server:

                def explode():
                    raise StorageError("injected writer fault")

                server._store.write_fault_hook = explode
                server.run(updates_per_tick=100, num_ticks=60)
        assert "injected writer fault" in str(excinfo.value)
