"""Tests for the engine's off-thread flush mode (a writer pool handle)."""

import numpy as np
import pytest

from repro.config import StateGeometry
from repro.core.registry import ALGORITHM_KEYS
from repro.engine import executor, writer
from repro.engine.recovery import RecoveryManager
from repro.engine.server import DurableGameServer
from repro.engine.writer_pool import CheckpointWriterPool
from repro.errors import CheckpointWriterError, StorageError

GEOMETRY = StateGeometry(rows=400, columns=10)


@pytest.fixture
def app_class(random_walk_app):
    """The RandomWalkApp class from the shared conftest."""
    return type(random_walk_app)


@pytest.fixture
def pool(monkeypatch):
    """One worker gathering 4 objects a round: many stripe-lock handoffs."""
    monkeypatch.setattr(writer, "CHUNK_OBJECTS", 4)
    pool = CheckpointWriterPool(1)
    yield pool
    pool.kill()


class TestAsyncServerMode:
    @pytest.mark.parametrize("algorithm", ALGORITHM_KEYS)
    def test_async_recovery_is_bit_exact(
        self, algorithm, app_class, pool, tmp_path
    ):
        app = app_class(GEOMETRY)
        server = DurableGameServer(
            app, tmp_path, algorithm=algorithm, seed=11, writer_pool=pool,
        )
        server.run_ticks(50)
        live = server.table.cells.copy()
        server.crash()
        report = RecoveryManager(app, tmp_path, seed=11).recover()
        assert np.array_equal(report.table.cells, live)

    @pytest.mark.parametrize("algorithm", ["naive-snapshot", "copy-on-update"])
    def test_coarse_stripes_small_chunks(
        self, algorithm, app_class, tmp_path, monkeypatch
    ):
        """The only flush with 16-object gather rounds against 4 stripes:
        many lock handoffs, each contended by 3,000 updates a tick."""
        geometry = StateGeometry(rows=4_096, columns=8)
        monkeypatch.setattr(writer, "CHUNK_OBJECTS", 16)
        monkeypatch.setattr(executor, "NUM_STRIPES", 4)
        with CheckpointWriterPool(1) as pool:
            server = DurableGameServer(
                app_class(geometry, updates_per_tick=3_000), tmp_path / "async",
                algorithm=algorithm, seed=5, writer_pool=pool,
            )
            assert server._executor._locks.num_stripes == 4
            server.run_ticks(40)
            server.wait_checkpoint_idle()
            server.crash()
        report = RecoveryManager(
            app_class(geometry, updates_per_tick=3_000), tmp_path / "async",
            seed=5,
        ).recover()
        assert not report.used_seed_fallback
        with DurableGameServer(
            app_class(geometry, updates_per_tick=3_000), tmp_path / "reference",
            algorithm=algorithm, seed=5,
        ) as reference:
            reference.run_ticks(40)
            assert np.array_equal(report.table.cells, reference.table.cells)

    @pytest.mark.parametrize("algorithm", ALGORITHM_KEYS)
    def test_serial_and_async_recover_identically(
        self, algorithm, app_class, pool, tmp_path
    ):
        """Acceptance: both writer modes recover to bit-identical state."""
        recovered = []
        for mode, writer_pool in (("sync", None), ("async", pool)):
            app = app_class(GEOMETRY)
            directory = tmp_path / mode
            server = DurableGameServer(
                app, directory, algorithm=algorithm, seed=3,
                writer_pool=writer_pool,
            )
            server.run_ticks(40)
            server.crash()
            report = RecoveryManager(app, directory, seed=3).recover()
            recovered.append(report.table.cells)
        assert np.array_equal(recovered[0], recovered[1])

    @pytest.mark.parametrize("algorithm", ALGORITHM_KEYS)
    def test_crash_during_async_flush_recovers(
        self, algorithm, app_class, pool, tmp_path
    ):
        """Kill the writer mid-flush; recovery must still be exact.

        Covers both disk organizations (four double-backup algorithms, two
        log-organized ones): the torn checkpoint is ignored and recovery
        restores the last *committed* checkpoint plus log replay.
        """
        app = app_class(GEOMETRY)
        server = DurableGameServer(
            app, tmp_path, algorithm=algorithm, seed=23, writer_pool=pool,
        )
        server.run_ticks(30)
        server.wait_checkpoint_idle()
        committed_before = server.last_committed_checkpoint_tick
        assert committed_before is not None

        calls = {"count": 0}

        def explode():
            calls["count"] += 1
            raise StorageError("injected mid-flush fault")

        server._store.write_fault_hook = explode
        server.run_tick()  # its boundary hands the next checkpoint over
        with pytest.raises(CheckpointWriterError):
            server.wait_checkpoint_idle()
        assert calls["count"] == 1, "the flush made one hooked write"
        server.crash()

        report = RecoveryManager(app, tmp_path, seed=23).recover()
        # The recovery checkpoint is the last committed one -- never the
        # torn in-flight flush the fault killed -- and replay covers every
        # logged tick: ticks 0 .. 30.
        assert report.checkpoint_tick == committed_before
        assert report.next_tick == 31
        reference = DurableGameServer(
            app_class(GEOMETRY), tmp_path / "ref",
            algorithm=algorithm, seed=23,
        )
        reference.run_ticks(report.next_tick)
        assert np.array_equal(
            report.table.cells, reference.table.cells
        )
        reference.close()

    def test_writer_error_reaches_game_thread(self, app_class, pool, tmp_path):
        app = app_class(GEOMETRY)
        server = DurableGameServer(
            app, tmp_path, algorithm="naive-snapshot", seed=1,
            writer_pool=pool,
        )

        def explode():
            raise StorageError("injected fault")

        server._store.write_fault_hook = explode
        with pytest.raises(CheckpointWriterError):
            server.run_ticks(500)
        server.crash()

    def test_overlap_ratio_tracked(self, app_class, tmp_path, monkeypatch):
        app = app_class(GEOMETRY)
        monkeypatch.setattr(writer, "CHUNK_OBJECTS", 1)
        pool = CheckpointWriterPool(1)
        server = DurableGameServer(
            app, tmp_path, algorithm="naive-snapshot", seed=2,
            writer_pool=pool,
        )
        server.run_ticks(40)
        for _ in range(500):  # first flush depends on writer scheduling
            if server.stats.bytes_written > 0:
                break
            server.run_tick()
        assert server.stats.checkpoint_overlap_ticks >= 0
        assert server.stats.bytes_written > 0
        server.close()
        pool.close()
