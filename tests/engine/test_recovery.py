"""Tests for crash recovery: restore + logical-log replay."""

import pytest

from repro.core.registry import ALGORITHM_KEYS
from repro.engine.recovery import RecoveryManager
from repro.engine.server import DurableGameServer
from repro.engine.writer_pool import CheckpointWriterPool
from tests.conftest import FlushGate


def gated_victim(app, tmp_path, algorithm, pool, armed):
    """A server on ``pool`` whose store's flushes stop at a failing
    :class:`FlushGate` once it is armed."""
    victim = DurableGameServer(
        app, tmp_path / "victim", algorithm=algorithm, seed=7,
        writer_pool=pool,
    )
    victim._store.write_fault_hook = FlushGate(fail=True, armed=armed)
    return victim


def crash_in_flight(victim):
    """Crash with the gated checkpoint in flight: it fails at the gate, so
    the store keeps it uncommitted."""
    gate = victim._store.write_fault_hook
    assert gate.reached.wait(timeout=10.0)
    gate.release()
    victim.crash()


def run_pair(app_factory, tmp_path, algorithm, ticks, seed=7, **server_kwargs):
    """Run a reference server and an identical crashing server."""
    reference = DurableGameServer(
        app_factory(), tmp_path / "reference", algorithm=algorithm, seed=seed,
        **server_kwargs,
    )
    reference.run_ticks(ticks)
    victim = DurableGameServer(
        app_factory(), tmp_path / "victim", algorithm=algorithm, seed=seed,
        **server_kwargs,
    )
    victim.run_ticks(ticks)
    victim.crash()
    return reference, victim


class TestExactRecovery:
    @pytest.mark.parametrize("algorithm", ALGORITHM_KEYS)
    def test_recovery_is_bit_exact(self, algorithm, random_walk_app, tmp_path):
        factory = lambda: random_walk_app
        reference, victim = run_pair(factory, tmp_path, algorithm, ticks=60)
        report = RecoveryManager(
            random_walk_app, victim.directory, seed=7
        ).recover()
        assert report.table.equals(reference.table)
        assert report.next_tick == 60
        reference.close()

    def test_recovery_without_any_checkpoint(self, random_walk_app, tmp_path):
        """Crash before the first commit: seed fallback + full replay.  The
        first checkpoint is held at a gate on a one-worker pool and fails
        there, so none ever commits."""
        with CheckpointWriterPool(1) as pool:
            victim = gated_victim(
                random_walk_app, tmp_path, "copy-on-update", pool, armed=True,
            )
            victim.run_ticks(2)
            crash_in_flight(victim)
        report = RecoveryManager(
            random_walk_app, victim.directory, seed=7
        ).recover()
        assert report.used_seed_fallback
        assert report.bytes_restored == 0
        assert report.ticks_replayed == 2
        reference = DurableGameServer(
            random_walk_app, tmp_path / "reference", seed=7
        )
        reference.run_ticks(2)
        assert report.table.equals(reference.table)
        reference.close()

    def test_recovered_rng_continues_identically(
        self, random_walk_app, tmp_path
    ):
        """After recovery the generator must continue the pre-crash stream."""
        factory = lambda: random_walk_app
        reference, victim = run_pair(factory, tmp_path, "copy-on-update",
                                     ticks=30)
        report = RecoveryManager(
            random_walk_app, victim.directory, seed=7
        ).recover()
        # Drive both worlds three more ticks by hand.
        table_ref, rng_ref = reference.table, reference._rng
        table_rec, rng_rec = report.table, report.rng
        for tick in range(30, 33):
            for table, rng in ((table_ref, rng_ref), (table_rec, rng_rec)):
                plan = random_walk_app.plan_tick(table, rng, tick)
                table.apply_updates(plan.rows, plan.columns, plan.values)
        assert table_rec.equals(table_ref)
        reference.close()

    def test_recovery_timings_measured(self, random_walk_app, tmp_path):
        factory = lambda: random_walk_app
        reference, victim = run_pair(factory, tmp_path, "copy-on-update",
                                     ticks=40)
        report = RecoveryManager(
            random_walk_app, victim.directory, seed=7
        ).recover()
        assert report.restore_seconds > 0
        assert report.replay_seconds >= 0
        assert report.recovery_seconds == pytest.approx(
            report.restore_seconds + report.replay_seconds
        )
        reference.close()

    def test_report_metadata(self, random_walk_app, tmp_path):
        factory = lambda: random_walk_app
        reference, victim = run_pair(factory, tmp_path, "naive-snapshot",
                                     ticks=50)
        report = RecoveryManager(
            random_walk_app, victim.directory, seed=7
        ).recover()
        assert report.checkpoint_epoch >= 1
        assert 0 <= report.checkpoint_tick < 50
        assert report.ticks_replayed == 49 - report.checkpoint_tick
        assert not report.used_seed_fallback
        reference.close()


class TestRepeatedCrashes:
    def test_crash_recover_crash_recover(self, random_walk_app, tmp_path):
        """Recovery output is stable: recovering twice gives the same state."""
        factory = lambda: random_walk_app
        reference, victim = run_pair(factory, tmp_path, "copy-on-update",
                                     ticks=45)
        manager = RecoveryManager(random_walk_app, victim.directory, seed=7)
        first = manager.recover()
        second = manager.recover()
        assert first.table.equals(second.table)
        assert first.table.equals(reference.table)
        reference.close()


class TestCrashTimingMatrix:
    @pytest.mark.parametrize("ticks", [1, 7, 16, 33, 64])
    def test_crash_at_various_points(self, ticks, random_walk_app, tmp_path):
        """Checkpoints commit for the first half of the run; the next one
        is then held in flight on a one-worker pool while the second half
        ticks, and the crash tears it."""
        with CheckpointWriterPool(1) as pool:
            victim = gated_victim(
                random_walk_app, tmp_path, "copy-on-update", pool,
                armed=False,
            )
            for _ in range(ticks // 2):
                victim.run_tick()
                victim.wait_checkpoint_idle()
            victim._store.write_fault_hook.armed = True
            victim.run_ticks(ticks - ticks // 2)
            crash_in_flight(victim)
        report = RecoveryManager(
            random_walk_app, victim.directory, seed=7
        ).recover()
        assert report.next_tick == ticks
        assert report.used_seed_fallback == (ticks // 2 == 0)
        if ticks // 2:
            assert report.checkpoint_tick == ticks // 2 - 1
        reference = DurableGameServer(
            random_walk_app, tmp_path / "reference", seed=7
        )
        reference.run_ticks(ticks)
        assert report.table.equals(reference.table)
        reference.close()


import os

import numpy as np

from repro.config import StateGeometry
from repro.errors import (
    CheckpointWriterError,
    EngineError,
    RecoveryError,
    StorageError,
)
from repro.storage.action_log import ActionLog, TickRecord
from repro.storage.double_backup import DoubleBackupStore
from repro.storage.layout import RECORD_HEADER_BYTES


class TestOneRecoveryPath:
    def test_no_second_path_grows_back(self):
        """Recovery is restore-then-replay and nothing else: no strategy
        argument on the manager, no reader thread or queue in its module."""
        import inspect
        import re

        import repro.engine.recovery as recovery

        parameters = inspect.signature(RecoveryManager.__init__).parameters
        assert list(parameters) == ["self", "app", "directory", "seed"]
        assert parameters["seed"].default == 0
        assert not re.search(
            r"^\s*(import|from)\s+(threading|queue)\b",
            inspect.getsource(recovery), re.MULTILINE,
        )


class TestActionLogEdgeCases:
    def test_torn_tail_record_truncates_cleanly(
        self, random_walk_app, tmp_path
    ):
        """A crash mid-append loses exactly the torn tick, nothing else.
        A checkpoint every 16 ticks leaves the torn tick uncovered, as a
        crash inside its append does."""
        factory = lambda: random_walk_app
        reference, victim = run_pair(factory, tmp_path, "copy-on-update",
                                     ticks=40, min_checkpoint_interval_ticks=16)
        log_path = os.path.join(victim.directory, ActionLog.FILE_NAME)
        with open(log_path, "r+b") as handle:
            handle.truncate(os.path.getsize(log_path) - 5)
        report = RecoveryManager(
            random_walk_app, victim.directory, seed=7
        ).recover()
        assert report.next_tick == 39
        replica = DurableGameServer(
            random_walk_app, tmp_path / "replica",
            algorithm="copy-on-update", seed=7,
        )
        replica.run_ticks(39)
        assert report.table.equals(replica.table)
        replica.close()
        reference.close()

    def test_generator_lost_with_the_cut_tick_record_raises(
        self, random_walk_app, tmp_path
    ):
        """The newest checkpoint covers the last tick, whose record is then
        torn: the table restores from the checkpoint, but the generator
        after that tick is on no disk, so reading it raises."""
        server = DurableGameServer(random_walk_app, tmp_path, seed=7)
        server.run_ticks(10)
        expected = server.table.copy()
        server.crash()
        # The cut at tick 9 sealed its record in a segment of its own.
        log_path = os.path.join(tmp_path, "actions.9.log")
        with open(log_path, "r+b") as handle:
            handle.truncate(os.path.getsize(log_path) - 5)
        report = RecoveryManager(random_walk_app, tmp_path, seed=7).recover()
        assert (report.checkpoint_tick, report.next_tick) == (9, 10)
        assert report.table.equals(expected)
        with pytest.raises(RecoveryError, match="generator"):
            report.rng

    def test_log_starting_after_cut_raises(self, tmp_path, random_walk_app):
        """A checkpoint whose follow-on ticks are missing cannot replay."""
        geometry = random_walk_app.geometry
        with DoubleBackupStore(tmp_path, geometry) as store:
            store.begin_checkpoint(0, 1)
            ids = np.arange(geometry.num_objects, dtype=np.int64)
            store.write_objects(
                ids, bytes(geometry.num_objects * geometry.object_bytes)
            )
            store.commit_checkpoint(10)
        with ActionLog(tmp_path) as log:
            # First logged tick is 12: the record for tick 11 is missing.
            log.append(TickRecord(
                tick=12, rng_state=np.random.default_rng(0).bit_generator.state
            ))
        with pytest.raises(RecoveryError, match="skips"):
            RecoveryManager(random_walk_app, tmp_path, seed=7).recover()

    def test_corrupt_record_inside_the_tail_raises(
        self, random_walk_app, tmp_path
    ):
        """A record that fails its CRC with intact ticks after it is a hole,
        not a torn tail: recovery refuses rather than stop short.  A
        checkpoint every 16 ticks leaves a tail to replay."""
        from tests.storage.test_action_log import flip_byte, frames

        factory = lambda: random_walk_app
        reference, victim = run_pair(factory, tmp_path, "copy-on-update",
                                     ticks=40, min_checkpoint_interval_ticks=16)
        reference.close()
        clean = RecoveryManager(random_walk_app, victim.directory,
                                seed=7).recover()
        assert clean.ticks_replayed >= 2
        log_path = os.path.join(victim.directory, ActionLog.FILE_NAME)
        offset = frames(log_path)[-clean.ticks_replayed][0]
        flip_byte(log_path, offset + RECORD_HEADER_BYTES + 3)
        with pytest.raises(RecoveryError, match="corrupt"):
            RecoveryManager(random_walk_app, victim.directory,
                            seed=7).recover()


class TestReplayReadsTheTailOnly:
    """Replay reads the log from the checkpoint's cut on: what it verifies
    and unpickles is the tail, however long the log is.  A checkpoint every
    16 ticks leaves a tail."""

    TICKS = 300

    def crashed(self, app, tmp_path):
        server = DurableGameServer(
            app, tmp_path / "victim", seed=7, min_checkpoint_interval_ticks=16
        )
        server.run_ticks(self.TICKS)
        expected = server.table.copy()
        server.crash()
        return server.directory, expected

    def test_replay_verifies_and_unpickles_the_tail_alone(
        self, random_walk_app, tmp_path, monkeypatch
    ):
        from repro.obs.metrics import global_registry, reset_global_registry
        from tests.storage.test_action_log import count_unpickles, frames

        directory, expected = self.crashed(random_walk_app, tmp_path)
        calls = count_unpickles(monkeypatch)
        reset_global_registry()
        try:
            report = RecoveryManager(
                random_walk_app, directory, seed=7
            ).recover()
            published = global_registry().value("recovery_log_bytes_read")
        finally:
            reset_global_registry()
        assert report.table.equals(expected)
        assert report.next_tick == self.TICKS
        tail = report.ticks_replayed
        assert 0 < tail < self.TICKS // 8
        assert len(calls) == tail
        sizes = [size for _, size in frames(
            os.path.join(directory, ActionLog.FILE_NAME)
        )]
        # The replayed records, plus the newest one that open verified.
        assert report.log_bytes_read == sum(sizes[-tail:]) + sizes[-1]
        assert published == report.log_bytes_read

    def test_bad_byte_before_the_cut_changes_nothing(
        self, random_walk_app, tmp_path
    ):
        """A flipped byte in tick 0's payload used to end the log there:
        recovery replayed nothing and the server took the directory for an
        empty one.  Records before the cut are never read now."""
        from repro.errors import EngineError
        from tests.storage.test_action_log import flip_byte

        directory, expected = self.crashed(random_walk_app, tmp_path)
        clean = RecoveryManager(random_walk_app, directory, seed=7).recover()
        flip_byte(os.path.join(directory, "actions.0.log"),
                  RECORD_HEADER_BYTES + 10)
        flipped = RecoveryManager(random_walk_app, directory, seed=7).recover()
        assert flipped.table.equals(clean.table)
        assert flipped.table.equals(expected)
        assert (flipped.next_tick, flipped.ticks_replayed,
                flipped.log_bytes_read) == (
            clean.next_tick, clean.ticks_replayed, clean.log_bytes_read)
        with pytest.raises(EngineError, match="already contains"):
            DurableGameServer(random_walk_app, directory, seed=7)


class TestCrashMidFlush:
    @pytest.mark.parametrize(
        "algorithm", ["copy-on-update", "partial-redo"]
    )
    def test_recovers_like_a_replica(
        self, algorithm, random_walk_app, tmp_path
    ):
        """Fail the inline writer's fourth flush: that tick fails, every
        later one raises, and recovery equals a crash-free replica
        bit-for-bit on both disk organizations."""
        server = DurableGameServer(
            random_walk_app, tmp_path / "victim", algorithm=algorithm,
            seed=7,
        )
        calls = {"count": 0}

        def explode():
            calls["count"] += 1
            if calls["count"] > 3:
                raise StorageError("injected mid-flush fault")

        server._store.write_fault_hook = explode
        server.run_ticks(3)
        with pytest.raises(CheckpointWriterError) as failure:
            server.run_tick()
        assert isinstance(failure.value.__cause__, StorageError)
        for _ in range(2):
            with pytest.raises(EngineError, match="recover it instead"):
                server.run_tick()
            with pytest.raises(CheckpointWriterError):
                server._executor.writer.check()
        assert server.ticks_run == 3
        assert server.last_committed_checkpoint_tick == 2
        server.crash()

        report = RecoveryManager(
            random_walk_app, server.directory, seed=7
        ).recover()
        # The failed tick's record was durable before its cut.
        assert (report.checkpoint_tick, report.next_tick) == (2, 4)
        replica = DurableGameServer(
            random_walk_app, tmp_path / "replica", algorithm=algorithm,
            seed=7,
        )
        replica.run_ticks(report.next_tick)
        assert report.table.equals(replica.table)
        replica.close()


class TestRestoreIntoTheTable:
    """Recovery hands the stores the table's own memory: nothing
    image-sized is staged on the way."""

    #: 4 MiB of state in 512-byte objects (8192 of them).
    GEOMETRY = StateGeometry(
        rows=131_072, columns=8, cell_bytes=4, object_bytes=512
    )

    RECORD_OBJECTS = 512

    def crashed_world(self, tmp_path, algorithm):
        from tests.conftest import RandomWalkApp

        app = RandomWalkApp(self.GEOMETRY, updates_per_tick=64)
        # A checkpoint commits at every cut: the log holds a full dump and
        # the partials after it, framed RECORD_OBJECTS objects a record.
        server = DurableGameServer(
            app, tmp_path / algorithm, algorithm=algorithm, seed=3,
        )
        server.run_ticks(40)
        expected = server.table.copy()
        server.crash()
        return app, server.directory, expected

    @pytest.mark.parametrize("algorithm", ["copy-on-update",
                                           "cou-partial-redo"])
    def test_recovery_stages_no_image(self, algorithm, tmp_path):
        import tracemalloc

        app, directory, expected = self.crashed_world(tmp_path, algorithm)
        manager = RecoveryManager(app, directory, seed=3)
        manager.recover()  # imports and lazy set-up happen untraced
        tracemalloc.start()
        try:
            report = manager.recover()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not report.used_seed_fallback
        assert report.table.equals(expected)
        table_bytes = self.GEOMETRY.checkpoint_bytes
        # The log's scratch holds one record: a chunk of objects, their
        # ids and the header.
        scratch = self.RECORD_OBJECTS * (512 + 8) + 64
        assert peak <= table_bytes + scratch + (1 << 20)
        assert report.checkpoint_epoch >= 2
        assert report.bytes_restored == table_bytes
        assert report.bytes_read >= table_bytes

    @pytest.mark.parametrize("algorithm", ["copy-on-update",
                                           "cou-partial-redo"])
    def test_bytes_read_reaches_the_global_row(self, algorithm, tmp_path):
        from repro.obs.metrics import global_registry, reset_global_registry

        app, directory, _ = self.crashed_world(tmp_path, algorithm)
        reset_global_registry()
        try:
            report = RecoveryManager(app, directory, seed=3).recover()
            row = global_registry()
            assert row.value("recovery_bytes_read") == report.bytes_read > 0
            assert row.value("recovery_bytes_restored") == (
                report.bytes_restored
            )
        finally:
            reset_global_registry()

    def test_no_out_forms_equal_the_out_forms(self, tmp_path):
        from repro.state.table import GameStateTable
        from repro.storage.checkpoint_log import CheckpointLogStore

        app, directory, _ = self.crashed_world(tmp_path, "copy-on-update")
        table = GameStateTable(self.GEOMETRY, dtype=app.dtype)
        with DoubleBackupStore(directory, self.GEOMETRY) as store:
            index = store.latest_consistent().backup_index
            store.read_image(index, out=table.image_buffer())
            assert bytes(store.read_image(index)) == table.full_image()
        app, directory, _ = self.crashed_world(tmp_path, "cou-partial-redo")
        table = GameStateTable(self.GEOMETRY, dtype=app.dtype)
        with CheckpointLogStore(directory, self.GEOMETRY) as store:
            _, epoch, tick = store.restore_image(out=table.image_buffer())
            image, same_epoch, same_tick = store.restore_image()
            assert (epoch, tick) == (same_epoch, same_tick)
            assert bytes(image) == table.full_image()
            with pytest.raises(StorageError):
                store.restore_image(out=memoryview(image).toreadonly())
            with pytest.raises(StorageError):
                store.restore_image(out=bytearray(len(image) // 2))
