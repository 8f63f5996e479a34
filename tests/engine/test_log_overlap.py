"""The two-phase action log inside the tick: ordering, lifecycle, failure.

``DurableGameServer.run_tick`` writes the tick's record once the plan
passes its bounds check and waits for its fsync just before the tick
boundary, so the fsync runs beside Handle-Update and the apply.
These tests pin what that overlap must not change: no cut starts and no
tick returns before its record is durable, no fd is closed under an
in-flight fsync, no sync thread outlives its log, and a failed write or
sync fails the server instead of logging a tick twice.
"""

import errno
import os
import threading
import time

import numpy as np
import pytest

import repro.storage.action_log as action_log_module
from repro.config import StateGeometry
from repro.core.registry import ALGORITHM_KEYS
from repro.engine.fleet import ShardFleet
from repro.engine.recovery import RecoveryManager
from repro.engine.server import DurableGameServer
from repro.engine.writer_pool import CheckpointWriterPool
from repro.errors import CheckpointWriterError, EngineError, StorageError
from repro.state.table import GameStateTable
from repro.storage.action_log import ActionLog, TickRecord
from tests.conftest import FlushGate, RandomWalkApp

SYNC_THREAD = "repro-log-sync"
GEOMETRY = StateGeometry(rows=400, columns=10)


def sync_threads():
    return [t for t in threading.enumerate() if t.name == SYNC_THREAD]


@pytest.fixture(autouse=True)
def no_sync_thread_leaks():
    yield
    assert sync_threads() == []


def patch_log_fsync(monkeypatch, before=None, after=None):
    """Route every fsync of an action log through hooks, on whichever
    thread it runs; the checkpoint stores' fsyncs run untouched."""
    real = os.fsync

    def fsync(fd):
        path = os.readlink(f"/proc/self/fd/{fd}")
        if os.path.basename(path) != ActionLog.FILE_NAME:
            return real(fd)
        if before is not None:
            before(fd)
        real(fd)
        if after is not None:
            after(fd)

    monkeypatch.setattr(os, "fsync", fsync)


def oracle_table(app, seed, ticks):
    """The table after ``ticks`` ticks with no checkpointing at all."""
    table = GameStateTable(app.geometry, dtype=app.dtype)
    rng = np.random.default_rng(seed)
    app.initialize(table, rng)
    for tick in range(ticks):
        plan = app.plan_tick(table, rng, tick)
        table.apply_updates(plan.rows, plan.columns, plan.values)
    return table


class RecordingWriter:
    """A pre-built checkpoint writer that finishes every job at once and
    records, at each submit, the cut tick and the log's durable tick."""

    concurrent_reader = False

    def __init__(self, durable):
        self._durable = durable
        self.submits = []
        self.last_committed = None
        self.fail_check = False
        self.idle = True

    def submit(self, job):
        self.submits.append((job.cut_tick, self._durable.get("tick")))
        self.last_committed = (job.epoch, job.cut_tick)

    def check(self):
        if self.fail_check:
            raise CheckpointWriterError("injected writer failure")

    def totals(self):
        return 0, 0.0

    def wait_idle(self, timeout=None):
        return True

    def close(self, timeout=None, wait=True):
        pass


class TestOrdering:
    def test_no_cut_starts_before_its_record_is_durable(
        self, random_walk_app, tmp_path, monkeypatch
    ):
        durable = {}
        log_of = {}
        patch_log_fsync(
            monkeypatch,
            after=lambda fd: durable.__setitem__(
                "tick", log_of["log"].last_tick
            ),
        )
        writer = RecordingWriter(durable)
        with DurableGameServer(
            random_walk_app, tmp_path, fsync_policy="commit", writer=writer,
        ) as server:
            log_of["log"] = server._action_log
            server.run_ticks(12)
        assert len(writer.submits) >= 6
        for cut_tick, durable_tick in writer.submits:
            assert durable_tick is not None and durable_tick >= cut_tick

    def test_run_tick_does_not_return_before_durability(
        self, random_walk_app, tmp_path, monkeypatch
    ):
        release = threading.Event()
        patch_log_fsync(monkeypatch, before=lambda fd: release.wait(10))
        with DurableGameServer(
            random_walk_app, tmp_path, fsync_policy="commit"
        ) as server:
            ticker = threading.Thread(target=server.run_tick)
            ticker.start()
            try:
                ticker.join(0.3)
                blocked = (ticker.is_alive(), server.ticks_run,
                           server.last_cut_tick)
            finally:
                release.set()
                ticker.join(10)
            assert blocked == (True, 0, None)
            assert not ticker.is_alive()
            assert server.ticks_run == 1
            assert server.last_cut_tick == 0


class TestLifecycle:
    def slow_sync(self, monkeypatch):
        """A sync that takes 0.1 s and then checks its fd is still open;
        returns the event list it appends to."""
        events = []

        def after(fd):
            time.sleep(0.1)
            try:
                os.fstat(fd)
                events.append("synced")
            except OSError:
                events.append("fd closed under fsync")

        patch_log_fsync(monkeypatch, after=after)
        return events

    @pytest.mark.parametrize("step", ["close", "roll"])
    def test_log_waits_out_a_pending_sync(self, tmp_path, monkeypatch, step):
        events = self.slow_sync(monkeypatch)
        log = ActionLog(tmp_path, fsync_policy="commit")
        try:
            log.append(TickRecord(tick=0, rng_state={}))
            getattr(log, step)()
            events.append(step)
            assert len(sync_threads()) == (step == "roll")
        finally:
            log.close()
        assert events == ["synced", step]
        if step == "roll":
            assert os.path.getsize(log.path) == 0
            assert [os.path.basename(path) for path in log.sealed_segments] \
                == ["actions.0.log"]

    def test_crash_waits_out_a_pending_sync(
        self, random_walk_app, tmp_path, monkeypatch
    ):
        """A tick that fails after its append leaves a sync in flight; the
        crash closes the log only once it has returned."""
        events = self.slow_sync(monkeypatch)
        writer = RecordingWriter({})
        server = DurableGameServer(
            random_walk_app, tmp_path, fsync_policy="commit", writer=writer,
        )
        server.run_ticks(2)
        writer.fail_check = True
        with pytest.raises(CheckpointWriterError):
            server.run_tick()
        server.crash()
        events.append("crash")
        assert events == ["synced", "synced", "synced", "crash"]

    def test_no_sync_thread_survives_close(self, tmp_path, monkeypatch):
        """One sync thread survives a roll, which swaps the fd it syncs,
        and none survives close."""
        synced = []
        patch_log_fsync(
            monkeypatch, before=lambda fd: synced.append(os.fstat(fd).st_ino)
        )
        with ActionLog(tmp_path, fsync_policy="commit") as log:
            log.append(TickRecord(tick=0, rng_state={}))
            assert len(sync_threads()) == 1
            log.roll()
            log.append(TickRecord(tick=1, rng_state={}))
            assert len(sync_threads()) == 1
            log.wait_durable()
            live = os.stat(log.path).st_ino
        assert sync_threads() == []
        assert synced[-1] == live != synced[0]

    def test_never_starts_no_thread(self, random_walk_app, tmp_path):
        with DurableGameServer(
            random_walk_app, tmp_path, fsync_policy="never"
        ) as server:
            server.run_ticks(5)
            assert sync_threads() == []
            assert server._action_log.wait_durable() == 0.0


class TestFailure:
    """A failed write or sync used to leave the record on disk with the
    tick unfinished; the server then logged the tick again and recovery
    refused the log.  Now it fails the server, and recovery succeeds."""

    FAILED_TICK = 5

    def recover_and_compare(self, app, directory):
        report = RecoveryManager(app, directory, seed=3).recover()
        assert report.next_tick in (self.FAILED_TICK, self.FAILED_TICK + 1)
        assert report.table.equals(oracle_table(app, 3, report.next_tick))
        return report

    def fail_and_crash(self, app, directory, match,
                       algorithm="copy-on-update"):
        """The first checkpoint is held in flight on a one-worker pool
        through the failure, and fails at the gate before the crash."""
        with CheckpointWriterPool(1) as pool:
            server = DurableGameServer(
                app, directory, algorithm=algorithm, seed=3,
                fsync_policy="commit", writer_pool=pool,
            )
            gate = FlushGate(fail=True)
            server._store.write_fault_hook = gate
            server.run_ticks(self.FAILED_TICK)
            with pytest.raises(StorageError, match=match):
                server.run_tick()
            for _ in range(2):
                with pytest.raises(EngineError, match="recover it instead"):
                    server.run_tick()
            assert server.ticks_run == self.FAILED_TICK
            assert server.last_committed_checkpoint_tick is None
            assert gate.reached.wait(timeout=10.0)
            gate.release()
            server.crash()

    @pytest.mark.parametrize("algorithm", ALGORITHM_KEYS)
    def test_failed_sync(self, tiny_geometry, tmp_path, monkeypatch,
                         algorithm):
        app = RandomWalkApp(tiny_geometry)
        syncs = []

        def before(fd):
            syncs.append(fd)
            if len(syncs) == self.FAILED_TICK + 1:
                raise OSError(errno.EIO, "injected fsync failure")

        patch_log_fsync(monkeypatch, before=before)
        self.fail_and_crash(app, tmp_path, "fsync failed", algorithm)
        monkeypatch.undo()
        # The record was written before its sync failed.
        assert self.recover_and_compare(app, tmp_path).next_tick == (
            self.FAILED_TICK + 1
        )

    def test_failed_write_leaves_a_torn_tail(
        self, tiny_geometry, tmp_path, monkeypatch
    ):
        app = RandomWalkApp(tiny_geometry)
        real = action_log_module.write_all
        writes = []

        def write_all(fd, buffers):
            writes.append(fd)
            if len(writes) == self.FAILED_TICK + 1:
                frame = bytes(buffers[0])
                real(fd, (frame[: len(frame) // 2],))
                raise OSError(errno.ENOSPC, "injected short write")
            return real(fd, buffers)

        monkeypatch.setattr(action_log_module, "write_all", write_all)
        self.fail_and_crash(app, tmp_path, "write of tick 5 failed")
        monkeypatch.undo()
        assert self.recover_and_compare(app, tmp_path).next_tick == (
            self.FAILED_TICK
        )


class TestLogWait:
    def test_reads_zero_under_never(self, random_walk_app, tmp_path):
        with DurableGameServer(
            random_walk_app, tmp_path, fsync_policy="never"
        ) as server:
            server.run_ticks(20)
            assert server.stats.log_wait_seconds == 0.0

    def test_smaller_than_the_sync_under_commit(
        self, random_walk_app, tmp_path, monkeypatch
    ):
        """A 20 ms sync beside a 10 ms apply: the tick waits for the rest."""
        synced = []

        def before(fd):
            started = time.perf_counter()
            time.sleep(0.02)
            synced.append(time.perf_counter() - started)

        patch_log_fsync(monkeypatch, before=before)
        apply_updates = GameStateTable.apply_updates

        def slow_apply(self, *args, **kwargs):
            time.sleep(0.01)
            return apply_updates(self, *args, **kwargs)

        monkeypatch.setattr(GameStateTable, "apply_updates", slow_apply)
        with DurableGameServer(
            random_walk_app, tmp_path, fsync_policy="commit"
        ) as server:
            server.run_ticks(5)
            waited = server.stats.log_wait_seconds
        assert len(synced) == 5
        assert 0.0 < waited < sum(synced)

    @pytest.mark.parametrize("policy", ["never", "commit"])
    def test_fleet_telemetry_shows_the_wait(self, tmp_path, monkeypatch,
                                            policy):
        patch_log_fsync(monkeypatch, before=lambda fd: time.sleep(0.005))
        with ShardFleet(
            lambda index: RandomWalkApp(GEOMETRY), tmp_path, 1, seed=5,
            fsync_policy=policy,
        ) as fleet:
            fleet.run_ticks(4)
            stats = fleet.shards[0].game.stats
            shard = fleet.telemetry().shards[0]
        assert shard.log_wait_us == int(stats.log_wait_seconds * 1e6)
        assert (shard.log_wait_us > 0) == (policy == "commit")
