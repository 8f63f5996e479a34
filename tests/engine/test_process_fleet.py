"""Tests for the process-backed shard fleet.

Everything here runs on one core (correctness, not speed): workers over
shared-memory tables, workers that flush their own checkpoints, injected
worker crashes mid-tick and mid-checkpoint-flush, segment leak discipline, and
recovery of a dead shard from its last durable checkpoint.
"""

import ctypes
import gc
import multiprocessing
import os

import numpy as np
import pytest

from repro.config import StateGeometry
from repro.engine.fleet import ShardFleet, shard_directory
from repro.engine.recovery import RecoveryManager
from repro.engine.server import DurableGameServer
from repro.engine.shard import GAME_SUBDIRECTORY
from repro.engine.shard_worker import CRASH_EXIT_CODE
from repro.errors import EngineError
from repro.state.shared import SEGMENT_TAG, segment_directory

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


def our_segments():
    """Shared segments owned by this process, for leak assertions."""
    prefix = f"{SEGMENT_TAG}.{os.getpid()}."
    return {
        name
        for name in os.listdir(segment_directory())
        if name.startswith(prefix)
    }


class TestNormalOperation:
    def test_run_reports_and_cleans_up(self, app_factory, tmp_path):
        before = our_segments()
        fleet = make_fleet(app_factory, tmp_path, num_shards=3)
        assert fleet.backend == "process"
        assert len(our_segments() - before) == 3  # one segment per shard
        report = fleet.run_ticks(20, checkpoint_barrier=True)
        assert report.num_shards == 3
        assert all(stats.ticks_run == 20 for stats in report.shard_stats)
        # Every worker actually landed checkpoint bytes.
        assert all(stats.bytes_written > 0 for stats in report.shard_stats)
        assert all(
            stats.checkpoints_completed > 0 for stats in report.shard_stats
        )
        fleet.quiesce()
        ages = fleet.checkpoint_ages()
        assert len(ages) == 3
        assert all(0 <= age <= 20 for age in ages)
        fleet.close()
        assert our_segments() == before  # nothing leaked on orderly exit

    def test_serial_run_matches_parallel_semantics(self, app_factory, tmp_path):
        fleet = make_fleet(app_factory, tmp_path)
        report = fleet.run_ticks(10, parallel=False)
        assert all(stats.ticks_run == 10 for stats in report.shard_stats)
        fleet.close()

    def test_shards_property_raises(self, app_factory, tmp_path):
        with make_fleet(app_factory, tmp_path) as fleet:
            with pytest.raises(EngineError):
                fleet.shards

    def test_worker_pids_are_real_child_processes(self, app_factory, tmp_path):
        with make_fleet(app_factory, tmp_path) as fleet:
            pids = fleet.worker_pids
            assert len(set(pids)) == fleet.num_shards
            assert os.getpid() not in pids
            assert all(fleet.alive_workers)

    def test_writer_threads_is_pool_sized(self, app_factory, tmp_path):
        """Each worker flushes its own checkpoints, so a process fleet
        builds no pool whatever ``pool_size`` asks for."""
        with make_fleet(app_factory, tmp_path, pool_size=3) as fleet:
            assert fleet.writer_threads == 0
            assert fleet.writer_pool is None
            assert fleet.telemetry().pool is None


class TestWorkerCrash:
    def test_kill_mid_tick_surfaces_shard_failure(self, app_factory, tmp_path):
        before = our_segments()
        fleet = make_fleet(app_factory, tmp_path, num_shards=3)
        fleet.run_ticks(10)
        fleet.crash_worker(1, when="kill")
        with pytest.raises(EngineError, match="shard 1 worker died"):
            fleet.run_ticks(15)
        assert fleet.alive_workers == [True, False, True]
        # The survivors finished their ticks despite the dead shard.
        control_ages = fleet.checkpoint_ages()
        assert len(control_ages) == 3
        fleet.close()
        assert our_segments() == before  # dead worker leaked nothing

    def test_exit_between_ticks(self, app_factory, tmp_path):
        fleet = make_fleet(app_factory, tmp_path)
        fleet.run_ticks(5)
        fleet.crash_worker(0, when="now")
        with pytest.raises(EngineError, match="shard 0 worker died"):
            fleet.run_ticks(20)
        fleet.close()

    def test_crash_at_checkpoint_handoff(self, app_factory, tmp_path):
        before = our_segments()
        fleet = make_fleet(app_factory, tmp_path)
        fleet.run_ticks(4)
        fleet.crash_worker(0, when="at_checkpoint")
        with pytest.raises(EngineError, match="exit code 42"):
            # Enough ticks that shard 0 reaches its next checkpoint cut and
            # dies in that checkpoint's flush.
            fleet.run_ticks(30)
        fleet.close()
        assert our_segments() == before

    def test_crash_exit_code_is_distinct(self):
        assert CRASH_EXIT_CODE == 42

    def test_dead_shard_recovers_from_durable_checkpoint(
        self, app_factory, tmp_path
    ):
        fleet = make_fleet(app_factory, tmp_path, num_shards=2, seed=11)
        fleet.run_ticks(12)
        fleet.quiesce()
        fleet.crash_worker(1, when="kill")
        with pytest.raises(EngineError):
            fleet.run_ticks(8)
        fleet.crash()

        # Reference: the same app ticked crash-free for as long as each
        # shard's logical log reaches.
        recoveries = ShardFleet.recover(
            app_factory, tmp_path, num_shards=2, seed=11
        )
        for index, recovery in enumerate(recoveries):
            ticks = recovery.game.next_tick
            assert ticks >= 12  # nothing durable was lost
            reference = DurableGameServer(
                app_factory(index),
                tmp_path / f"reference-{index}",
                algorithm="copy-on-update",
                seed=11 + index,
            )
            reference.run_ticks(ticks)
            assert recovery.game.table.equals(reference.table)
            reference.close()
            recovery.persistence.close()
        # The dead shard restored from a checkpoint, not a cold replay.
        assert recoveries[1].game.checkpoint_epoch >= 1

    def test_fleet_crash_kills_workers_and_unlinks(self, app_factory, tmp_path):
        before = our_segments()
        fleet = make_fleet(app_factory, tmp_path)
        pids = fleet.worker_pids
        fleet.run_ticks(6)
        fleet.crash()
        assert our_segments() == before
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


def mapped_segment_fds():
    """Targets of this process's descriptors open on a shared segment."""
    held = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue  # the listing's own descriptor
        if f"/{SEGMENT_TAG}." in target:
            held.append(target)
    return sorted(held)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
@pytest.mark.parametrize("end", ["close", "crash"])
def test_teardown_unmaps_every_segment_without_gc(app_factory, tmp_path, end):
    """The parent drops every view into a shard's segment when the fleet
    closes, so the mapping -- and the descriptor it holds -- goes then,
    not whenever the garbage collector next runs."""
    gc.collect()
    before = mapped_segment_fds()
    gc.disable()
    try:
        fleet = make_fleet(app_factory, tmp_path)
        fleet.run_ticks(6)
        if end == "crash":
            fleet.crash()
        fleet.close()
        assert mapped_segment_fds() == before
    finally:
        gc.enable()


def open_descriptors():
    """Targets of every descriptor this process holds."""
    held = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            held.append(os.readlink(f"/proc/self/fd/{fd}"))
        except OSError:
            continue  # the listing's own descriptor
    return sorted(held)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_dead_worker_leaves_no_descriptor_without_gc(app_factory, tmp_path):
    """A killed worker's process object is closed at release, so its
    sentinel pipe goes with the fleet rather than at the next collection,
    and the handle still reports the pid and a dead worker afterwards."""
    gc.collect()
    before = open_descriptors()
    gc.disable()
    try:
        fleet = make_fleet(app_factory, tmp_path)
        fleet.run_ticks(4)
        pids = fleet.worker_pids
        fleet.crash_worker(1, when="kill")
        assert fleet.try_run_ticks(2).failed_shards == [1]
        fleet.crash()
        assert open_descriptors() == before
        assert fleet.worker_pids == pids
        assert fleet.alive_workers == [False, False]
    finally:
        gc.enable()


class TestBarrierDeterminism:
    def test_barrier_runs_are_reproducible(self, app_factory, tmp_path):
        def digest(root):
            out = {}
            for dirpath, _, files in os.walk(root):
                for name in sorted(files):
                    path = os.path.join(dirpath, name)
                    with open(path, "rb") as handle:
                        out[os.path.relpath(path, root)] = handle.read()
            return out

        for run in ("one", "two"):
            fleet = make_fleet(app_factory, tmp_path / run, seed=3)
            fleet.run_ticks(15, checkpoint_barrier=True)
            fleet.quiesce()
            fleet.close()
        assert digest(tmp_path / "one") == digest(tmp_path / "two")


class TestRecoverParity:
    def test_process_run_recovers_like_thread_run(self, app_factory, tmp_path):
        for backend in ("thread", "process"):
            fleet = ShardFleet(
                app_factory,
                tmp_path / backend,
                num_shards=2,
                backend=backend,
                algorithm="copy-on-update",
                seed=21,
                pool_size=2,
                min_checkpoint_interval_ticks=3,
            )
            fleet.run_ticks(18, checkpoint_barrier=True)
            fleet.quiesce()
            if backend == "thread":
                fleet.crash()
            else:
                fleet.crash()
        thread_rec = ShardFleet.recover(
            app_factory, tmp_path / "thread", num_shards=2, seed=21
        )
        process_rec = ShardFleet.recover(
            app_factory, tmp_path / "process", num_shards=2, seed=21
        )
        for a, b in zip(thread_rec, process_rec):
            assert a.game.next_tick == b.game.next_tick
            assert a.game.table.equals(b.game.table)
            a.persistence.close()
            b.persistence.close()


def status_kib(pid, field):
    """One ``VmRSS``/``VmHWM``-style field of ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


@pytest.mark.skipif(
    not hasattr(ctypes.CDLL(None), "malloc_trim")
    or not os.path.exists("/proc/self"),
    reason="needs glibc's malloc_trim and /proc",
)
def test_workers_do_not_inherit_freed_heap(app_factory, tmp_path):
    """Heap the parent freed before the fleet forks goes back to the OS
    first, so no worker starts with a copy of it."""
    # 64 MiB of heap blocks below one more that stays allocated: freeing
    # them cannot shrink the heap, so they stay resident.
    blocks = [b"\x01" * (64 << 10) for _ in range(1024)]
    pin = b"\x02" * (64 << 10)
    del blocks
    rss_before_kib = status_kib("self", "VmRSS")
    with make_fleet(app_factory, tmp_path, num_shards=1) as fleet:
        worker_hwm_kib = status_kib(fleet.worker_pids[0], "VmHWM")
    assert worker_hwm_kib <= rss_before_kib - (32 << 10)
    del pin
