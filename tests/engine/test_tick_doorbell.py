"""Tests for how a process-backend run crosses the process boundary.

A run is two one-byte doorbells (``go`` down, ``done`` up) plus the
shard's shared control row: the parent stores the run's arguments there,
the worker stores the ``ServerStats`` back, and the pipe carries only the
rare messages (ready, quiesce, crash, close, failures).  These tests pin
that contract, that worker death never hangs a waiter on either doorbell
or on the worker's own checkpoint flush, and that neither side keeps a
doorbell end it must not hold.
"""

import dataclasses
import gc
import inspect
import multiprocessing
import os
import signal
import threading
import time
from multiprocessing.connection import Connection

import numpy as np
import pytest

import repro.engine.shard_worker as shard_worker
from repro.config import StateGeometry
from repro.engine.fleet import ShardFleet
from repro.engine.server import ServerStats
from repro.engine.shard_worker import (
    F_PARENT_SENT,
    F_STATS,
    F_WORKER_SENT,
    NUM_CONTROL_FIELDS,
    STATS_DTYPE,
    read_stats,
    write_stats,
)
from repro.state.shared import reap_stale_segments, segment_directory
from tests.conftest import RandomWalkApp

GEOMETRY = StateGeometry(rows=400, columns=10)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process backend needs the fork start method",
)
needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc"
)


def walk_fleet(directory, backend="process", num_shards=2, **kwargs):
    kwargs.setdefault("algorithm", "copy-on-update")
    kwargs.setdefault("min_checkpoint_interval_ticks", 3)
    return ShardFleet(
        lambda index: RandomWalkApp(GEOMETRY), directory, num_shards,
        backend=backend, seed=7, **kwargs,
    )


def segments():
    return set(os.listdir(segment_directory()))


def dispatch_threads():
    return [thread.name for thread in threading.enumerate()
            if thread.name.endswith("-dispatch")]


def within(seconds, call):
    """``call()`` on a helper thread; its result, or fail after
    ``seconds`` instead of hanging the suite."""
    box = {}
    thread = threading.Thread(
        target=lambda: box.update(result=call()), daemon=True
    )
    started = time.monotonic()
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), f"call still blocked after {seconds} s"
    return box["result"], time.monotonic() - started


def exited(pid):
    """True once ``pid`` is gone or a zombie (exited, not yet reaped)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] in "ZX"
    except FileNotFoundError:
        return True


def int_stats(stats):
    """The counts of a ServerStats; the float fields are timings."""
    return {name: getattr(stats, name) for name in STATS_DTYPE.names
            if STATS_DTYPE[name] == np.int64}


class TestRowLayout:
    def test_every_server_stats_field_round_trips(self):
        fields = dataclasses.fields(ServerStats)
        assert STATS_DTYPE.names == tuple(field.name for field in fields)
        assert NUM_CONTROL_FIELDS == F_STATS + len(fields)
        # Distinct values per field, ints beyond float precision.
        stats = ServerStats(*(
            (slot + 0.25) / 3 if isinstance(field.default, float)
            else (1 << 53) + slot + 1
            for slot, field in enumerate(fields)
        ))
        row = np.zeros(NUM_CONTROL_FIELDS, dtype=np.int64)
        write_stats(row, stats)
        assert not row[:F_STATS].any()  # no other field was touched
        back = read_stats(row)
        assert back == stats
        for field in fields:
            assert type(getattr(back, field.name)) is type(field.default)


@needs_fork
class TestTickContract:
    def test_no_pickled_tick_ack_grows_back(self, tmp_path, monkeypatch):
        """A run sends no pipe message in either direction, and acks the
        same stats the thread backend reports."""
        source = inspect.getsource(shard_worker)
        for gone in ('"done"', '"run"', "conn.poll", "pickle"):
            assert gone not in source
        sent = []
        original = Connection.send

        def counted(conn, message):
            sent.append(message)
            original(conn, message)

        monkeypatch.setattr(Connection, "send", counted)
        reports = {}
        for backend in ("thread", "process"):
            with walk_fleet(tmp_path / backend, backend) as fleet:
                if backend == "process":
                    rows = [fleet._handle(index).control for index in (0, 1)]
                    before = [(int(row[F_WORKER_SENT]),
                               int(row[F_PARENT_SENT])) for row in rows]
                reports[backend] = fleet.run_ticks(
                    25, checkpoint_barrier=True
                )
                if backend == "process":
                    assert sent == []
                    assert [(int(row[F_WORKER_SENT]), int(row[F_PARENT_SENT]))
                            for row in rows] == before
        for thread_stats, process_stats in zip(
            reports["thread"].shard_stats, reports["process"].shard_stats
        ):
            assert int_stats(process_stats) == int_stats(thread_stats)
            assert process_stats.ticks_run == 25
            assert process_stats.checkpoints_completed > 0

    def test_a_run_returns_after_its_handoffs_land(self, tmp_path):
        """Without the barrier a run still returns with every checkpoint it
        cut durable: each shard's committed cut is its newest cut."""
        with walk_fleet(tmp_path, min_checkpoint_interval_ticks=1) as fleet:
            for _ in range(3):
                fleet.run_ticks(7)
                for shard in fleet.telemetry().shards:
                    handle = fleet._handle(shard.index)
                    newest_cut = handle.ticks_run - 1 - shard.cut_lag_ticks
                    assert handle.committed_cut == newest_cut >= 0

    def test_failed_run_reports_its_traceback(self, tmp_path):
        class Exploding(RandomWalkApp):
            def plan_tick(self, table, rng, tick):
                if tick == 4:
                    raise ValueError("boom at tick 4")
                return super().plan_tick(table, rng, tick)

        with ShardFleet(lambda index: Exploding(GEOMETRY), tmp_path, 2,
                        backend="process", seed=3) as fleet:
            outcome, _ = within(30.0, lambda: fleet.try_run_ticks(10))
            for error in outcome.errors:
                assert "boom at tick 4" in str(error)


@needs_fork
class TestWorkerDeath:
    @pytest.mark.parametrize("how", ["sigkill_mid_run", "at_checkpoint"])
    def test_death_never_hangs_a_waiter(self, how, tmp_path):
        before = segments()
        fleet = walk_fleet(tmp_path, min_checkpoint_interval_ticks=5)
        try:
            fleet.run_ticks(3)
            victim = fleet.worker_pids[1]
            if how == "at_checkpoint":
                # The parent is waiting out the run of a shard whose worker
                # dies in its own checkpoint flush.
                fleet.crash_worker(1, when="at_checkpoint")
            else:
                def kill_mid_run():
                    while fleet._handle(1).ticks_run < 50:
                        time.sleep(0.001)
                    os.kill(victim, signal.SIGKILL)

                threading.Thread(target=kill_mid_run, daemon=True).start()
            outcome, seconds = within(
                60.0, lambda: fleet.try_run_ticks(5000)
            )
            assert outcome.errors[0] is None
            assert "shard 1 worker died" in str(outcome.errors[1])
            assert outcome.shard_stats[0].ticks_run == 5003
            assert seconds < 10.0
            outcome, seconds = within(10.0, lambda: fleet.try_run_ticks(5))
            assert outcome.errors[0] is None and outcome.errors[1] is not None
            assert fleet.alive_workers == [True, False]
        finally:
            fleet.close()
        assert segments() == before
        assert dispatch_threads() == []


def doorbell_ends(pid):
    """``{pipe name: access modes}`` of the pipe ends ``pid`` holds."""
    ends = {}
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            target = os.readlink(f"/proc/{pid}/fd/{fd}")
            with open(f"/proc/{pid}/fdinfo/{fd}") as info:
                fields = dict(line.split(":", 1) for line in info)
            flags = int(fields["flags"], 8)
        except OSError:
            continue
        if target.startswith("pipe:"):
            ends.setdefault(target, set()).add(flags & os.O_ACCMODE)
    return ends


def pipe_name(fd):
    return os.readlink(f"/proc/self/fd/{fd}")


def own_fleet(directory, conn):
    """A helper process's body: open a fleet, report its pids, wait."""
    fleet = walk_fleet(directory, num_shards=3)
    conn.send(fleet.worker_pids)
    time.sleep(600)


@needs_fork
@needs_proc
class TestDoorbellHygiene:
    def test_open_close_leaks_no_descriptor(self, tmp_path):
        def open_close(round_):
            with walk_fleet(tmp_path / str(round_)) as fleet:
                fleet.run_ticks(4)

        open_close("warm")  # lazily created pool and module state
        gc.collect()
        count = len(os.listdir("/proc/self/fd"))
        for round_ in range(5):
            open_close(round_)
        gc.collect()
        assert len(os.listdir("/proc/self/fd")) == count
        assert dispatch_threads() == []

    def test_each_worker_holds_only_its_own_worker_ends(self, tmp_path):
        with walk_fleet(tmp_path, num_shards=3) as fleet:
            handles = [fleet._handle(index) for index in range(3)]
            go = [pipe_name(handle.go) for handle in handles]
            done = [pipe_name(handle.done) for handle in handles]
            for index, pid in enumerate(fleet.worker_pids):
                held = doorbell_ends(pid)
                assert held[go[index]] == {os.O_RDONLY}
                assert held[done[index]] == {os.O_WRONLY}
                others = set(go + done) - {go[index], done[index]}
                assert not others & set(held)

    def test_workers_exit_when_their_parent_is_killed(self, tmp_path):
        before = segments()
        context = multiprocessing.get_context("fork")
        reader, writer = context.Pipe(duplex=False)
        helper = context.Process(target=own_fleet, args=(tmp_path, writer))
        helper.start()
        writer.close()
        try:
            assert reader.poll(60.0), "the helper never opened its fleet"
            pids = reader.recv()
        finally:
            helper.kill()
            helper.join(timeout=10.0)
            reader.close()
        deadline = time.monotonic() + 10.0
        try:
            while not all(exited(pid) for pid in pids):
                assert time.monotonic() < deadline, "workers outlived it"
                time.sleep(0.05)
        finally:
            for pid in pids:
                if not exited(pid):
                    os.kill(pid, signal.SIGKILL)
        reap_stale_segments()
        assert segments() == before
