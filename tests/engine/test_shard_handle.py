"""Tests for the one shard surface the fleet drives: ``ShardHandle``.

Both backends sit behind the same handle surface and tick through the same
``TickLoop`` body, so every test here that is parametrized over the backend
asserts the same outcome on both: ingress accounting, fault injection,
telemetry of a dead shard, and the cut lag each tick publishes.
"""

import inspect
import multiprocessing
import sys
import threading

import pytest

import repro.engine.fleet as fleet_module
import repro.engine.shard_worker as shard_worker
import repro.state.ring as ring_module
from repro.config import StateGeometry
from repro.engine.fleet import ShardFleet
from repro.engine.shard_handle import ThreadShardHandle
from repro.errors import EngineError
from repro.game.knights_archers import KnightsArchersGame
from repro.game.scenario import BattleScenario
from repro.state.ring import SharedCommandRing
from tests.conftest import FlushGate, RandomWalkApp
from tests.engine.test_fleet_commands import (
    SCRIPT_TICKS,
    drive_scripted,
    reference_server,
)

BACKENDS = [
    "thread",
    pytest.param("process", marks=pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="process backend needs the fork start method",
    )),
]

GEOMETRY = StateGeometry(rows=400, columns=10)


def game_factory(index):
    return KnightsArchersGame(BattleScenario(num_units=256))


def walk_fleet(directory, backend, num_shards=1, **kwargs):
    kwargs.setdefault("min_checkpoint_interval_ticks", 3)
    return ShardFleet(
        lambda index: RandomWalkApp(GEOMETRY), directory, num_shards,
        backend=backend, seed=5, **kwargs,
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_ingress_is_the_same_ring_on_both_backends(backend, tmp_path,
                                                  monkeypatch):
    """Same capacity accounting, same shedding, same pending count."""
    monkeypatch.setattr(ring_module, "COMMAND_RING_BYTES", 64)
    with walk_fleet(tmp_path, backend) as fleet:
        assert fleet.submit_commands(0, [b"x" * 20] * 4) == 2
        assert fleet.pending_commands(0) == 2
        assert fleet.telemetry().shards[0].ring_pending_bytes == 48
        fleet.run_ticks(1)
        assert fleet.pending_commands(0) == 0
        assert fleet.telemetry().shards[0].commands_drained == 2


def test_private_ring_hands_over_every_command_once_across_threads():
    """The thread backend's ring is lock-free between the producer thread
    and the shard's tick thread: under forced thread switching, with more
    threads than cores and a ring small enough to wrap and fill, every
    command arrives exactly once and in order."""
    count, pairs = 3000, 3
    received = [[] for _ in range(pairs)]
    rings = [SharedCommandRing.private(256) for _ in range(pairs)]

    def produce(ring):
        payloads = [b"%d" % k for k in range(count)]
        while payloads:
            payloads = payloads[ring.push_batch(payloads[:7]):]

    def consume(ring, out):
        while len(out) < count:
            out.extend(ring.drain())

    threads = [
        threading.Thread(target=target, args=args, daemon=True)
        for ring, out in zip(rings, received)
        for target, args in ((produce, (ring,)), (consume, (ring, out)))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    expected = [b"%d" % k for k in range(count)]
    assert all(out == expected for out in received)
    assert all(ring.pending_records == 0 for ring in rings)


@pytest.mark.parametrize("backend", BACKENDS)
def test_mid_drain_crash_loses_batch_not_log(backend, tmp_path):
    """The torn-batch fault point lives in the shared loop body, so both
    backends lose exactly the drained batch and recover the durable log."""
    fleet = ShardFleet(
        game_factory, tmp_path / "fleet", 1, backend=backend, seed=13,
        min_checkpoint_interval_ticks=3,
    )
    drive_scripted(fleet)
    fleet.quiesce()
    fleet.crash_worker(0, when="mid_drain")
    fleet.submit_commands(0, [b"heal:2", b"activate:30"])
    report = fleet.try_run_ticks(1)
    assert report.failed_shards == [0]
    assert fleet.dead_shards() == [0]
    fleet.crash()

    recovery = ShardFleet.recover(
        game_factory, tmp_path / "fleet", num_shards=1, seed=13
    )[0]
    assert recovery.game.next_tick == SCRIPT_TICKS
    reference = reference_server(
        game_factory, tmp_path / "ref", seed=13, ticks=SCRIPT_TICKS
    )
    assert recovery.game.table.equals(reference.table)
    reference.close()
    recovery.persistence.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_dead_shard_reads_as_down(backend, tmp_path):
    """A killed shard stays readable: telemetry reports it down with its
    last tick count, the survivor keeps serving, and the fleet still
    crashes cleanly."""
    fleet = walk_fleet(tmp_path, backend, num_shards=2)
    fleet.run_ticks(4)
    fleet.crash_worker(0, when="kill")
    report = fleet.try_run_ticks(2)
    assert report.failed_shards == [0]
    assert fleet.dead_shards() == [0]
    dead, live = fleet.telemetry().shards
    assert (dead.alive, dead.ticks_run) == (False, 4)
    assert (live.alive, live.ticks_run) == (True, 6)
    with pytest.raises(EngineError):
        fleet.submit_commands(0, [b"c"])
    fleet.crash()


def test_thread_cut_lag_counts_from_the_newest_cut(tmp_path):
    """``cut_lag_ticks`` counts from the newest cut handed to the writer,
    durable or not; the checkpoint age counts from the newest durable one.
    A one-worker pool held at a gate keeps the first cut in flight."""
    fleet = walk_fleet(
        tmp_path, "thread", min_checkpoint_interval_ticks=1, pool_size=1,
    )
    gate = FlushGate()
    fleet.shards[0].game._store.write_fault_hook = gate
    with fleet:
        try:
            fleet.run_ticks(6)
            game = fleet.shards[0].game
            assert gate.reached.wait(timeout=10.0)
            assert game.last_cut_tick == 0
            assert game.last_committed_checkpoint_tick is None
            shard = fleet.telemetry().shards[0]
            assert shard.cut_lag_ticks == 6 - 1 - game.last_cut_tick
            assert shard.checkpoint_age_ticks == 6
            assert shard.cut_lag_ticks < shard.checkpoint_age_ticks
        finally:
            gate.release()


def test_cut_lag_agrees_across_backends(tmp_path):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("process backend needs the fork start method")
    lags = {}
    for backend in ("thread", "process"):
        with walk_fleet(tmp_path / backend, backend, num_shards=2,
                        pool_size=2) as fleet:
            fleet.run_ticks(10, checkpoint_barrier=True)
            lags[backend] = [
                shard.cut_lag_ticks for shard in fleet.telemetry().shards
            ]
    assert lags["thread"] == lags["process"]


def test_at_checkpoint_crash_needs_a_worker(tmp_path):
    with walk_fleet(tmp_path, "thread") as fleet:
        with pytest.raises(EngineError, match="backend='process'"):
            fleet.crash_worker(0, when="at_checkpoint")
        with pytest.raises(EngineError, match="unknown crash mode"):
            fleet.crash_worker(0, when="later")
        assert fleet.dead_shards() == []


def test_no_backend_branch_grows_back():
    """The fleet drives shards through the handle surface only, and both
    backends tick through the one ``TickLoop`` body."""
    fleet_source = inspect.getsource(fleet_module)
    worker_source = inspect.getsource(shard_worker)
    for branch in ("backend ==", "backend !=", "backend in"):
        assert branch not in fleet_source
    for gone in ("_run_ticks_thread", "_run_ticks_process",
                 "_ThreadCommandQueue", "_teardown_process_backend",
                 "control_arena_slots"):
        assert gone not in fleet_source + worker_source
    assert "TickLoop(" in inspect.getsource(shard_worker.shard_worker_main)
    assert "TickLoop(" in inspect.getsource(ThreadShardHandle)
    # Neither side drains a ring or runs a tick outside the loop body.
    for source in (worker_source, inspect.getsource(ThreadShardHandle)):
        assert ".drain()" not in source
        assert "run_tick()" not in source
