"""Tests for fleet command ingestion: rings, queues, torn batches.

The serving path hands each shard one command batch per tick.  These tests
pin the contracts the gateway depends on:

* batched ingestion is tick-equivalent to driving a server directly (the
  commands land in the same ticks, so state and logs match);
* the command ring is the only way commands reach a worker;
* a worker that dies *after* draining a batch but *before* the tick that
  would log it loses exactly that batch -- recovery replays the durable
  log only, applying nothing twice and nothing phantom;
* ``try_run_ticks`` isolates one shard's failure while survivors serve.
"""

import inspect
import multiprocessing

import pytest

import repro.engine.fleet as fleet_module
import repro.engine.shard_worker as shard_worker
import repro.state.ring as ring_module
from repro.engine.fleet import ShardFleet
from repro.engine.server import DurableGameServer
from repro.errors import BackpressureError, EngineError
from repro.frontend.gateway import FrontDoor
from repro.game.knights_archers import KnightsArchersGame
from repro.game.scenario import BattleScenario
from repro.state.ring import SharedCommandRing

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process backend needs the fork start method",
)

#: Per-tick command script every scripted run follows (commands change
#: state, so equivalence assertions are sensitive to drops/duplicates).
SCRIPT = {
    2: [b"heal:7", b"teleport:3:50:50"],
    5: [b"activate:10", b"heal:1"],
    8: [b"deactivate:20", b"heal:3"],
}
SCRIPT_TICKS = 10


@pytest.fixture
def app_factory():
    return lambda index: KnightsArchersGame(BattleScenario(num_units=256))


def make_fleet(app_factory, directory, num_shards=1, **kwargs):
    kwargs.setdefault("algorithm", "copy-on-update")
    kwargs.setdefault("seed", 9)
    kwargs.setdefault("min_checkpoint_interval_ticks", 3)
    return ShardFleet(app_factory, directory, num_shards, **kwargs)


def drive_scripted(fleet, ticks=SCRIPT_TICKS):
    """Submit the script through the fleet's ingestion path, tick by tick."""
    for tick in range(ticks):
        commands = SCRIPT.get(tick, [])
        for index in range(fleet.num_shards):
            if commands:
                accepted = fleet.submit_commands(index, commands)
                assert accepted == len(commands)
        fleet.run_ticks(1, checkpoint_barrier=True)


def reference_server(app_factory, directory, seed, ticks, extra=None):
    """A direct-driven twin: same app, same seed, same command schedule."""
    server = DurableGameServer(
        app_factory(0), directory, algorithm="copy-on-update", seed=seed
    )
    schedule = dict(SCRIPT)
    if extra:
        for tick, commands in extra.items():
            schedule[tick] = schedule.get(tick, []) + commands
    for tick in range(ticks):
        for command in schedule.get(tick, []):
            server.submit_command(command)
        server.run_tick()
    return server


class TestThreadBackend:
    def test_batched_queue_is_tick_equivalent(self, app_factory, tmp_path):
        fleet = make_fleet(app_factory, tmp_path / "fleet", seed=9)
        drive_scripted(fleet)
        reference = reference_server(
            app_factory, tmp_path / "ref", seed=9, ticks=SCRIPT_TICKS
        )
        assert fleet.shards[0].game.table.equals(reference.table)
        reference.close()
        fleet.close()

    def test_backpressure_and_pending_introspection(
        self, app_factory, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(ring_module, "COMMAND_RING_BYTES", 64)
        fleet = make_fleet(app_factory, tmp_path)
        assert fleet.command_capacity_bytes == 64
        assert fleet.submit_commands(0, [b"x" * 20] * 4) == 2
        assert fleet.pending_commands(0) == 2
        with pytest.raises(BackpressureError) as excinfo:
            fleet.submit_command(0, b"y" * 20)
        assert excinfo.value.queue == "shard-00"
        assert excinfo.value.capacity == 64
        fleet.run_ticks(1)
        assert fleet.pending_commands(0) == 0
        fleet.close()

    def test_non_bytes_command_rejected(self, app_factory, tmp_path):
        fleet = make_fleet(app_factory, tmp_path)
        with pytest.raises(EngineError):
            fleet.submit_commands(0, ["text"])
        fleet.close()

    def test_try_run_ticks_isolates_crashed_shard(self, app_factory,
                                                  tmp_path):
        fleet = make_fleet(app_factory, tmp_path, num_shards=2)
        fleet.run_ticks(2)
        fleet.shards[0].crash()
        report = fleet.try_run_ticks(3)
        assert not report.ok
        assert report.failed_shards == [0]
        assert isinstance(report.errors[0], EngineError)
        assert report.shard_stats[0] is None
        assert report.shard_stats[1].ticks_run == 5
        assert fleet.dead_shards() == [0]
        with pytest.raises(EngineError):
            fleet.submit_commands(0, [b"c"])
        # run_ticks (the raising surface) surfaces the same failure.
        with pytest.raises(EngineError):
            fleet.run_ticks(1)
        fleet.close()


@needs_fork
class TestProcessBackend:
    def test_ring_ingestion_is_tick_equivalent(self, app_factory, tmp_path):
        fleet = make_fleet(
            app_factory, tmp_path / "fleet", backend="process", seed=9
        )
        drive_scripted(fleet)
        fleet.quiesce()
        fleet.close()
        reference = reference_server(
            app_factory, tmp_path / "ref", seed=9, ticks=SCRIPT_TICKS
        )
        recovery = ShardFleet.recover(
            app_factory, tmp_path / "fleet", num_shards=1, seed=9
        )[0]
        assert recovery.game.table.equals(reference.table)
        reference.close()
        recovery.persistence.close()

    def test_ring_commands_survive_crash_once_logged(self, app_factory,
                                                     tmp_path):
        """Commands delivered by ring and ticked are durably logged: a
        SIGKILL afterwards loses nothing."""
        fleet = make_fleet(
            app_factory, tmp_path / "fleet", backend="process", seed=7
        )
        drive_scripted(fleet)
        extra = {SCRIPT_TICKS: [b"heal:11", b"teleport:5:10:10"]}
        fleet.submit_commands(0, extra[SCRIPT_TICKS])
        fleet.run_ticks(1, checkpoint_barrier=True)
        fleet.crash_worker(0, when="kill")
        fleet.crash()

        recovery = ShardFleet.recover(
            app_factory, tmp_path / "fleet", num_shards=1, seed=7
        )[0]
        assert recovery.game.next_tick == SCRIPT_TICKS + 1
        reference = reference_server(
            app_factory, tmp_path / "ref", seed=7,
            ticks=SCRIPT_TICKS + 1, extra=extra,
        )
        assert recovery.game.table.equals(reference.table)
        reference.close()
        recovery.persistence.close()

    def test_mid_drain_crash_loses_batch_not_log(self, app_factory,
                                                 tmp_path):
        """The torn-batch case: the worker dies after draining a batch but
        before the tick that would log it.  The batch is lost (clients get
        shard-down rejections upstream); recovery replays exactly the
        durable log -- no duplicate, no phantom."""
        fleet = make_fleet(
            app_factory, tmp_path / "fleet", backend="process", seed=13
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
            app_factory, tmp_path / "fleet", num_shards=1, seed=13
        )[0]
        # Every durable tick recovered; the doomed batch's tick never
        # became durable, so the recovered world never saw its commands.
        assert recovery.game.next_tick == SCRIPT_TICKS
        reference = reference_server(
            app_factory, tmp_path / "ref", seed=13, ticks=SCRIPT_TICKS
        )
        assert recovery.game.table.equals(reference.table)
        reference.close()
        recovery.persistence.close()

    def test_survivors_serve_through_one_shard_crash(self, app_factory,
                                                     tmp_path):
        fleet = make_fleet(
            app_factory, tmp_path, num_shards=2, backend="process"
        )
        fleet.run_ticks(3)
        fleet.crash_worker(0, when="now")
        report = fleet.try_run_ticks(3)
        assert report.failed_shards == [0]
        assert report.shard_stats[1].ticks_run == 6
        # The survivor keeps accepting and applying commands.
        assert fleet.submit_commands(1, [b"heal:6"]) == 1
        follow_up = fleet.try_run_ticks(1)
        assert follow_up.errors[1] is None
        assert fleet.pending_commands(1) == 0
        assert fleet.dead_shards() == [0]
        fleet.close()


def test_no_second_ingestion_path_grows_back():
    """The command ring is the only way commands reach a worker: no
    transport argument on the fleet or the front door, no per-command pipe
    message in the worker, and one producer and one admission path."""
    def parameters(function):
        return list(inspect.signature(function).parameters)

    assert parameters(ShardFleet.submit_commands) == [
        "self", "index", "payloads",
    ]
    assert parameters(ShardFleet.submit_command) == [
        "self", "index", "payload",
    ]
    assert "transport" not in parameters(FrontDoor.__init__)
    assert not hasattr(fleet_module, "COMMAND_" + "TRANSPORTS")
    assert '"command"' not in inspect.getsource(shard_worker)
    assert "push_batch" in inspect.getsource(SharedCommandRing.try_push)
    assert "submit_batch" in inspect.getsource(FrontDoor.submit)
