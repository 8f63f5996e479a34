"""Micro-benchmarks of the substrates (classic pytest-benchmark loops).

These are not paper artifacts; they document the throughput of the building
blocks so regressions in the hot paths (trace generation, per-tick set
algebra, storage I/O, game ticks) show up in benchmark history.
"""

import numpy as np
import pytest

from repro.config import PAPER_CONFIG, PAPER_GEOMETRY, StateGeometry
from repro.core.registry import make_policy
from repro.game import BattleScenario, KnightsArchersGame
from repro.simulation.simulator import CheckpointSimulator, PrecomputedObjectTrace
from repro.state.dirty import DoubleBackupBits, EpochSet
from repro.state.table import GameStateTable
from repro.storage.double_backup import DoubleBackupStore
from repro.workloads.zipf import ZipfDistribution, ZipfTrace


class TestWorkloadGeneration:
    def test_zipf_sampling_64k(self, benchmark):
        """Drawing one 64,000-update tick from the Zipf row distribution."""
        dist = ZipfDistribution(PAPER_GEOMETRY.rows, 0.8)
        rng = np.random.default_rng(0)
        benchmark(dist.sample, 64_000, rng)

    def test_tick_reduction_64k(self, benchmark):
        """Mapping 64,000 cell updates to unique atomic objects."""
        trace = ZipfTrace(PAPER_GEOMETRY, 64_000, 0.8, num_ticks=1, seed=0)
        cells = next(iter(trace))

        def reduce_tick():
            return np.unique(PAPER_GEOMETRY.object_of_cell(cells))

        benchmark(reduce_tick)


class TestSimulatorThroughput:
    @pytest.mark.parametrize("algorithm", ["naive-snapshot", "copy-on-update"])
    def test_simulated_ticks_per_second(self, benchmark, algorithm):
        """Simulating 30 paper-scale ticks at 64,000 updates/tick."""
        simulator = CheckpointSimulator(PAPER_CONFIG)
        trace = PrecomputedObjectTrace(
            ZipfTrace(PAPER_GEOMETRY, 64_000, 0.8, num_ticks=30, seed=0)
        )
        benchmark.pedantic(
            simulator.run, args=(algorithm, trace), rounds=3, iterations=1
        )


class TestDirtyTracking:
    def test_epoch_set_add_new(self, benchmark):
        epoch_set = EpochSet(PAPER_GEOMETRY.num_objects)
        ids = np.random.default_rng(0).integers(
            0, PAPER_GEOMETRY.num_objects, size=40_000
        )
        unique = np.unique(ids)

        def round_trip():
            epoch_set.reset()
            return epoch_set.add_new(unique)

        benchmark(round_trip)

    def test_double_backup_bits_cycle(self, benchmark):
        bits = DoubleBackupBits(PAPER_GEOMETRY.num_objects)
        ids = np.unique(
            np.random.default_rng(0).integers(
                0, PAPER_GEOMETRY.num_objects, size=40_000
            )
        )

        def cycle():
            bits.mark_updated(ids)
            write_set = bits.begin_checkpoint()
            bits.finish_checkpoint()
            return write_set

        benchmark(cycle)


class TestStorageThroughput:
    def test_double_backup_write_1mb(self, benchmark, tmp_path):
        geometry = StateGeometry(rows=32_768, columns=8)  # 1 MB state
        table = GameStateTable(geometry)
        table.fill_random(np.random.default_rng(0))
        ids = np.arange(geometry.num_objects)
        payload = table.object_bytes(ids)
        epoch = [0]

        with DoubleBackupStore(tmp_path, geometry) as store:
            def checkpoint():
                epoch[0] += 1
                store.begin_checkpoint(epoch[0] % 2, epoch[0])
                store.write_objects(ids, payload)
                store.commit_checkpoint(tick=epoch[0])

            benchmark(checkpoint)

    def test_double_backup_restore_1mb(self, benchmark, tmp_path):
        geometry = StateGeometry(rows=32_768, columns=8)
        table = GameStateTable(geometry)
        ids = np.arange(geometry.num_objects)
        with DoubleBackupStore(tmp_path, geometry) as store:
            store.begin_checkpoint(0, 1)
            store.write_objects(ids, table.object_bytes(ids))
            store.commit_checkpoint(tick=0)
            benchmark(store.read_image, 0)


class TestGameThroughput:
    def test_game_tick_8k_units(self, benchmark):
        scenario = BattleScenario(num_units=8_192)
        game = KnightsArchersGame(scenario)
        table = GameStateTable(scenario.geometry, dtype=np.float32)
        rng = np.random.default_rng(0)
        game.initialize(table, rng)
        tick_counter = [0]

        def one_tick():
            plan = game.plan_tick(table, rng, tick_counter[0])
            table.apply_updates(plan.rows, plan.columns, plan.values)
            tick_counter[0] += 1
            return plan.update_count

        benchmark(one_tick)


class TestPolicyThroughput:
    @pytest.mark.parametrize(
        "algorithm", ["dribble", "copy-on-update", "atomic-copy"]
    )
    def test_handle_updates_40k_objects(self, benchmark, algorithm):
        policy = make_policy(algorithm, PAPER_GEOMETRY.num_objects)
        policy.begin_checkpoint()
        unique = np.unique(
            np.random.default_rng(0).integers(
                0, PAPER_GEOMETRY.num_objects, size=64_000
            )
        )
        benchmark(policy.handle_updates, unique, 64_000)


class TestPersistenceThroughput:
    def test_trade_commit_rate(self, benchmark, tmp_path):
        """ACID trades per second through validate + WAL + apply."""
        from repro.persistence.server import PersistenceServer

        server = PersistenceServer(tmp_path, snapshot_every=10_000)
        alice = server.create_character("alice", gold=10**9)
        bob = server.create_character("bob", gold=10**9)
        sword = server.grant_item(alice, "sword")
        state = {"owner": alice, "other": bob}

        def trade():
            result = server.trade_item(
                sword, state["owner"], state["other"], 1
            )
            state["owner"], state["other"] = state["other"], state["owner"]
            return result

        benchmark(trade)
        server.close()
