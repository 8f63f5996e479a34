"""Tests for the durable game server."""

import pickle

import numpy as np
import pytest

from repro.core.registry import ALGORITHM_KEYS
from repro.engine.app import TickApplication, TickUpdatesPlan
from repro.engine.recovery import RecoveryManager
from repro.engine.server import DurableGameServer
from repro.engine.writer_pool import CheckpointWriterPool
from repro.errors import EngineError, GeometryError
from repro.state.dirty import EpochSet, PolarityBitmap, unique_ids
from repro.state.table import GameStateTable
from repro.storage.layout import GEOMETRY_BYTES, RECORD_HEADER_BYTES


class FixedBufferApp(TickApplication):
    """Hands out the *same* rows/columns/values arrays every tick.

    The index arrays are unsorted with repeats and stay within the first
    ``touched_rows`` rows; ``bad_tick``'s plan carries ``bad_row`` instead
    of its first row.
    """

    def __init__(self, geometry, touched_rows=100, bad_tick=None,
                 bad_row=None):
        self._geometry = geometry
        draw = np.random.default_rng(11)
        self.rows = draw.integers(0, touched_rows, 24)
        self.columns = draw.integers(0, geometry.columns, 24)
        self.rows[5], self.columns[5] = self.rows[0], self.columns[0]
        self._first_row = int(self.rows[0])
        self._base = draw.random(24).astype(np.float32)
        self.values = np.empty(24, dtype=np.float32)
        self._bad_tick, self._bad_row = bad_tick, bad_row

    @property
    def geometry(self):
        return self._geometry

    def initialize(self, table, rng):
        table.cells[:] = rng.random(table.cells.shape).astype(np.float32)

    def plan_tick(self, table, rng, tick):
        self.rows[0] = (
            self._bad_row if tick == self._bad_tick else self._first_row
        )
        np.add(self._base, np.float32(tick), out=self.values)
        return TickUpdatesPlan(self.rows, self.columns, self.values)


class HotObjectApp(TickApplication):
    """Every tick lands 1,000 updates on one atomic object (a different one
    each tick) plus 40 spread over the table; a cell's value depends only on
    the cell and the tick, so repeated cells agree."""

    def __init__(self, geometry):
        self._geometry = geometry

    @property
    def geometry(self):
        return self._geometry

    def initialize(self, table, rng):
        table.cells[:] = rng.random(table.cells.shape).astype(np.float32)

    def plan_tick(self, table, rng, tick):
        geometry = self._geometry
        hot = geometry.cell_range_of_object(
            int(rng.integers(geometry.num_objects))
        )
        cells = np.concatenate([
            rng.integers(hot.start, hot.stop, 1_000),
            rng.integers(0, geometry.num_cells, 40),
        ])
        rng.shuffle(cells)
        values = (cells % 97 + 100 * tick).astype(np.float32)
        return TickUpdatesPlan(
            cells // geometry.columns, cells % geometry.columns, values
        )


def dedupe_then_stamp(self, ids):
    """``EpochSet.add_new`` in the old order: dedupe every id of the tick,
    then test the stamps."""
    ids = unique_ids(np.asarray(ids))
    fresh = ids[self._stamps[ids] != self._epoch]
    self._stamps[fresh] = self._epoch
    return fresh


class TestRepeatedObjectIds:
    @pytest.mark.parametrize("algorithm",
                             ["copy-on-update", "cou-partial-redo"])
    def test_hot_object_recovers_and_leaves_the_same_files(
        self, tiny_geometry, tmp_path, algorithm, monkeypatch
    ):
        def run(directory):
            server = DurableGameServer(
                HotObjectApp(tiny_geometry), directory, algorithm=algorithm,
                seed=9,
            )
            server.run_ticks(90)
            assert server.stats.checkpoints_completed >= 3
            server.crash()
            return {
                path.name: path.read_bytes()
                for path in sorted(directory.iterdir())
            }

        files = run(tmp_path / "stamps-first")
        monkeypatch.setattr(EpochSet, "add_new", dedupe_then_stamp)
        assert run(tmp_path / "dedupe-first") == files
        monkeypatch.undo()

        app = HotObjectApp(tiny_geometry)
        oracle = GameStateTable(tiny_geometry, dtype=app.dtype)
        oracle_rng = np.random.default_rng(9)
        app.initialize(oracle, oracle_rng)
        for tick in range(90):
            plan = app.plan_tick(oracle, oracle_rng, tick)
            oracle.apply_updates(plan.rows, plan.columns, plan.values)
        report = RecoveryManager(
            app, tmp_path / "stamps-first", seed=9
        ).recover()
        assert report.next_tick == 90
        assert not report.used_seed_fallback
        assert report.table.equals(oracle)


class TwoBitmapBits:
    """``DoubleBackupBits`` as two ``PolarityBitmap``s, one per backup: the
    layout before one word per object held both bits."""

    def __init__(self, num_objects):
        self._bitmaps = [PolarityBitmap(num_objects, fill=True)
                         for _ in range(2)]
        self._current = 0

    def mark_updated(self, ids):
        for bitmap in self._bitmaps:
            bitmap.set(ids)

    def begin_checkpoint(self):
        bitmap = self._bitmaps[self._current]
        write_set = bitmap.set_ids()
        bitmap.clear(write_set)
        return write_set

    def finish_checkpoint(self):
        self._current = 1 - self._current


class TestDoubleBackupWords:
    @pytest.mark.parametrize("algorithm", ["copy-on-update", "atomic-copy"])
    def test_checkpoint_trees_match_two_bitmaps(
        self, tiny_geometry, tmp_path, algorithm, monkeypatch
    ):
        import repro.core.algorithms.atomic_copy as atomic_copy
        import repro.core.algorithms.copy_on_update as copy_on_update

        def run(directory):
            server = DurableGameServer(
                HotObjectApp(tiny_geometry), directory, algorithm=algorithm,
                seed=4,
            )
            server.run_ticks(90)
            assert server.stats.checkpoints_completed >= 3
            server.crash()
            return {
                path.name: path.read_bytes()
                for path in sorted(directory.iterdir())
            }

        files = run(tmp_path / "words")
        for module in (atomic_copy, copy_on_update):
            monkeypatch.setattr(module, "DoubleBackupBits", TwoBitmapBits)
        assert run(tmp_path / "bitmaps") == files


class TestTickLoop:
    def test_runs_and_counts(self, random_walk_app, tmp_path):
        with DurableGameServer(random_walk_app, tmp_path) as server:
            server.run_ticks(10)
            assert server.ticks_run == 10
            assert server.stats.ticks_run == 10
            assert server.stats.updates_applied == 500

    def test_checkpoints_happen(self, random_walk_app, tmp_path):
        with DurableGameServer(random_walk_app, tmp_path) as server:
            server.run_ticks(40)
            assert server.stats.checkpoints_started >= 2
            assert server.stats.checkpoints_completed >= 1
            assert server.last_committed_checkpoint_tick is not None

    def test_bytes_written_grow(self, random_walk_app, tmp_path):
        with DurableGameServer(random_walk_app, tmp_path) as server:
            server.run_ticks(5)
            assert server.stats.bytes_written > 0

    def test_every_algorithm_runs(self, random_walk_app, tmp_path):
        for algorithm in ALGORITHM_KEYS:
            directory = tmp_path / algorithm
            with DurableGameServer(
                random_walk_app, directory, algorithm=algorithm
            ) as server:
                server.run_ticks(25)
                assert server.stats.checkpoints_completed >= 1, algorithm

    def test_dribble_log_holds_one_image(self, random_walk_app, tmp_path):
        """Every Dribble checkpoint is a full dump, so each one replaces
        the log instead of growing it by an image."""
        geometry = random_walk_app.geometry
        with DurableGameServer(
            random_walk_app, tmp_path, algorithm="dribble",
        ) as server:
            while server.stats.checkpoints_completed < 10:
                server.run_tick()
                server.wait_checkpoint_idle()
            store = server._store
            records = store._log.walk()
            framing = (
                8 * geometry.num_objects
                + RECORD_HEADER_BYTES * len(records) + GEOMETRY_BYTES
            )
            assert store.size_bytes() <= geometry.checkpoint_bytes + framing

    def test_algorithm_name_exposed(self, random_walk_app, tmp_path):
        with DurableGameServer(
            random_walk_app, tmp_path, algorithm="copy-on-update"
        ) as server:
            assert server.algorithm_name == "Copy-on-Update"

    def test_checkpoint_interval_spaces_starts(self, random_walk_app,
                                               tmp_path):
        with DurableGameServer(
            random_walk_app, tmp_path, min_checkpoint_interval_ticks=9,
        ) as server:
            starts = []
            last = server.stats.checkpoints_started
            for tick in range(40):
                server.run_tick()
                if server.stats.checkpoints_started > last:
                    starts.append(tick)
                    last = server.stats.checkpoints_started
            assert len(starts) >= 3
            assert all(b - a >= 9 for a, b in zip(starts, starts[1:]))

    def test_checkpoint_interval_recovery_still_exact(self, random_walk_app,
                                                      tmp_path):
        from repro.engine.recovery import RecoveryManager

        kwargs = dict(min_checkpoint_interval_ticks=11, seed=4)
        reference = DurableGameServer(random_walk_app, tmp_path / "ref",
                                      **kwargs)
        reference.run_ticks(50)
        victim = DurableGameServer(random_walk_app, tmp_path / "victim",
                                   **kwargs)
        victim.run_ticks(50)
        victim.crash()
        report = RecoveryManager(
            random_walk_app, victim.directory, seed=4
        ).recover()
        assert report.table.equals(reference.table)
        reference.close()

    def test_bad_checkpoint_interval_rejected(self, random_walk_app,
                                              tmp_path):
        with pytest.raises(EngineError):
            DurableGameServer(
                random_walk_app, tmp_path, min_checkpoint_interval_ticks=0
            )

    def test_sync_mode_runs_and_recovers(self, random_walk_app, tmp_path):
        """fsync-on-write mode: slower but the same durable behaviour."""
        from repro.engine.recovery import RecoveryManager

        reference = DurableGameServer(
            random_walk_app, tmp_path / "ref", seed=2, fsync_policy="always"
        )
        reference.run_ticks(30)
        victim = DurableGameServer(
            random_walk_app, tmp_path / "victim", seed=2, fsync_policy="always"
        )
        victim.run_ticks(30)
        victim.crash()
        report = RecoveryManager(
            random_walk_app, victim.directory, seed=2
        ).recover()
        assert report.table.equals(reference.table)
        reference.close()


class TestPlanHandling:
    @pytest.mark.parametrize("algorithm",
                             ["copy-on-update", "cou-partial-redo"])
    def test_reused_plan_buffers_survive_and_match_oracle(
        self, tiny_geometry, tmp_path, algorithm
    ):
        app = FixedBufferApp(tiny_geometry)
        rows, columns = app.rows.copy(), app.columns.copy()
        oracle = GameStateTable(tiny_geometry, dtype=app.dtype)
        oracle_rng = np.random.default_rng(3)
        app.initialize(oracle, oracle_rng)
        with DurableGameServer(
            app, tmp_path, algorithm=algorithm, seed=3
        ) as server:
            for tick in range(40):
                server.run_tick()
                assert app.rows.tolist() == rows.tolist()
                assert app.columns.tolist() == columns.tolist()
                plan = app.plan_tick(oracle, oracle_rng, tick)
                oracle.apply_updates(plan.rows, plan.columns, plan.values)
            assert server.stats.checkpoints_completed >= 1
            assert server.table.equals(oracle)

    @pytest.mark.parametrize("algorithm",
                             ["copy-on-update", "cou-partial-redo"])
    @pytest.mark.parametrize("bad_row", [10**6, -1])
    def test_invalid_plan_is_rejected_before_handle_update(
        self, tiny_geometry, tmp_path, algorithm, bad_row
    ):
        """Row 10**6 used to die with a bare IndexError inside the dirty
        bitmap; row -1 wrapped and marked the last object dirty before the
        table refused the plan.  A pool writer, because only a writer that
        reads beside the mutator gives the executor a snapshot to save old
        values into."""
        bad_tick = 30
        app = FixedBufferApp(tiny_geometry, bad_tick=bad_tick,
                             bad_row=bad_row)
        with CheckpointWriterPool(1) as pool, DurableGameServer(
            app, tmp_path, algorithm=algorithm, writer_pool=pool
        ) as server:
            server.run_ticks(bad_tick)
            # A checkpoint has begun, so the untouched last object is clean
            # and a wrapped mark on it would show.
            assert server.stats.checkpoints_started >= 1
            bookkeeping = pickle.dumps(server._policy)
            slots = server._executor._slots.copy()
            saved = server._executor._saved
            table = server.table.copy()
            with pytest.raises(GeometryError, match="row index"):
                server.run_tick()
            assert pickle.dumps(server._policy) == bookkeeping
            assert np.array_equal(server._executor._slots, slots)
            assert server._executor._saved == saved
            assert server.table.equals(table)
            assert server._action_log.last_tick == bad_tick - 1
            assert server.ticks_run == bad_tick

    def test_invalid_first_plan_leaves_the_log_empty(self, tiny_geometry,
                                                     tmp_path):
        app = FixedBufferApp(tiny_geometry, bad_tick=0, bad_row=10**6)
        with DurableGameServer(app, tmp_path) as server:
            with pytest.raises(GeometryError):
                server.run_tick()
            assert server._action_log.last_tick is None
            assert list(server._action_log.records()) == []


class TestLifecycle:
    def test_crash_stops_ticks(self, random_walk_app, tmp_path):
        server = DurableGameServer(random_walk_app, tmp_path)
        server.run_ticks(3)
        server.crash()
        with pytest.raises(EngineError):
            server.run_tick()

    def test_closed_server_rejects_ticks(self, random_walk_app, tmp_path):
        server = DurableGameServer(random_walk_app, tmp_path)
        server.close()
        with pytest.raises(EngineError):
            server.run_tick()

    def test_double_close_is_noop(self, random_walk_app, tmp_path):
        server = DurableGameServer(random_walk_app, tmp_path)
        server.close()
        server.close()

    def test_crash_after_close_rejected(self, random_walk_app, tmp_path):
        server = DurableGameServer(random_walk_app, tmp_path)
        server.close()
        with pytest.raises(EngineError):
            server.crash()

    def test_refuses_dirty_directory(self, random_walk_app, tmp_path):
        server = DurableGameServer(random_walk_app, tmp_path)
        server.run_ticks(2)
        server.close()
        with pytest.raises(EngineError):
            DurableGameServer(random_walk_app, tmp_path)


class TestDeterminism:
    def test_two_servers_same_seed_identical(self, random_walk_app, tmp_path):
        a = DurableGameServer(random_walk_app, tmp_path / "a", seed=5)
        b = DurableGameServer(random_walk_app, tmp_path / "b", seed=5)
        a.run_ticks(30)
        b.run_ticks(30)
        assert a.table.equals(b.table)
        a.close()
        b.close()

    def test_different_seeds_differ(self, random_walk_app, tmp_path):
        a = DurableGameServer(random_walk_app, tmp_path / "a", seed=1)
        b = DurableGameServer(random_walk_app, tmp_path / "b", seed=2)
        a.run_ticks(5)
        b.run_ticks(5)
        assert not a.table.equals(b.table)
        a.close()
        b.close()
