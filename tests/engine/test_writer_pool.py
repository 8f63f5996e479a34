"""Tests for the shared checkpoint writer pool."""

import threading
import time

import numpy as np
import pytest

from repro.config import StateGeometry
from repro.engine import writer as writer_module
from repro.engine.fleet import ShardFleet
from repro.engine.server import DurableGameServer
from repro.engine.writer import CheckpointJob
from repro.engine.writer_pool import CheckpointWriterPool
from repro.errors import CheckpointWriterError, StorageError
from repro.storage.checkpoint_log import CheckpointLogStore
from repro.storage.double_backup import DoubleBackupStore
from repro.storage.layout import STATE_EMPTY
from tests.conftest import FlushGate

GEOMETRY = StateGeometry(rows=400, columns=10)


class ArraySource:
    """Payload source backed by a fixed array (no mutator races)."""

    def __init__(self, objects: np.ndarray) -> None:
        self._objects = objects

    def read_payloads_into(self, object_ids: np.ndarray, out) -> None:
        out[:] = self._objects[object_ids].view(np.uint8)


class BlockingSource(ArraySource):
    """Payload source that parks the flushing worker until released."""

    def __init__(self, objects: np.ndarray) -> None:
        super().__init__(objects)
        self.entered = threading.Event()
        self.release = threading.Event()

    def read_payloads_into(self, object_ids: np.ndarray, out) -> None:
        self.entered.set()
        self.release.wait(timeout=30.0)
        super().read_payloads_into(object_ids, out)


def make_objects(seed=0):
    rng = np.random.default_rng(seed)
    return rng.random(
        (GEOMETRY.num_objects, GEOMETRY.cells_per_object)
    ).astype(np.float32)


def full_job(source, epoch=1, cut_tick=5, backup_index=0, is_full_dump=False):
    return CheckpointJob(
        object_ids=np.arange(GEOMETRY.num_objects, dtype=np.int64),
        epoch=epoch,
        cut_tick=cut_tick,
        source=source,
        backup_index=backup_index,
        is_full_dump=is_full_dump,
    )


def store_job(store, source, epoch, cut_tick):
    """A full-state job shaped for whichever disk organization ``store`` is."""
    if isinstance(store, DoubleBackupStore):
        return full_job(source, epoch, cut_tick, backup_index=(epoch - 1) % 2)
    return full_job(source, epoch, cut_tick, backup_index=None,
                    is_full_dump=True)


def restore(store):
    """``(image bytes, epoch, tick)`` of the newest committed checkpoint."""
    if isinstance(store, DoubleBackupStore):
        found = store.latest_consistent()
        return (
            bytes(store.read_image(found.backup_index)),
            found.epoch,
            found.tick,
        )
    image, epoch, tick = store.restore_image()
    return bytes(image), epoch, tick


@pytest.fixture
def app_factory(random_walk_app):
    app_class = type(random_walk_app)
    return lambda index: app_class(GEOMETRY)


class TestConstruction:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_workers": 0},
            {"num_workers": 2, "chunk_objects": 0},
            {"num_workers": -1},
            {"num_workers": 2, "chunk_objects": -1},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(CheckpointWriterError):
            CheckpointWriterPool(**kwargs)

    def test_register_after_close_rejected(self, tmp_path):
        pool = CheckpointWriterPool(1)
        pool.close()
        with DoubleBackupStore(tmp_path, GEOMETRY) as store:
            with pytest.raises(CheckpointWriterError):
                pool.register(store)


class TestOneCheckpointWriter:
    def test_no_second_writer_grows_back(self):
        """The pool is the only asynchronous writer: no thread or queue in
        the flush routine's module, no per-server writer class exported."""
        import inspect
        import re

        import repro.engine

        assert not re.search(
            r"^\s*(import|from)\s+(threading|queue)\b",
            inspect.getsource(writer_module), re.MULTILINE,
        )
        retired = "Async" + "CheckpointWriter"  # spelled so a grep stays clean
        assert not hasattr(repro.engine, retired)
        assert not hasattr(writer_module, retired)

    def test_no_second_pool_schedule_grows_back(self):
        """One schedule: a worker flushes the oldest-cut job per wakeup.  No
        batch, no admission bound and no knob for either comes back."""
        import inspect

        from repro.engine import writer_pool

        parameters = inspect.signature(CheckpointWriterPool.__init__).parameters
        assert list(parameters) == [
            "self", "num_workers", "chunk_objects", "name",
        ]
        source = inspect.getsource(writer_pool)
        assert "batch" not in source.lower()
        assert "_space" not in source


class TestRoundTrip:
    def test_many_shards_few_workers(self, tmp_path):
        """5 stores of both types flushed correctly by 2 worker threads."""
        with CheckpointWriterPool(2, chunk_objects=8) as pool:
            stores, handles, arrays = [], [], []
            for index in range(5):
                if index % 2 == 0:
                    store = DoubleBackupStore(tmp_path / str(index), GEOMETRY)
                else:
                    store = CheckpointLogStore(tmp_path / str(index), GEOMETRY)
                stores.append(store)
                handles.append(pool.register(store))
                arrays.append(make_objects(index))
            for index, handle in enumerate(handles):
                handle.submit(
                    full_job(
                        ArraySource(arrays[index]),
                        cut_tick=7,
                        backup_index=0 if index % 2 == 0 else None,
                        is_full_dump=index % 2 == 1,
                    )
                )
            for handle in handles:
                assert handle.wait_idle(timeout=10.0)
            for index, store in enumerate(stores):
                assert restore(store) == (arrays[index].tobytes(), 1, 7)
            stats = pool.stats()
            assert stats.jobs_completed == 5
            assert stats.jobs_submitted == 5
            for store in stores:
                store.close()

    def test_chunking_covers_every_object(self, tmp_path):
        objects = make_objects(3)
        with CheckpointWriterPool(1, chunk_objects=5) as pool:  # 32 % 5 != 0
            store = DoubleBackupStore(tmp_path, GEOMETRY)
            handle = pool.register(store)
            handle.submit(full_job(ArraySource(objects)))
            handle.close()  # graceful close waits for the queued job
            assert store.read_image(0) == objects.tobytes()
            store.close()

    def test_thread_count_is_pool_sized(self, tmp_path):
        """10 registered shards never spawn more than num_workers threads."""
        pool = CheckpointWriterPool(2, name="repro-pool-count")
        handles = []
        stores = []
        for index in range(10):
            store = DoubleBackupStore(tmp_path / str(index), GEOMETRY)
            stores.append(store)
            handles.append(pool.register(store))
        for index, handle in enumerate(handles):
            handle.submit(full_job(ArraySource(make_objects(index))))
        for handle in handles:
            assert handle.wait_idle(timeout=10.0)
        pool_threads = [
            thread for thread in threading.enumerate()
            if thread.name.startswith("repro-pool-count")
        ]
        assert len(pool_threads) == 2
        pool.close()
        for store in stores:
            store.close()

    def test_per_handle_stats_are_isolated(self, tmp_path):
        with CheckpointWriterPool(1) as pool:
            store_a = DoubleBackupStore(tmp_path / "a", GEOMETRY)
            store_b = DoubleBackupStore(tmp_path / "b", GEOMETRY)
            handle_a = pool.register(store_a, name="a")
            handle_b = pool.register(store_b, name="b")
            handle_a.submit(full_job(ArraySource(make_objects(1))))
            assert handle_a.wait_idle(timeout=10.0)
            handle_a.submit(full_job(
                ArraySource(make_objects(1)), epoch=2, cut_tick=9,
                backup_index=1,
            ))
            assert handle_a.wait_idle(timeout=10.0)
            handle_b.submit(full_job(ArraySource(make_objects(2))))
            assert handle_b.wait_idle(timeout=10.0)
            assert handle_a.stats().jobs_completed == 2
            assert handle_a.last_committed == (2, 9)
            assert handle_b.stats().jobs_completed == 1
            assert handle_b.last_committed == (1, 5)
            store_a.close()
            store_b.close()


class TestFailureIsolation:
    def test_one_shards_fault_does_not_wedge_others(self, tmp_path):
        """A store raising mid-flush poisons only its own handle."""
        with CheckpointWriterPool(1, chunk_objects=8) as pool:
            bad_store = DoubleBackupStore(tmp_path / "bad", GEOMETRY)
            good_store = DoubleBackupStore(tmp_path / "good", GEOMETRY)

            def explode():  # the job's one write batch, after staging
                raise StorageError("injected mid-flush fault")

            bad_store.write_fault_hook = explode
            bad = pool.register(bad_store, name="bad")
            good = pool.register(good_store, name="good")
            objects = make_objects(7)
            bad.submit(full_job(ArraySource(make_objects(3))))
            good.submit(full_job(ArraySource(objects)))
            assert bad.wait_idle(timeout=10.0, check=False)
            assert good.wait_idle(timeout=10.0)

            # The failed shard's handle carries the error...
            assert isinstance(bad.error, StorageError)
            with pytest.raises(CheckpointWriterError):
                bad.check()
            with pytest.raises(CheckpointWriterError):
                bad.submit(full_job(ArraySource(make_objects(3)), epoch=2))
            # ...its store is left with no committed checkpoint...
            with pytest.raises(Exception):
                bad_store.latest_consistent()
            # ...while the other shard committed intact bytes and can keep
            # checkpointing through the same (still healthy) pool.
            assert good_store.read_image(0) == objects.tobytes()
            good.submit(full_job(
                ArraySource(objects), epoch=2, cut_tick=11, backup_index=1,
            ))
            assert good.wait_idle(timeout=10.0)
            assert good.last_committed == (2, 11)
            # Every submitted job is accounted for on its own handle.
            for handle in (bad, good):
                stats = handle.stats()
                assert stats.jobs_submitted == (
                    stats.jobs_completed + stats.jobs_abandoned
                )
            bad.kill()  # retire the failed shard before the orderly close
            bad_store.close()
            good_store.close()

    def test_orderly_pool_close_reraises_handle_error(self, tmp_path):
        pool = CheckpointWriterPool(1)
        store = DoubleBackupStore(tmp_path, GEOMETRY)

        def explode():
            raise StorageError("injected fault")

        store.write_fault_hook = explode
        handle = pool.register(store)
        handle.submit(full_job(ArraySource(make_objects())))
        handle.wait_idle(timeout=10.0, check=False)
        with pytest.raises(CheckpointWriterError):
            pool.close()
        store.close()


class TestAdmissionControl:
    def test_submit_while_busy_rejected(self, tmp_path):
        with CheckpointWriterPool(1) as pool:
            store = DoubleBackupStore(tmp_path, GEOMETRY)
            handle = pool.register(store)
            source = BlockingSource(make_objects())
            handle.submit(full_job(source))
            assert source.entered.wait(timeout=10.0)
            with pytest.raises(CheckpointWriterError):
                handle.submit(full_job(source, epoch=2, backup_index=1))
            source.release.set()
            assert handle.wait_idle(timeout=10.0)
            store.close()

    def test_queue_drains_fifo_over_shards(self, tmp_path):
        """Round-robin fairness: queued shards commit in submission order."""
        pool = CheckpointWriterPool(1)
        blocker = BlockingSource(make_objects())
        stores, handles = [], []
        for index in range(4):
            store = DoubleBackupStore(tmp_path / str(index), GEOMETRY)
            stores.append(store)
            handles.append(pool.register(store))
        commit_order = []

        class RecordingSource(ArraySource):
            def __init__(self, objects, index):
                super().__init__(objects)
                self._index = index

            def read_payloads_into(self, object_ids, out):
                if self._index not in commit_order:
                    commit_order.append(self._index)
                super().read_payloads_into(object_ids, out)

        handles[0].submit(full_job(blocker))
        assert blocker.entered.wait(timeout=10.0)
        for index in (1, 2, 3):
            handles[index].submit(
                full_job(RecordingSource(make_objects(index), index))
            )
        blocker.release.set()
        for handle in handles:
            assert handle.wait_idle(timeout=10.0)
        assert commit_order == [1, 2, 3]
        pool.close()
        for store in stores:
            store.close()


    def test_two_queued_jobs_flush_on_two_workers_at_once(
        self, tmp_path, monkeypatch
    ):
        """Two handles' jobs queued before either idle worker wakes are in
        flight together: a worker takes one job per wakeup, so the second
        never waits behind the first on one thread."""
        pool = CheckpointWriterPool(2)
        gates = [FlushGate(), FlushGate()]
        stores, handles = [], []
        try:
            for index, gate in enumerate(gates):
                store = DoubleBackupStore(tmp_path / str(index), GEOMETRY)
                store.write_fault_hook = gate
                stores.append(store)
                handles.append(pool.register(store))
            pool._ensure_workers()
            # Queue both jobs without waking a worker, then wake both.
            monkeypatch.setattr(pool._work, "notify", lambda n=1: None)
            for index, handle in enumerate(handles):
                handle.submit(full_job(ArraySource(make_objects(index))))
            monkeypatch.undo()
            with pool._lock:
                pool._work.notify_all()
            for gate in gates:
                assert gate.reached.wait(timeout=10.0)
        finally:
            for gate in gates:
                gate.release()
            for handle in handles:
                handle.wait_idle(timeout=10.0)
            pool.close()
            for store in stores:
                store.close()


class TestShutdown:
    def test_kill_abandons_queued_job_without_touching_store(self, tmp_path):
        pool = CheckpointWriterPool(1)
        blocker = BlockingSource(make_objects())
        store_a = DoubleBackupStore(tmp_path / "a", GEOMETRY)
        store_b = DoubleBackupStore(tmp_path / "b", GEOMETRY)
        handle_a = pool.register(store_a)
        handle_b = pool.register(store_b)
        handle_a.submit(full_job(blocker))
        assert blocker.entered.wait(timeout=10.0)
        handle_b.submit(full_job(ArraySource(make_objects(1))))
        # Kill the queued handle: its job is dropped before any write.
        handle_b.kill(timeout=10.0)
        assert handle_b.stats().jobs_abandoned == 1
        assert store_b.header(0).state == STATE_EMPTY  # never touched
        blocker.release.set()
        assert handle_a.wait_idle(timeout=10.0)
        pool.close()
        store_a.close()
        store_b.close()

    def test_kill_abandons_in_flight_job_at_the_next_chunk(self, tmp_path):
        """Killed mid-gather: nothing but the begin marker reached the disk."""
        pool = CheckpointWriterPool(1, chunk_objects=8)
        store = DoubleBackupStore(tmp_path, GEOMETRY)
        handle = pool.register(store)
        source = BlockingSource(make_objects())
        handle.submit(full_job(source))
        assert source.entered.wait(timeout=10.0)  # parked in chunk one
        killer = threading.Thread(target=handle.kill, kwargs={"timeout": 10.0})
        killer.start()
        while not handle._abandon.is_set():
            time.sleep(0.001)
        source.release.set()
        killer.join(timeout=10.0)
        assert handle.idle
        stats = handle.stats()
        assert (stats.jobs_completed, stats.jobs_abandoned) == (0, 1)
        assert stats.bytes_written == 0
        with pytest.raises(Exception):
            store.latest_consistent()
        pool.close()
        store.close()

    def test_orderly_close_drains_queued_jobs(self, tmp_path):
        pool = CheckpointWriterPool(1)
        stores, handles, arrays = [], [], []
        for index in range(3):
            store = DoubleBackupStore(tmp_path / str(index), GEOMETRY)
            stores.append(store)
            handles.append(pool.register(store))
            arrays.append(make_objects(index))
            handles[index].submit(full_job(ArraySource(arrays[index])))
        pool.close(wait=True)  # drains all three to commit
        for index, store in enumerate(stores):
            assert store.read_image(0) == arrays[index].tobytes()
            store.close()

    def test_submit_after_close_rejected(self, tmp_path):
        pool = CheckpointWriterPool(1)
        store = DoubleBackupStore(tmp_path, GEOMETRY)
        handle = pool.register(store)
        pool.close()
        with pytest.raises(CheckpointWriterError):
            handle.submit(full_job(ArraySource(make_objects())))
        store.close()

    def test_close_timeouts_raise_instead_of_silently_leaking(self, tmp_path):
        """A wedged worker fails both the handle's and the pool's close."""
        pool = CheckpointWriterPool(1)
        store = DoubleBackupStore(tmp_path, GEOMETRY)
        handle = pool.register(store)
        source = BlockingSource(make_objects())
        handle.submit(full_job(source))
        assert source.entered.wait(timeout=10.0)
        with pytest.raises(CheckpointWriterError, match="did not release"):
            handle.close(timeout=0.2)
        with pytest.raises(CheckpointWriterError, match="did not stop"):
            pool.close(timeout=0.2)
        source.release.set()
        assert handle.wait_idle(timeout=10.0)
        pool.close()
        store.close()


class TestEngineIntegration:
    def test_two_servers_share_one_pool(self, random_walk_app, tmp_path):
        app_class = type(random_walk_app)
        with CheckpointWriterPool(1) as pool:
            servers = [
                DurableGameServer(
                    app_class(GEOMETRY), tmp_path / str(index),
                    algorithm="copy-on-update", seed=index,
                    writer_pool=pool, writer_name=f"server-{index}",
                )
                for index in range(2)
            ]
            for server in servers:
                assert server._executor.writer in pool.handles
                server.run_ticks(40)
            live = [server.table.cells.copy() for server in servers]
            for server in servers:
                server.crash()
            from repro.engine.recovery import RecoveryManager
            for index in range(2):
                report = RecoveryManager(
                    app_class(GEOMETRY), tmp_path / str(index), seed=index
                ).recover()
                assert np.array_equal(report.table.cells, live[index])

    def test_tick_totals_match_the_stats_snapshot(
        self, random_walk_app, tmp_path
    ):
        """``run_tick`` reads two counters, not a ``WriterStats`` copy."""
        with CheckpointWriterPool(1) as pool:
            server = DurableGameServer(
                type(random_walk_app)(GEOMETRY), tmp_path, writer_pool=pool,
            )
            server.run_ticks(20)
            server.wait_checkpoint_idle()   # counters are still from here on
            snapshot = server._executor.writer.stats()
            assert snapshot.bytes_written > 0
            assert server._executor.writer_totals() == (
                snapshot.bytes_written, snapshot.busy_seconds
            )
            server.close()

    def test_pooled_fleet_crash_recovers_bit_exact(self, app_factory, tmp_path):
        fleet = ShardFleet(
            app_factory, tmp_path, num_shards=3, seed=5, pool_size=2
        )
        fleet.run_ticks(25, parallel=True)
        assert fleet.writer_threads == 2
        live = [shard.game.table.cells.copy() for shard in fleet.shards]
        fleet.crash()
        reports = ShardFleet.recover(app_factory, tmp_path, 3, seed=5)
        for recovered, expected in zip(reports, live):
            assert np.array_equal(recovered.game.table.cells, expected)
            recovered.persistence.close()

    def test_pool_fault_on_one_shard_leaves_others_recoverable(
        self, app_factory, tmp_path
    ):
        """Mid-flush fault on shard 0 must not corrupt shards 1 and 2."""
        fleet = ShardFleet(
            app_factory, tmp_path, num_shards=3, seed=5, pool_size=1,
        )
        calls = {"count": 0}

        def explode():
            calls["count"] += 1
            if calls["count"] > 1:
                raise StorageError("injected mid-flush fault")

        fleet.shards[0].game._store.write_fault_hook = explode
        with pytest.raises(CheckpointWriterError):
            for _ in range(500):
                for shard in fleet.shards:
                    shard.run_tick()
        assert calls["count"] > 1, "fault hook never fired mid-flush"
        # The healthy shards keep ticking through the same pool.
        for shard in fleet.shards[1:]:
            shard.run_ticks(20)
        live = [shard.game.table.cells.copy() for shard in fleet.shards]
        fleet.crash()
        reports = ShardFleet.recover(app_factory, tmp_path, 3, seed=5)
        for recovered, expected in zip(reports, live):
            assert np.array_equal(recovered.game.table.cells, expected)
            recovered.persistence.close()


class TestStalenessAdmission:
    def _flood(self, tmp_path, cuts):
        """Park the worker, queue one job per cut, return the service order.

        Returns ``(service_order, stats)`` where ``service_order`` lists the
        submission indices in the order the worker flushed them.
        """
        service_order = []

        class RecordingSource(ArraySource):
            def __init__(self, objects, index):
                super().__init__(objects)
                self._index = index

            def read_payloads_into(self, object_ids, out):
                if self._index not in service_order:
                    service_order.append(self._index)
                super().read_payloads_into(object_ids, out)

        pool = CheckpointWriterPool(1)
        blocker = BlockingSource(make_objects())
        stores, handles = [], []
        try:
            for index in range(len(cuts) + 1):
                store = CheckpointLogStore(tmp_path / str(index), GEOMETRY)
                stores.append(store)
                handles.append(pool.register(store))
            handles[0].submit(full_job(blocker, cut_tick=0, backup_index=None,
                                       is_full_dump=True))
            assert blocker.entered.wait(timeout=10.0)
            for index, cut in enumerate(cuts, start=1):
                handles[index].submit(full_job(
                    RecordingSource(make_objects(index), index),
                    cut_tick=cut, backup_index=None, is_full_dump=True,
                ))
            blocker.release.set()
            for handle in handles:
                assert handle.wait_idle(timeout=10.0)
            return service_order, pool.stats()
        finally:
            pool.close()
            for store in stores:
                store.close()

    def test_oldest_cut_serviced_first(self, tmp_path):
        """Cuts submitted newest-first drain oldest-first."""
        order, stats = self._flood(tmp_path, cuts=[30, 20, 10])
        assert order == [3, 2, 1]
        assert stats.max_picked_staleness_ticks == 0

    def test_checkpoint_age_gauge_tracks_undurable_cut(self, tmp_path):
        with CheckpointWriterPool(1) as pool:
            store = DoubleBackupStore(tmp_path, GEOMETRY)
            handle = pool.register(store)
            assert handle.checkpoint_age == 0  # nothing submitted yet
            source = BlockingSource(make_objects())
            handle.submit(full_job(source, cut_tick=9))
            assert source.entered.wait(timeout=10.0)
            # Cut 9 handed over, nothing durable yet: 10 ticks of replay.
            assert handle.checkpoint_age == 10
            assert pool.stats().max_checkpoint_age_ticks == 10
            source.release.set()
            assert handle.wait_idle(timeout=10.0)
            assert handle.checkpoint_age == 0
            assert pool.stats().max_checkpoint_age_ticks == 0
            store.close()


class TestGatherCap:
    """A job past ``MAX_GATHER_BYTES`` lands in slabs, committing on the last."""

    CHUNK_OBJECTS = 4
    #: Two chunks' worth: the 32-object write set spans four slabs.
    CAP = 2 * CHUNK_OBJECTS * GEOMETRY.object_bytes

    @pytest.fixture(params=[DoubleBackupStore, CheckpointLogStore])
    def store_class(self, request):
        return request.param

    def test_oversize_job_matches_the_job_under_the_cap(
        self, tmp_path, monkeypatch, store_class
    ):
        objects = make_objects(4)
        results = {}
        for label, cap in (("under", None), ("over", self.CAP)):
            if cap is not None:
                monkeypatch.setattr(writer_module, "MAX_GATHER_BYTES", cap)
                assert GEOMETRY.checkpoint_bytes >= 3 * cap
            with CheckpointWriterPool(
                1, chunk_objects=self.CHUNK_OBJECTS
            ) as pool:
                store = store_class(tmp_path / label, GEOMETRY)
                handle = pool.register(store)
                handle.submit(store_job(store, ArraySource(objects), 1, 7))
                assert handle.wait_idle(timeout=10.0)
                assert handle.stats().bytes_written == (
                    GEOMETRY.checkpoint_bytes
                )
                results[label] = restore(store)
                store.close()
        assert results["over"] == results["under"]
        assert results["over"] == (objects.tobytes(), 1, 7)

    def test_fault_in_second_slab_keeps_previous_checkpoint(
        self, tmp_path, monkeypatch, store_class
    ):
        monkeypatch.setattr(writer_module, "MAX_GATHER_BYTES", self.CAP)
        first, second = make_objects(5), make_objects(6)
        with CheckpointWriterPool(1, chunk_objects=self.CHUNK_OBJECTS) as pool:
            store = store_class(tmp_path, GEOMETRY)
            handle = pool.register(store)
            handle.submit(store_job(store, ArraySource(first), 1, 7))
            assert handle.wait_idle(timeout=10.0)

            calls = {"count": 0}

            def explode():
                calls["count"] += 1
                if calls["count"] > 1:  # one write per slab; die in slab two
                    raise StorageError("injected second-slab fault")

            store.write_fault_hook = explode
            handle.submit(store_job(store, ArraySource(second), 2, 12))
            assert handle.wait_idle(timeout=10.0, check=False)
            assert calls["count"] == 2
            # Slab one reached the disk uncommitted; the handle is poisoned...
            assert handle.stats().bytes_written == (
                GEOMETRY.checkpoint_bytes + self.CAP
            )
            assert isinstance(handle.error, StorageError)
            with pytest.raises(CheckpointWriterError):
                handle.check()
            # ...and the previous committed checkpoint is what restores.
            assert restore(store) == (first.tobytes(), 1, 7)
            handle.kill()
            store.close()


class TestCoalescedCrashSemantics:
    def test_fault_mid_batch_leaves_every_handle_recoverable(self, tmp_path):
        """A crash-mid-gathered-write fault on one of three queued jobs must
        not tear any other handle's commit marker."""
        with CheckpointWriterPool(1, chunk_objects=8) as pool:
            blocker_store = CheckpointLogStore(tmp_path / "blocker", GEOMETRY)
            stores = [
                CheckpointLogStore(tmp_path / str(index), GEOMETRY)
                for index in range(3)
            ]
            blocker_handle = pool.register(blocker_store, name="blocker")
            handles = [
                pool.register(store, name=f"shard-{index}")
                for index, store in enumerate(stores)
            ]
            arrays = [make_objects(index) for index in range(3)]
            # Round 1: every shard commits epoch 1 normally.
            for index, handle in enumerate(handles):
                handle.submit(full_job(
                    ArraySource(arrays[index]), epoch=1, cut_tick=5,
                    backup_index=None, is_full_dump=True,
                ))
                assert handle.wait_idle(timeout=10.0)
            # Round 2: all three queue behind a parked worker and flush one
            # after another; the middle store dies mid-write.
            blocker = BlockingSource(make_objects(9))
            blocker_handle.submit(full_job(
                blocker, epoch=1, cut_tick=6, backup_index=None,
                is_full_dump=True,
            ))
            assert blocker.entered.wait(timeout=10.0)

            def explode():
                raise StorageError("injected mid-gathered-write fault")

            stores[1].write_fault_hook = explode
            fresh = [make_objects(10 + index) for index in range(3)]
            for index, handle in enumerate(handles):
                handle.submit(full_job(
                    ArraySource(fresh[index]), epoch=2, cut_tick=11,
                    backup_index=None, is_full_dump=True,
                ))
            blocker.release.set()
            for handle in handles:
                assert handle.wait_idle(timeout=10.0, check=False)
            # The faulted shard: poisoned handle, epoch 1 still restorable.
            assert isinstance(handles[1].error, StorageError)
            image, epoch, tick = stores[1].restore_image()
            assert (epoch, tick) == (1, 5)
            assert image == arrays[1].tobytes()
            # The jobs queued beside it committed epoch 2 intact.
            for index in (0, 2):
                handles[index].check()
                image, epoch, tick = stores[index].restore_image()
                assert (epoch, tick) == (2, 11)
                assert image == fresh[index].tobytes()
            handles[1].kill()
            blocker_store.close()
            for store in stores:
                store.close()
