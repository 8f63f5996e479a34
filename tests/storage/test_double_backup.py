"""Tests for the double-backup checkpoint store."""

import errno
import mmap
import os
import threading

import numpy as np
import pytest

import repro.storage.double_backup as double_backup_module
from repro.config import StateGeometry
from repro.errors import NoConsistentCheckpointError, StorageError
from repro.storage import layout
from repro.storage.double_backup import DoubleBackupStore
from repro.storage.layout import (
    BACKUP_HEADER_BYTES,
    STATE_COMPLETE,
    STATE_IN_PROGRESS,
)


@pytest.fixture
def geometry():
    # 64 cells of 4 B in 32 B objects -> 8 objects of 8 cells.
    return StateGeometry(rows=8, columns=8, cell_bytes=4, object_bytes=32)


@pytest.fixture
def store(tmp_path, geometry):
    with DoubleBackupStore(tmp_path, geometry) as opened:
        yield opened


def payload_for(ids, geometry, fill):
    cells = geometry.cells_per_object
    data = np.zeros((len(ids), cells), dtype=np.uint32)
    for slot, object_id in enumerate(ids):
        data[slot] = fill * 1_000 + object_id
    return data.tobytes()


def backup_rows(store, geometry, backup_index=0):
    """One backup's data region as a ``(num_objects, cells)`` array."""
    return np.frombuffer(store.read_image(backup_index), dtype=np.uint32
                         ).reshape(geometry.num_objects, -1)


class TestProtocol:
    def test_fresh_store_has_no_consistent_image(self, store):
        with pytest.raises(NoConsistentCheckpointError):
            store.latest_consistent()

    def test_commit_produces_consistent_image(self, store, geometry):
        ids = np.arange(geometry.num_objects)
        store.begin_checkpoint(0, epoch=1)
        store.write_objects(ids, payload_for(ids, geometry, 1))
        store.commit_checkpoint(tick=42)
        found = store.latest_consistent()
        assert found.backup_index == 0
        assert found.epoch == 1
        assert found.tick == 42

    def test_alternating_epochs_pick_newest(self, store, geometry):
        ids = np.arange(geometry.num_objects)
        for epoch, backup in ((1, 0), (2, 1), (3, 0)):
            store.begin_checkpoint(backup, epoch=epoch)
            store.write_objects(ids, payload_for(ids, geometry, epoch))
            store.commit_checkpoint(tick=epoch * 10)
        found = store.latest_consistent()
        assert (found.backup_index, found.epoch, found.tick) == (0, 3, 30)

    def test_in_progress_backup_ignored(self, store, geometry):
        ids = np.arange(geometry.num_objects)
        store.begin_checkpoint(0, epoch=1)
        store.write_objects(ids, payload_for(ids, geometry, 1))
        store.commit_checkpoint(tick=5)
        store.begin_checkpoint(1, epoch=2)  # never committed
        found = store.latest_consistent()
        assert found.epoch == 1

    def test_write_outside_checkpoint_rejected(self, store, geometry):
        with pytest.raises(StorageError):
            store.write_objects(np.array([0]), b"\x00" * 32)

    def test_double_begin_rejected(self, store):
        store.begin_checkpoint(0, epoch=1)
        with pytest.raises(StorageError):
            store.begin_checkpoint(1, epoch=2)

    def test_commit_without_begin_rejected(self, store):
        with pytest.raises(StorageError):
            store.commit_checkpoint(tick=0)

    def test_bad_backup_index_rejected(self, store):
        with pytest.raises(StorageError):
            store.begin_checkpoint(2, epoch=1)

    def test_wrong_payload_size_rejected(self, store):
        store.begin_checkpoint(0, epoch=1)
        with pytest.raises(StorageError):
            store.write_objects(np.array([0, 1]), b"\x00" * 32)

    def test_out_of_range_object_rejected(self, store, geometry):
        store.begin_checkpoint(0, epoch=1)
        with pytest.raises(StorageError):
            store.write_objects(
                np.array([geometry.num_objects]), b"\x00" * 32
            )

    def test_abort_releases_writer_for_same_backup(self, store, geometry):
        store.begin_checkpoint(0, epoch=1)
        store.abort_checkpoint()
        # The aborted backup is torn, so the retry must target it again --
        # switching would leave no consistent image anywhere.
        store.begin_checkpoint(0, epoch=2)
        store.commit_checkpoint(tick=1)
        assert store.latest_consistent().epoch == 2

    def test_abort_then_other_backup_rejected(self, store):
        store.begin_checkpoint(0, epoch=1)
        store.abort_checkpoint()
        with pytest.raises(StorageError):
            store.begin_checkpoint(1, epoch=2)


class TestDataIntegrity:
    def test_objects_land_at_fixed_offsets(self, store, geometry):
        ids = np.array([3, 1])
        store.begin_checkpoint(0, epoch=1)
        store.write_objects(ids, payload_for(ids, geometry, 7))
        store.commit_checkpoint(tick=0)
        rows = backup_rows(store, geometry)
        assert rows[1, 0] == 7_001
        assert rows[3, 0] == 7_003

    def test_partial_write_preserves_other_objects(self, store, geometry):
        all_ids = np.arange(geometry.num_objects)
        store.begin_checkpoint(0, epoch=1)
        store.write_objects(all_ids, payload_for(all_ids, geometry, 1))
        store.commit_checkpoint(tick=0)
        # Second checkpoint to the same backup updates only object 2.
        store.begin_checkpoint(1, epoch=2)
        store.commit_checkpoint(tick=1)
        store.begin_checkpoint(0, epoch=3)
        store.write_objects(np.array([2]), payload_for([2], geometry, 3))
        store.commit_checkpoint(tick=2)
        image = np.frombuffer(store.read_image(0), dtype=np.uint32).reshape(
            geometry.num_objects, geometry.cells_per_object
        )
        assert image[2, 0] == 3_002
        assert image[3, 0] == 1_003  # untouched object keeps epoch-1 value

    def test_read_image_size(self, store, geometry):
        assert len(store.read_image(0)) == geometry.checkpoint_bytes

    def test_duplicate_ids_last_write_wins(self, store, geometry):
        ids = np.array([2, 5, 2])  # object 2 submitted twice
        payload = payload_for([2], geometry, 1) + payload_for(
            [5], geometry, 1
        ) + payload_for([2], geometry, 9)
        store.begin_checkpoint(0, epoch=1)
        store.write_objects(ids, payload)
        store.commit_checkpoint(tick=0)
        values = backup_rows(store, geometry)[[2, 5]]
        assert values[0, 0] == 9_002  # the later payload
        assert values[1, 0] == 1_005

    def test_scattered_and_contiguous_runs(self, store, geometry):
        """Coalesced run writes land every object at its own offset."""
        ids = np.array([0, 1, 2, 5, 7])  # run of three + two singletons
        store.begin_checkpoint(0, epoch=1)
        store.write_objects(ids, payload_for(ids, geometry, 4))
        store.commit_checkpoint(tick=0)
        rows = backup_rows(store, geometry)
        for object_id in ids:
            assert rows[object_id, 0] == 4_000 + object_id
        # Untouched neighbours stay zero.
        assert not rows[[3, 4, 6]].any()


class TestReopen:
    def test_survives_reopen(self, tmp_path, geometry):
        ids = np.arange(geometry.num_objects)
        with DoubleBackupStore(tmp_path, geometry) as store:
            store.begin_checkpoint(0, epoch=1)
            store.write_objects(ids, payload_for(ids, geometry, 4))
            store.commit_checkpoint(tick=9)
        with DoubleBackupStore(tmp_path, geometry) as store:
            found = store.latest_consistent()
            assert found.epoch == 1
            image = np.frombuffer(
                store.read_image(found.backup_index), dtype=np.uint32
            )
            assert image[0] == 4_000

    def test_crash_mid_write_leaves_other_backup_consistent(
        self, tmp_path, geometry
    ):
        ids = np.arange(geometry.num_objects)
        store = DoubleBackupStore(tmp_path, geometry)
        store.begin_checkpoint(0, epoch=1)
        store.write_objects(ids, payload_for(ids, geometry, 1))
        store.commit_checkpoint(tick=0)
        # Crash while overwriting backup 1 (begin, some writes, no commit).
        store.begin_checkpoint(1, epoch=2)
        store.write_objects(np.array([0]), payload_for([0], geometry, 2))
        store.close()
        with DoubleBackupStore(tmp_path, geometry) as reopened:
            assert reopened.header(1).state == STATE_IN_PROGRESS
            found = reopened.latest_consistent()
            assert found.backup_index == 0
            assert found.epoch == 1

    def test_wrong_geometry_rejected_on_reopen(self, tmp_path, geometry):
        with DoubleBackupStore(tmp_path, geometry) as store:
            store.begin_checkpoint(0, epoch=1)
            store.commit_checkpoint(tick=0)
        other = StateGeometry(rows=16, columns=8, cell_bytes=4, object_bytes=32)
        store = DoubleBackupStore(tmp_path, other)
        with pytest.raises(StorageError):
            store.latest_consistent()
        store.close()

    def test_headers_readable(self, store, geometry):
        store.begin_checkpoint(0, epoch=5)
        store.commit_checkpoint(tick=77)
        header = store.header(0)
        assert header.state == STATE_COMPLETE
        assert header.epoch == 5
        assert header.tick == 77


class TestVectoredWrites:
    def write_set(self, geometry, fill, *id_groups):
        """The groups' ids and payloads as one staged ``(ids, rows)``."""
        ids = np.concatenate([np.array(g, dtype=np.int64) for g in id_groups])
        return ids, payload_for(ids, geometry, fill)

    def test_vectored_round_trip_matches_chunked_writes(
        self, tmp_path, geometry
    ):
        groups = ([4, 0, 6], [2, 3], [7, 1, 5])
        with DoubleBackupStore(tmp_path / "vectored", geometry) as vectored:
            vectored.begin_checkpoint(0, epoch=1)
            nbytes = vectored.write_checkpoint_vectored(
                *self.write_set(geometry, 1, *groups), cut_tick=12
            )
            assert nbytes == geometry.num_objects * geometry.object_bytes
            found = vectored.latest_consistent()
            assert (found.epoch, found.tick) == (1, 12)
            image = vectored.read_image(found.backup_index)
        with DoubleBackupStore(tmp_path / "chunked", geometry) as chunked:
            chunked.begin_checkpoint(0, epoch=1)
            for ids in groups:
                chunked.write_objects(
                    np.array(ids), payload_for(ids, geometry, 1)
                )
            chunked.commit_checkpoint(tick=12)
            expected = chunked.read_image(0)
        assert image == expected

    def test_vectored_runs_straddling_chunks_coalesce(self, store, geometry):
        """Ids contiguous across chunk boundaries land correctly."""
        store.begin_checkpoint(0, epoch=1)
        store.write_checkpoint_vectored(
            *self.write_set(geometry, 3, [0, 1, 2], [3, 4], [6, 7]),
            cut_tick=4,
        )
        image = store.read_image(0)
        payload = np.frombuffer(image, dtype=np.uint32).reshape(
            geometry.num_objects, geometry.cells_per_object
        )
        for object_id in (0, 1, 2, 3, 4, 6, 7):
            assert payload[object_id, 0] == 3_000 + object_id
        assert payload[5, 0] == 0  # untouched gap object

    def test_vectored_duplicates_across_chunks_keep_last(
        self, store, geometry
    ):
        """An id resubmitted later in unsorted input wins, like chunked
        writes: ``write_objects`` sorts stably and keeps the last."""
        groups = [(1, [0, 3, 5]), (2, [3, 1]), (9, [3])]
        ids = np.concatenate([ids for _, ids in groups])
        payload = b"".join(
            payload_for(ids, geometry, fill) for fill, ids in groups
        )
        store.begin_checkpoint(0, epoch=1)
        store.write_objects(ids, payload)
        store.commit_checkpoint(tick=6)
        image = store.read_image(0)
        payload = np.frombuffer(image, dtype=np.uint32).reshape(
            geometry.num_objects, geometry.cells_per_object
        )
        assert payload[0, 0] == 1_000
        assert payload[5, 0] == 1_005
        assert payload[1, 0] == 2_001
        assert payload[3, 0] == 9_003  # last submission wins

    def test_vectored_outside_checkpoint_rejected(self, store, geometry):
        with pytest.raises(StorageError):
            store.write_checkpoint_vectored(
                *self.write_set(geometry, 1, [0]), cut_tick=1
            )

    def test_vectored_fault_hook_fires_before_any_byte(self, store, geometry):
        """A fault in the one validation aborts with nothing written."""
        calls = {"count": 0}

        def explode():
            calls["count"] += 1
            raise StorageError("injected fault")

        store.write_fault_hook = explode
        store.begin_checkpoint(0, epoch=1)
        with pytest.raises(StorageError):
            store.write_checkpoint_vectored(
                *self.write_set(geometry, 1, [0, 1], [2, 3]), cut_tick=3
            )
        store.abort_checkpoint()
        assert calls["count"] == 1
        with pytest.raises(NoConsistentCheckpointError):
            store.latest_consistent()


def per_run_plan(ids, object_bytes, slab_rows):
    """``(offset, iovec lengths)`` of every ``pwritev`` the run writer
    makes for sorted unique ``ids``: one per run of consecutive ids, each a
    single slice of the slab, and a run split wherever a slab ends."""
    calls = []
    for base in range(0, len(ids), slab_rows):
        window = [int(i) for i in ids[base: base + slab_rows]]
        first = 0
        for stop in range(1, len(window) + 1):
            if stop == len(window) or window[stop] != window[stop - 1] + 1:
                offset = BACKUP_HEADER_BYTES + window[first] * object_bytes
                calls.append((offset, [(stop - first) * object_bytes]))
                first = stop
    return calls


class _RowSource:
    """PayloadSource of a flush job over a fixed ``(objects, bytes)`` array."""

    def __init__(self, objects):
        self.objects = objects

    def read_payloads_into(self, ids, out):
        out[:] = self.objects[ids]


class TestVectoredRunPlan:
    """The flush makes one ``pwritev`` per disk run, one slab slice each,
    and lands exactly what chunk-at-a-time ``write_objects`` and
    ``append_objects`` land -- the double backup's image and the log's
    bytes -- including a job bigger than the slab."""

    GEOMETRY = StateGeometry(rows=750, columns=32, cell_bytes=4,
                             object_bytes=32)

    def draw_write_set(self, draw, num_objects):
        """Sorted unique ids: contiguous stretches, some crossing the
        512-object chunk bounds, plus scattered singles."""
        parts = []
        for _ in range(int(draw.integers(1, 8))):
            start = int(draw.integers(0, num_objects - 1))
            length = int(draw.integers(1, 700))
            parts.append(np.arange(start, min(num_objects, start + length)))
        parts.append(draw.integers(0, num_objects, int(draw.integers(0, 300))))
        return np.unique(np.concatenate(parts)).astype(np.int64)

    def flush(self, store, ids, objects, is_double_backup):
        from repro.engine import writer

        job = writer.CheckpointJob(
            object_ids=ids, epoch=1, cut_tick=5, source=_RowSource(objects),
            backup_index=0 if is_double_backup else None,
        )
        assert writer.flush_checkpoint_job(
            store, job, writer.DEFAULT_CHUNK_OBJECTS,
            lambda: False, lambda nbytes: None,
        )

    def chunked(self, store, ids, objects, is_double_backup):
        from repro.engine.writer import DEFAULT_CHUNK_OBJECTS

        if is_double_backup:
            store.begin_checkpoint(0, epoch=1)
        else:
            store.begin_checkpoint(1, is_full_dump=False)
        land = store.write_objects if is_double_backup else store.append_objects
        for first in range(0, ids.size, DEFAULT_CHUNK_OBJECTS):
            chunk = ids[first: first + DEFAULT_CHUNK_OBJECTS]
            land(chunk, objects[chunk].tobytes())
        store.commit_checkpoint(tick=5)

    @pytest.mark.parametrize("seed", range(12))
    def test_same_pwritev_sequence_and_bytes(
        self, tmp_path, monkeypatch, seed
    ):
        from repro.engine import writer
        from repro.storage.checkpoint_log import CheckpointLogStore

        geometry = self.GEOMETRY
        object_bytes = geometry.object_bytes
        draw = np.random.default_rng(seed)
        ids = self.draw_write_set(draw, geometry.num_objects)
        objects = draw.integers(
            0, 256, (geometry.num_objects, object_bytes), dtype=np.uint8
        )
        slab_rows = ids.size
        if seed % 2:
            # A slab of two 512-object chunks: the job lands in slabs.
            slab_rows = 2 * writer.DEFAULT_CHUNK_OBJECTS
            monkeypatch.setattr(
                writer, "MAX_GATHER_BYTES", slab_rows * object_bytes
            )
        calls = []
        real = double_backup_module.pwritev_all

        def recording(fd, buffers, offset):
            calls.append((offset, [memoryview(b).nbytes for b in buffers]))
            return real(fd, buffers, offset)

        monkeypatch.setattr(double_backup_module, "pwritev_all", recording)
        files = {}
        for label, land in (("flushed", self.flush), ("chunked", self.chunked)):
            directory = tmp_path / label
            with DoubleBackupStore(directory, geometry) as backup, \
                    CheckpointLogStore(directory, geometry) as log:
                calls.clear()
                land(backup, ids, objects, True)
                if label == "flushed":
                    assert calls == per_run_plan(ids, object_bytes, slab_rows)
                land(log, ids, objects, False)
            files[label] = [
                (directory / name).read_bytes()
                for name in (*DoubleBackupStore.FILE_NAMES,
                             CheckpointLogStore.FILE_NAME)
            ]
        assert files["flushed"] == files["chunked"]
        # Unsorted input with repeats, through write_objects: one pwritev
        # per run of the sorted ids, and the last payload of an id wins.
        shuffled = draw.permutation(ids)
        repeats = shuffled[: ids.size // 4]
        mixed = np.concatenate((repeats, shuffled))
        payloads = np.concatenate((objects[repeats] ^ 0xFF, objects[shuffled]))
        calls.clear()
        with DoubleBackupStore(tmp_path / "unsorted", geometry) as backup:
            backup.begin_checkpoint(0, epoch=1)
            backup.write_objects(mixed, payloads.tobytes())
            backup.commit_checkpoint(tick=5)
        assert calls == per_run_plan(ids, object_bytes, ids.size)
        assert (tmp_path / "unsorted" / "backup0.db").read_bytes() == (
            files["chunked"][0]
        )


class TestReadImageDestination:
    def full_checkpoint(self, store, geometry):
        ids = np.arange(geometry.num_objects)
        store.begin_checkpoint(0, epoch=1)
        store.write_objects(ids, payload_for(ids, geometry, 1))
        store.commit_checkpoint(tick=4)

    def test_out_form_fills_the_callers_buffer(self, store, geometry):
        self.full_checkpoint(store, geometry)
        expected = store.read_image(0)
        out = np.full(geometry.checkpoint_bytes // 4, 7, dtype=np.uint32)
        before = store.bytes_read
        assert store.read_image(0, out=out) is out
        assert out.tobytes() == bytes(expected)
        assert store.bytes_read - before == geometry.checkpoint_bytes

    def test_destination_is_checked_before_any_read(
        self, store, geometry, monkeypatch
    ):
        self.full_checkpoint(store, geometry)

        def no_read(*args):
            raise AssertionError("read before the destination was checked")

        monkeypatch.setattr(
            "repro.storage.double_backup.pread_into", no_read
        )
        size = geometry.checkpoint_bytes
        for bad in (bytearray(size - 1), bytearray(size + 1), bytes(size)):
            with pytest.raises(StorageError):
                store.read_image(0, out=bad)


class TestTwoReaders:
    """``read_image`` splits the data region at a page boundary of the file
    over two readers; the split size is forced to 0 so a small store
    takes that path."""

    @pytest.fixture
    def wide(self, tmp_path, monkeypatch):
        """A store of 24 KiB data regions with a full checkpoint in backup 0,
        and every read of it split."""
        geometry = StateGeometry(rows=48, columns=128, cell_bytes=4,
                                 object_bytes=64)
        with DoubleBackupStore(tmp_path, geometry) as opened:
            ids = np.arange(geometry.num_objects)
            opened.begin_checkpoint(0, epoch=1)
            opened.write_objects(ids, payload_for(ids, geometry, 3))
            opened.commit_checkpoint(tick=9)
            monkeypatch.setattr(layout, "SPLIT_READ_BYTES", 0)
            yield opened

    def counted_reads(self, monkeypatch):
        """``(thread name, offset, bytes)`` of every read of the store."""
        reads = []
        real = double_backup_module.pread_into

        def counting(fd, buffer, offset):
            read = real(fd, buffer, offset)
            reads.append((threading.current_thread().name, offset, read))
            return read

        monkeypatch.setattr(double_backup_module, "pread_into", counting)
        return reads

    def test_split_read_equals_one_read(self, wide, monkeypatch):
        with open(os.path.join(wide.directory, "backup0.db"), "rb") as handle:
            handle.seek(BACKUP_HEADER_BYTES)
            expected = handle.read()
        reads = self.counted_reads(monkeypatch)
        before = wide.bytes_read
        image = wide.read_image(0)
        assert bytes(image) == expected
        assert wide.bytes_read - before == sum(read for _, _, read in reads)
        assert wide.bytes_read - before == len(expected)
        (caller, _, head), (helper, middle, tail) = sorted(
            reads, key=lambda read: read[1]
        )
        assert (caller, helper) == ("MainThread", "repro-restore-reader")
        assert middle % mmap.PAGESIZE == 0 and head > 0 and tail > 0

    def test_helper_oserror_reaches_the_caller(self, wide, monkeypatch):
        error = OSError(errno.EIO, "injected")
        real = double_backup_module.pread_into

        def failing(fd, buffer, offset):
            if threading.current_thread().name == "repro-restore-reader":
                raise error
            return real(fd, buffer, offset)

        monkeypatch.setattr(double_backup_module, "pread_into", failing)
        before = threading.enumerate()
        with pytest.raises(OSError) as raised:
            wide.read_image(0)
        assert raised.value is error
        assert threading.enumerate() == before

    def test_no_thread_outlives_the_restore(self, wide):
        before = threading.enumerate()
        wide.read_image(0)
        assert threading.enumerate() == before

    def test_truncation_is_still_found(self, wide):
        path = os.path.join(wide.directory, "backup0.db")
        size = os.path.getsize(path)
        os.truncate(path, size - 100)
        read = size - 100 - BACKUP_HEADER_BYTES
        with pytest.raises(StorageError, match=f"[(]{read} of"):
            wide.read_image(0)
