"""Tests for the append-only checkpoint log."""

import errno
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.config import StateGeometry
from repro.errors import NoConsistentCheckpointError, StorageError
from repro.storage.checkpoint_log import CheckpointLogStore
from repro.storage.layout import (
    GEOMETRY_BYTES,
    RECORD_CHECKPOINT_BEGIN,
    RECORD_HEADER_BYTES,
)


@pytest.fixture
def geometry():
    return StateGeometry(rows=8, columns=8, cell_bytes=4, object_bytes=32)


@pytest.fixture
def store(tmp_path, geometry):
    with CheckpointLogStore(tmp_path, geometry) as opened:
        yield opened


def payload_for(ids, geometry, fill):
    cells = geometry.cells_per_object
    data = np.zeros((len(ids), cells), dtype=np.uint32)
    for slot, object_id in enumerate(ids):
        data[slot] = fill * 1_000 + object_id
    return data.tobytes()


def image_value(image, geometry, object_id):
    cells = np.frombuffer(image, dtype=np.uint32)
    return cells[object_id * geometry.cells_per_object]


class TestProtocol:
    def test_fresh_log_has_no_checkpoint(self, store):
        with pytest.raises(NoConsistentCheckpointError):
            store.latest_committed()

    def test_commit_and_restore_full_dump(self, store, geometry):
        ids = np.arange(geometry.num_objects)
        store.begin_checkpoint(1, is_full_dump=True)
        store.append_objects(ids, payload_for(ids, geometry, 1))
        store.commit_checkpoint(tick=12)
        image, epoch, tick = store.restore_image()
        assert (epoch, tick) == (1, 12)
        assert image_value(image, geometry, 5) == 1_005

    def test_partials_overlay_full_dump(self, store, geometry):
        ids = np.arange(geometry.num_objects)
        store.begin_checkpoint(1, is_full_dump=True)
        store.append_objects(ids, payload_for(ids, geometry, 1))
        store.commit_checkpoint(tick=0)
        store.begin_checkpoint(2, is_full_dump=False)
        store.append_objects(np.array([3]), payload_for([3], geometry, 2))
        store.commit_checkpoint(tick=5)
        image, epoch, tick = store.restore_image()
        assert (epoch, tick) == (2, 5)
        assert image_value(image, geometry, 3) == 2_003
        assert image_value(image, geometry, 4) == 1_004

    def test_uncommitted_tail_ignored(self, store, geometry):
        ids = np.arange(geometry.num_objects)
        store.begin_checkpoint(1, is_full_dump=True)
        store.append_objects(ids, payload_for(ids, geometry, 1))
        store.commit_checkpoint(tick=0)
        store.begin_checkpoint(2, is_full_dump=False)
        store.append_objects(np.array([3]), payload_for([3], geometry, 9))
        # no commit -- crash
        image, epoch, _ = store.restore_image()
        assert epoch == 1
        assert image_value(image, geometry, 3) == 1_003

    def test_multiple_runs_per_checkpoint(self, store, geometry):
        store.begin_checkpoint(1, is_full_dump=True)
        store.append_objects(np.array([0, 1]), payload_for([0, 1], geometry, 1))
        store.append_objects(np.array([2, 3]), payload_for([2, 3], geometry, 1))
        store.commit_checkpoint(tick=0)
        image, _, _ = store.restore_image()
        assert image_value(image, geometry, 2) == 1_002

    def test_lifecycle_errors(self, store):
        with pytest.raises(StorageError):
            store.append_objects(np.array([0]), b"\x00" * 32)
        with pytest.raises(StorageError):
            store.commit_checkpoint(tick=0)
        store.begin_checkpoint(1, is_full_dump=False)
        with pytest.raises(StorageError):
            store.begin_checkpoint(2, is_full_dump=False)
        store.abort_checkpoint()
        with pytest.raises(StorageError):
            store.abort_checkpoint()

    def test_epoch_must_be_positive(self, store):
        with pytest.raises(StorageError):
            store.begin_checkpoint(0, is_full_dump=False)

    def test_payload_size_checked(self, store):
        store.begin_checkpoint(1, is_full_dump=False)
        with pytest.raises(StorageError):
            store.append_objects(np.array([0, 1]), b"\x00" * 32)

    def test_object_range_checked(self, store, geometry):
        store.begin_checkpoint(1, is_full_dump=False)
        with pytest.raises(StorageError):
            store.append_objects(
                np.array([geometry.num_objects]), b"\x00" * 32
            )


class TestScanCosts:
    def test_restore_scan_bounded_by_full_dump(self, store, geometry):
        ids = np.arange(geometry.num_objects)
        store.begin_checkpoint(1, is_full_dump=True)
        store.append_objects(ids, payload_for(ids, geometry, 1))
        store.commit_checkpoint(tick=0)
        size_after_dump = store.size_bytes()
        scan_all = store.restore_scan_bytes()
        store.begin_checkpoint(2, is_full_dump=False)
        store.append_objects(np.array([0]), payload_for([0], geometry, 2))
        store.commit_checkpoint(tick=1)
        # The scan reaches back exactly to the full dump's begin record.
        scan_with_partial = store.restore_scan_bytes()
        assert scan_with_partial > scan_all
        assert scan_with_partial <= store.size_bytes()
        assert size_after_dump < store.size_bytes()

    def test_scan_without_full_dump_reads_everything(self, store, geometry):
        store.begin_checkpoint(1, is_full_dump=False)
        store.append_objects(np.array([0]), payload_for([0], geometry, 1))
        store.commit_checkpoint(tick=0)
        assert store.restore_scan_bytes() == store.size_bytes()


class TestReopen:
    def test_reopen_and_continue(self, tmp_path, geometry):
        ids = np.arange(geometry.num_objects)
        with CheckpointLogStore(tmp_path, geometry) as store:
            store.begin_checkpoint(1, is_full_dump=True)
            store.append_objects(ids, payload_for(ids, geometry, 1))
            store.commit_checkpoint(tick=3)
        with CheckpointLogStore(tmp_path, geometry) as store:
            assert store.latest_committed() == (1, 3)
            store.begin_checkpoint(2, is_full_dump=False)
            store.append_objects(np.array([1]), payload_for([1], geometry, 2))
            store.commit_checkpoint(tick=4)
            image, epoch, _ = store.restore_image()
            assert epoch == 2
            assert image_value(image, geometry, 1) == 2_001

    def test_torn_tail_truncated(self, tmp_path, geometry):
        with CheckpointLogStore(tmp_path, geometry) as store:
            store.begin_checkpoint(1, is_full_dump=True)
            ids = np.arange(geometry.num_objects)
            store.append_objects(ids, payload_for(ids, geometry, 1))
            store.commit_checkpoint(tick=0)
            path = store.path
        # Chop bytes off the end, as a mid-write power loss would.
        with open(path, "r+b") as handle:
            handle.seek(-10, 2)
            handle.truncate()
        with CheckpointLogStore(tmp_path, geometry) as store:
            # The commit record was damaged, so no checkpoint is recoverable.
            with pytest.raises(NoConsistentCheckpointError):
                store.restore_image()

    def test_wrong_geometry_rejected(self, tmp_path, geometry):
        with CheckpointLogStore(tmp_path, geometry):
            pass
        other = StateGeometry(rows=16, columns=8, cell_bytes=4, object_bytes=32)
        with pytest.raises(StorageError):
            CheckpointLogStore(tmp_path, other)


class TestCompaction:
    """A full dump compacts the log: it is written into a new file that
    replaces the log on commit, so nothing older survives it."""

    def _fill(self, store, geometry, epochs_with_dump):
        ids = np.arange(geometry.num_objects)
        for epoch, full in epochs_with_dump:
            store.begin_checkpoint(epoch, is_full_dump=full)
            if full:
                store.append_objects(ids, payload_for(ids, geometry, epoch))
            else:
                store.append_objects(
                    np.array([epoch % geometry.num_objects]),
                    payload_for([epoch % geometry.num_objects], geometry,
                                epoch),
                )
            store.commit_checkpoint(tick=epoch)

    def epochs_in_log(self, store):
        return [r.a for r in store._log.walk()
                if r.type == RECORD_CHECKPOINT_BEGIN and r.a]

    def test_compaction_reclaims_and_preserves_restore(self, store, geometry):
        self._fill(store, geometry, [(1, True), (2, False)])
        size_of_first_cycle = store.size_bytes()
        self._fill(store, geometry, [(3, True), (4, False)])
        assert self.epochs_in_log(store) == [3, 4]
        assert store.size_bytes() == size_of_first_cycle
        image, epoch, tick = store.restore_image()
        assert (epoch, tick) == (4, 4)
        assert image_value(image, geometry, 4) == 4_004
        assert image_value(image, geometry, 2) == 3_002

    def test_compaction_without_full_dump_is_noop(self, store, geometry):
        self._fill(store, geometry, [(1, False), (2, False)])
        assert self.epochs_in_log(store) == [1, 2]
        assert not os.path.exists(store.path + ".next")

    def test_compaction_at_start_is_noop(self, store, geometry):
        self._fill(store, geometry, [(1, True)])
        size = store.size_bytes()
        # Replacing a log that holds one full dump with the next one
        # leaves a log of the same size.
        self._fill(store, geometry, [(2, True)])
        assert store.size_bytes() == size
        assert self.epochs_in_log(store) == [2]
        assert store.restore_image()[1:] == (2, 2)

    def test_compaction_then_append(self, store, geometry):
        self._fill(store, geometry, [(1, True), (2, False), (3, True)])
        self._fill(store, geometry, [(4, False)])
        image, epoch, _ = store.restore_image()
        assert epoch == 4
        assert self.epochs_in_log(store) == [3, 4]

    def test_compaction_mid_checkpoint_rejected(self, store, geometry):
        """An uncommitted full dump replaces nothing: the log and every
        read of it stay as they were until the commit."""
        self._fill(store, geometry, [(1, True), (2, False)])
        committed = Path(store.path).read_bytes()
        store.begin_checkpoint(3, is_full_dump=True)
        store.append_objects(np.array([0]), payload_for([0], geometry, 3))
        assert Path(store.path).read_bytes() == committed
        assert store.latest_committed() == (2, 2)
        assert store.restore_image()[1:] == (2, 2)
        store.abort_checkpoint()
        assert not os.path.exists(store.path + ".next")
        assert Path(store.path).read_bytes() == committed

    def test_compaction_survives_reopen(self, tmp_path, geometry):
        with CheckpointLogStore(tmp_path, geometry) as store:
            self._fill(store, geometry, [(1, True), (2, False), (3, True)])
            expected = store.restore_image()
        with CheckpointLogStore(tmp_path, geometry) as store:
            assert store.restore_image() == expected
            assert self.epochs_in_log(store) == [3]


class TestVectoredWrites:
    def chunks_for(self, geometry, fill, *id_groups):
        return [
            (np.array(ids, dtype=np.int64), payload_for(ids, geometry, fill))
            for ids in id_groups
        ]

    def write_set(self, geometry, fill, *id_groups):
        """The chunks' ids and payloads as one staged ``(ids, rows)``."""
        ids = np.concatenate([np.array(g, dtype=np.int64) for g in id_groups])
        return ids, payload_for(ids, geometry, fill)

    def test_vectored_round_trip_matches_chunked_appends(
        self, tmp_path, geometry
    ):
        chunks = self.chunks_for(
            geometry, 1, [0, 1, 2], [3, 4, 5], [6, 7]
        )
        with CheckpointLogStore(tmp_path / "vectored", geometry) as vectored:
            vectored.begin_checkpoint(1, is_full_dump=True)
            nbytes = vectored.write_checkpoint_vectored(
                *self.write_set(geometry, 1, [0, 1, 2], [3, 4, 5], [6, 7]),
                cut_tick=12,
            )
            assert nbytes == geometry.num_objects * geometry.object_bytes
            image, epoch, tick = vectored.restore_image()
        with CheckpointLogStore(tmp_path / "chunked", geometry) as chunked:
            chunked.begin_checkpoint(1, is_full_dump=True)
            for ids, payload in chunks:
                chunked.append_objects(ids, payload)
            chunked.commit_checkpoint(tick=12)
            expected_image, expected_epoch, expected_tick = (
                chunked.restore_image()
            )
        assert (epoch, tick) == (expected_epoch, expected_tick) == (1, 12)
        assert image == expected_image

    def test_vectored_partial_overlays_full_dump(self, store, geometry):
        ids = np.arange(geometry.num_objects)
        store.begin_checkpoint(1, is_full_dump=True)
        store.write_checkpoint_vectored(
            ids, payload_for(ids, geometry, 1), cut_tick=0
        )
        store.begin_checkpoint(2, is_full_dump=False)
        store.write_checkpoint_vectored(
            *self.write_set(geometry, 2, [3], [5]), cut_tick=9
        )
        image, epoch, tick = store.restore_image()
        assert (epoch, tick) == (2, 9)
        assert image_value(image, geometry, 3) == 2_003
        assert image_value(image, geometry, 5) == 2_005
        assert image_value(image, geometry, 4) == 1_004

    def test_vectored_empty_slab_commits(self, store, geometry):
        """A partial checkpoint with nothing dirty lands an empty slab."""
        ids = np.arange(geometry.num_objects)
        store.begin_checkpoint(1, is_full_dump=True)
        store.write_checkpoint_vectored(
            ids, payload_for(ids, geometry, 1), cut_tick=0
        )
        store.begin_checkpoint(2, is_full_dump=False)
        empty = np.empty((0, geometry.object_bytes), dtype=np.uint8)
        assert store.write_checkpoint_vectored(
            ids[:0], empty, cut_tick=4
        ) == 0
        image, epoch, tick = store.restore_image()
        assert (epoch, tick) == (2, 4)
        assert image_value(image, geometry, 3) == 1_003

    def test_vectored_outside_checkpoint_rejected(self, store, geometry):
        with pytest.raises(StorageError):
            store.write_checkpoint_vectored(
                *self.write_set(geometry, 1, [0]), cut_tick=1
            )

    def test_vectored_validates_every_chunk_before_writing(
        self, store, geometry
    ):
        """Rows short of the ids abort with zero bytes landed."""
        store.begin_checkpoint(1, is_full_dump=True)
        ids, rows = self.write_set(geometry, 1, [0, 1, 2])
        with pytest.raises(StorageError):
            store.write_checkpoint_vectored(ids, rows[:-1], cut_tick=3)
        store.abort_checkpoint()
        with pytest.raises(NoConsistentCheckpointError):
            store.restore_image()

    @pytest.mark.parametrize("policy,expected_fsyncs", [
        ("never", 0), ("commit", 1), ("always", 1),
    ])
    def test_vectored_commit_fsync_policy(
        self, tmp_path, geometry, monkeypatch, policy, expected_fsyncs
    ):
        """The gathered commit-marker write of a partial checkpoint honors
        the fsync policy (a full dump's rename adds one directory fsync:
        ``TestRotation``)."""
        with CheckpointLogStore(
            tmp_path, geometry, fsync_policy=policy
        ) as store:
            counts = counted_fsyncs(monkeypatch)
            ids = np.arange(geometry.num_objects)
            store.begin_checkpoint(1, is_full_dump=False)
            counts["fsyncs"] = 0
            store.write_checkpoint_vectored(
                ids, payload_for(ids, geometry, 1), cut_tick=3
            )
            assert counts["fsyncs"] == expected_fsyncs

    @pytest.mark.parametrize("policy,expected_fsyncs", [
        ("never", 0), ("commit", 1),
    ])
    def test_chunked_commit_fsync_policy(
        self, tmp_path, geometry, monkeypatch, policy, expected_fsyncs
    ):
        """Chunked appends fsync only at the commit record under commit."""
        with CheckpointLogStore(
            tmp_path, geometry, fsync_policy=policy
        ) as store:
            counts = counted_fsyncs(monkeypatch)
            ids = np.arange(geometry.num_objects)
            store.begin_checkpoint(1, is_full_dump=False)
            counts["fsyncs"] = 0
            store.append_objects(ids[:4], payload_for(ids[:4], geometry, 1))
            store.append_objects(ids[4:], payload_for(ids[4:], geometry, 1))
            assert counts["fsyncs"] == 0
            store.commit_checkpoint(tick=3)
            assert counts["fsyncs"] == expected_fsyncs

    def test_torn_gathered_write_never_commits(self, tmp_path, geometry):
        """Any prefix of the gathered writev restores the prior checkpoint.

        The commit marker is the last iovec entry, so a crash that lands
        only part of the gathered write can lose checkpoint 2 but can never
        produce a committed-but-torn image.  (A full dump is written into
        a file of its own; ``TestRotation`` tears that one.)
        """
        ids = np.arange(geometry.num_objects)
        with CheckpointLogStore(tmp_path, geometry) as store:
            store.begin_checkpoint(1, is_full_dump=True)
            store.write_checkpoint_vectored(
                ids, payload_for(ids, geometry, 1), cut_tick=5
            )
            path = store._path
            committed_size = os.path.getsize(path)
            store.begin_checkpoint(2, is_full_dump=False)
            begin_size = os.path.getsize(path)
            store.write_checkpoint_vectored(
                *self.write_set(geometry, 2, [0, 1, 2, 3], [4, 5, 6, 7]),
                cut_tick=9,
            )
            full_size = os.path.getsize(path)
        assert committed_size < begin_size < full_size
        for torn_size in (
            begin_size, (begin_size + full_size) // 2, full_size - 1
        ):
            torn_path = tmp_path / f"torn-{torn_size}"
            torn_path.mkdir()
            target = torn_path / CheckpointLogStore.FILE_NAME
            with open(path, "rb") as source:
                target.write_bytes(source.read(torn_size))
            with CheckpointLogStore(torn_path, geometry) as reopened:
                image, epoch, tick = reopened.restore_image()
            assert (epoch, tick) == (1, 5)
            assert image_value(image, geometry, 7) == 1_007


class _ImageSource:
    """PayloadSource of a flush job: object ``i`` holds ``fill * 1000 + i``."""

    def __init__(self, geometry, fill):
        self.geometry, self.fill = geometry, fill

    def read_payloads_into(self, ids, out):
        out[:] = np.frombuffer(
            payload_for(ids, self.geometry, self.fill), dtype=np.uint8
        ).reshape(out.shape)


class TestRotation:
    """A full dump goes into ``checkpoints.log.next``, which replaces the
    log once its commit is durable -- on both flush paths of the writer:
    the gathered write, and over-cap slabs (``MAX_GATHER_BYTES``)."""

    FLUSH_PATHS = ["gathered", "slabs"]

    def two_checkpoints(self, store, geometry):
        ids = np.arange(geometry.num_objects)
        store.begin_checkpoint(1, is_full_dump=True)
        store.append_objects(ids, payload_for(ids, geometry, 1))
        store.commit_checkpoint(tick=10)
        store.begin_checkpoint(2, is_full_dump=False)
        store.append_objects(np.array([3]), payload_for([3], geometry, 2))
        store.commit_checkpoint(tick=20)

    def flush_full_dump(self, store, geometry, monkeypatch, path, abandon=None):
        from repro.engine import writer

        monkeypatch.setattr(writer, "CHUNK_OBJECTS", 2)
        if path == "slabs":
            # Two objects a slab: all but the last slab land uncommitted
            # before the gathered commit write.
            monkeypatch.setattr(
                writer, "MAX_GATHER_BYTES", 2 * geometry.object_bytes
            )
        job = writer.CheckpointJob(
            object_ids=np.arange(geometry.num_objects, dtype=np.int64),
            epoch=3, cut_tick=30, source=_ImageSource(geometry, 3),
            is_full_dump=True,
        )
        return writer.flush_checkpoint_job(
            store, job, abandon or (lambda: False), lambda nbytes: None
        )

    def fault_on_call(self, store, call):
        calls = {"n": 0}

        def hook():
            calls["n"] += 1
            if calls["n"] == call:
                raise StorageError("injected fault")
        store.write_fault_hook = hook

    def test_full_dump_into_an_empty_log_is_written_in_place(
        self, store, geometry
    ):
        """Nothing to replace: no second file, no rename."""
        store.begin_checkpoint(1, is_full_dump=True)
        assert not os.path.exists(store.path + ".next")
        store.abort_checkpoint()
        # The aborted dump's records stay in the log, so the next one starts
        # a new file.
        store.begin_checkpoint(2, is_full_dump=True)
        assert os.path.exists(store.path + ".next")

    def test_failed_begin_of_a_full_dump_is_aborted_like_any_write(
        self, store, geometry, monkeypatch
    ):
        """A write error while the new file gets its first records leaves
        the dump in progress, so the abort removes the file and the next
        checkpoint goes to the log, not to a half-written ``.next``."""
        self.two_checkpoints(store, geometry)

        def no_space(fd, parts):
            raise OSError("no space left on device")

        monkeypatch.setattr("repro.storage.layout.write_all", no_space)
        with pytest.raises(OSError, match="no space"):
            store.begin_checkpoint(3, is_full_dump=True)
        monkeypatch.undo()
        store.abort_checkpoint()
        assert not os.path.exists(store.path + ".next")
        store.begin_checkpoint(3, is_full_dump=False)
        store.append_objects(np.array([5]), payload_for([5], geometry, 3))
        store.commit_checkpoint(tick=30)
        image, epoch, tick = store.restore_image()
        assert (epoch, tick) == (3, 30)
        assert image_value(image, geometry, 5) == 3_005

    # A gathered full dump is one write batch; over-cap slabs are four, so
    # only they have a third write to fault.
    @pytest.mark.parametrize("path,call", [
        pytest.param("gathered", 1, id="1-gathered"),
        pytest.param("slabs", 1, id="1-slabs"),
        pytest.param("slabs", 3, id="3-slabs"),
    ])
    def test_fault_while_writing_keeps_the_previous_checkpoint(
        self, tmp_path, geometry, monkeypatch, path, call
    ):
        with CheckpointLogStore(tmp_path, geometry) as store:
            self.two_checkpoints(store, geometry)
            committed = Path(store.path).read_bytes()
            expected = store.restore_image()
            self.fault_on_call(store, call)
            with pytest.raises(StorageError, match="injected"):
                self.flush_full_dump(store, geometry, monkeypatch, path)
            assert os.path.exists(store.path + ".next")
            assert Path(store.path).read_bytes() == committed
            assert store.restore_image() == expected
        with CheckpointLogStore(tmp_path, geometry) as store:
            assert not os.path.exists(store.path + ".next")
            assert store.restore_image() == expected
            assert expected[1:] == (2, 20)

    @pytest.mark.parametrize("path", FLUSH_PATHS)
    def test_abandoned_full_dump_removes_its_file(
        self, tmp_path, geometry, monkeypatch, path
    ):
        polls = {"n": 0}

        def abandon_at_third_poll():
            polls["n"] += 1
            return polls["n"] >= 3

        with CheckpointLogStore(tmp_path, geometry) as store:
            self.two_checkpoints(store, geometry)
            assert not self.flush_full_dump(
                store, geometry, monkeypatch, path, abandon_at_third_poll
            )
            assert not os.path.exists(store.path + ".next")
            assert store.restore_image()[1:] == (2, 20)

    @pytest.mark.parametrize("path", FLUSH_PATHS)
    def test_fault_after_the_rename_restores_the_new_full_dump(
        self, tmp_path, geometry, monkeypatch, path
    ):
        real_replace = os.replace

        def replace_then_fail(source, target):
            real_replace(source, target)
            raise OSError("crash after the rename")

        with CheckpointLogStore(
            tmp_path, geometry, fsync_policy="commit"
        ) as store:
            self.two_checkpoints(store, geometry)
            monkeypatch.setattr(
                "repro.storage.checkpoint_log.os.replace", replace_then_fail
            )
            with pytest.raises(OSError, match="after the rename"):
                self.flush_full_dump(store, geometry, monkeypatch, path)
        with CheckpointLogStore(tmp_path, geometry) as store:
            image, epoch, tick = store.restore_image()
            assert (epoch, tick) == (3, 30)
            for object_id in range(geometry.num_objects):
                assert image_value(image, geometry, object_id) == (
                    3_000 + object_id
                )
            assert [r.a for r in store._log.walk()
                    if r.type == RECORD_CHECKPOINT_BEGIN] == [0, 3]

    @pytest.mark.parametrize("path,policy,expected_fsyncs", [
        ("gathered", "never", 0), ("gathered", "commit", 2),
        ("gathered", "always", 2), ("slabs", "never", 0),
        ("slabs", "commit", 2),
    ])
    def test_commit_fsyncs_the_data_then_the_directory(
        self, tmp_path, geometry, monkeypatch, path, policy, expected_fsyncs
    ):
        """One data fsync, then one of the directory for the rename."""
        with CheckpointLogStore(
            tmp_path, geometry, fsync_policy=policy
        ) as store:
            self.two_checkpoints(store, geometry)
            fsynced = []
            real_fsync = os.fsync

            def recording_fsync(fd):
                fsynced.append(os.path.isdir(f"/proc/self/fd/{fd}"))
                real_fsync(fd)

            original_begin = store.begin_checkpoint

            def begin_then_record(epoch, is_full_dump):
                original_begin(epoch, is_full_dump)
                monkeypatch.setattr(
                    "repro.storage.checkpoint_log.os.fsync", recording_fsync
                )
            store.begin_checkpoint = begin_then_record
            assert self.flush_full_dump(store, geometry, monkeypatch, path)
            assert len(fsynced) == expected_fsyncs
            if expected_fsyncs:
                assert fsynced == [False, True]
            assert store.restore_image()[1:] == (3, 30)


def counted_fsyncs(monkeypatch):
    """Count the log store's fsyncs (of files and of the directory)."""
    counts = {"fsyncs": 0}
    real_fsync = os.fsync

    def counting_fsync(fd):
        counts["fsyncs"] += 1
        real_fsync(fd)

    monkeypatch.setattr("repro.storage.checkpoint_log.os.fsync", counting_fsync)
    return counts


def counted_reads(monkeypatch):
    """Route the log store's only read syscall through a byte counter."""
    from repro.storage import layout

    counts = {"bytes": 0, "calls": 0}

    def counting_pread_into(fd, buffer, offset):
        read = real(fd, buffer, offset)
        counts["bytes"] += read
        counts["calls"] += 1
        return read

    real = layout.pread_into
    monkeypatch.setattr(layout, "pread_into", counting_pread_into)
    return counts


class TestBackwardsRestore:
    """``restore_image`` reads oldest first from the newest full dump,
    verifies what it trusts, and never touches history that dump
    superseded."""

    def checkpoint(self, store, geometry, epoch, ids, full=False):
        ids = np.asarray(ids, dtype=np.int64)
        store.begin_checkpoint(epoch, is_full_dump=full)
        # Two records per checkpoint so a scan has somewhere to stop early.
        half = ids.size // 2
        for part in (ids[:half], ids[half:]):
            store.append_objects(part, payload_for(part, geometry, epoch))
        store.commit_checkpoint(tick=epoch * 10)

    def three_cycles(self, store, geometry):
        """Three full-dump cycles: epochs 1, 5, 9 are full dumps."""
        for epoch in range(1, 12):
            self.three_cycles_checkpoint(store, geometry, epoch)

    def three_cycles_checkpoint(self, store, geometry, epoch):
        if epoch % 4 == 1:
            everything = np.arange(geometry.num_objects)
            self.checkpoint(store, geometry, epoch, everything, full=True)
        else:
            self.checkpoint(store, geometry, epoch,
                            [epoch % 8, (epoch + 3) % 8])

    def record_offsets(self, store):
        """(offset, end) of every framed record, from the store's own walk."""
        return [(r.offset, r.end) for r in store._log.walk()]

    def legacy_log(self, tmp_path, geometry):
        """The three cycles in one file, as a store that appended its full
        dumps to the log left it: each cycle is written by a store of its
        own and the files are joined behind one geometry record."""
        parts = []
        for cycle in range(3):
            directory = tmp_path / f"cycle-{cycle}"
            with CheckpointLogStore(directory, geometry) as store:
                for epoch in range(4 * cycle + 1, min(4 * cycle + 5, 12)):
                    self.three_cycles_checkpoint(store, geometry, epoch)
                records = self.record_offsets(store)
                data = Path(store.path).read_bytes()
            parts.append(data if cycle == 0 else data[records[1][0]:])
        joined = tmp_path / "legacy"
        joined.mkdir()
        (joined / CheckpointLogStore.FILE_NAME).write_bytes(b"".join(parts))
        return joined

    def test_restore_reads_only_the_last_cycle(
        self, store, geometry, monkeypatch
    ):
        self.three_cycles(store, geometry)
        records = self.record_offsets(store)
        headers = 29 * len(records)
        scan = store.restore_scan_bytes()
        # Each full dump started a new log: only the last cycle is left,
        # and the scan covers all of it but the geometry record.
        assert scan == store.size_bytes() - records[1][0]
        assert len(records) == 1 + 3 * 4
        counts = counted_reads(monkeypatch)
        before = store.bytes_read
        image, epoch, tick = store.restore_image()
        assert (epoch, tick) == (11, 110)
        assert image_value(image, geometry, 3) == 11_003
        assert image_value(image, geometry, 6) == 11_006
        assert image_value(image, geometry, 1) == 9_001
        assert image_value(image, geometry, 7) == 9_007
        assert 0 < counts["bytes"] <= scan + headers
        assert store.bytes_read - before == counts["bytes"]

    @pytest.mark.parametrize(
        "log", ["three_cycles", "no_full_dump", "aborted_inside"]
    )
    def test_restore_reads_exactly_the_trusted_range(
        self, tmp_path, geometry, log
    ):
        """A restore reads every record from the base full dump's BEGIN (the
        geometry record without one) through the target's COMMIT once, and
        nothing else: the paper's ``(k*C + n)``, as restore_scan_bytes
        reports it, on top of the open's geometry check and the walk."""
        everything = np.arange(geometry.num_objects)
        with CheckpointLogStore(tmp_path, geometry) as store:
            if log == "three_cycles":
                self.three_cycles(store, geometry)
            elif log == "no_full_dump":
                for epoch in (1, 2, 3):
                    self.checkpoint(store, geometry, epoch, [epoch, 7])
            else:
                self.checkpoint(store, geometry, 1, everything, full=True)
                self.checkpoint(store, geometry, 2, [3, 4])
                store.begin_checkpoint(3, is_full_dump=False)
                store.append_objects(
                    np.array([5]), payload_for([5], geometry, 3)
                )
                store.abort_checkpoint()
                self.checkpoint(store, geometry, 4, [4, 6])
        with CheckpointLogStore(tmp_path, geometry) as store:
            _image, epoch, _tick = store.restore_image()
            restored = store.bytes_read
            walked = len(self.record_offsets(store))
            scan = store.restore_scan_bytes()
        assert epoch == {
            "three_cycles": 11, "no_full_dump": 3, "aborted_inside": 4
        }[log]
        assert restored == (
            RECORD_HEADER_BYTES + GEOMETRY_BYTES
            + RECORD_HEADER_BYTES * walked + scan
        )

    def test_hostile_length_allocates_nothing(self, tmp_path, geometry):
        """A header claiming 4 GiB is a torn tail, found without a read of
        that size ever being set up."""
        import tracemalloc
        from repro.storage.layout import pack_record

        everything = np.arange(geometry.num_objects)
        with CheckpointLogStore(tmp_path, geometry) as store:
            self.checkpoint(store, geometry, 1, everything, full=True)
            path = store.path
        hostile = bytearray(pack_record(2, 2, 1, b""))
        hostile[21:25] = (0xFFFFFFFF).to_bytes(4, "little")
        with open(path, "ab") as handle:
            handle.write(hostile)
        with CheckpointLogStore(tmp_path, geometry) as store:
            tracemalloc.start()
            try:
                image, epoch, tick = store.restore_image()
                assert store.latest_committed() == (1, 10)
                assert store.restore_scan_bytes() > 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert (epoch, tick) == (1, 10)
        assert image_value(image, geometry, 5) == 1_005
        assert peak < 1 << 20

    def flip(self, path, offset):
        with open(path, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)[0]
            handle.seek(offset)
            handle.write(bytes([byte ^ 0x5A]))

    def test_corruption_older_than_the_stop_point_is_not_read(
        self, tmp_path, geometry
    ):
        with CheckpointLogStore(tmp_path / "rotated", geometry) as store:
            self.three_cycles(store, geometry)
            expected = store.restore_image()
        legacy = self.legacy_log(tmp_path, geometry)
        with CheckpointLogStore(legacy, geometry) as store:
            assert store.restore_image() == expected
            records = self.record_offsets(store)
            path = store.path
        # A payload byte of the very first full dump (record 2: geometry,
        # BEGIN, then OBJECTS), two full dumps before the stop point.
        self.flip(path, records[2][0] + 40)
        with CheckpointLogStore(legacy, geometry) as store:
            assert store.restore_image() == expected
            assert store.latest_committed() == (11, 110)
            # The next full dump leaves the damaged prefix behind without
            # ever trusting it.
            self.checkpoint(store, geometry, 12,
                            np.arange(geometry.num_objects), full=True)
            assert len(self.record_offsets(store)) == 1 + 4
            assert store.restore_image()[1:] == (12, 120)

    @pytest.mark.parametrize("victim", ["objects", "begin", "commit"])
    def test_corruption_inside_the_trusted_range_ends_the_log_there(
        self, tmp_path, geometry, victim, crc32_backends
    ):
        """Checkpoint 10's records lie between the full dump (9) and the
        target (11): damage there falls back to checkpoint 9, and rows the
        scan had already copied from checkpoint 11 do not survive.  Each
        CRC-32 backend finds the damage."""
        with CheckpointLogStore(tmp_path, geometry) as store:
            self.three_cycles(store, geometry)
            records = self.record_offsets(store)
            path = store.path
        # Records of checkpoint 10, counting back from the end: checkpoint
        # 11 is the last four (BEGIN, 2 x OBJECTS, COMMIT).
        begin, objects, _, commit = records[-8:-4]
        offset = {"objects": objects[0] + 45, "begin": begin[0] + 6,
                  "commit": commit[0] + 15}[victim]
        self.flip(path, offset)
        for backend in crc32_backends():
            with CheckpointLogStore(tmp_path, geometry) as store:
                out = bytearray(b"\xAA" * geometry.checkpoint_bytes)
                image, epoch, tick = store.restore_image(out=out)
                assert image is out
                assert (epoch, tick) == (9, 90), backend
                for object_id in range(geometry.num_objects):
                    assert image_value(image, geometry, object_id) == (
                        9_000 + object_id
                    )
                assert store.latest_committed() == (9, 90)

    def test_unwritten_objects_come_out_zero_in_a_dirty_destination(
        self, store, geometry
    ):
        self.checkpoint(store, geometry, 1, [1, 2])
        out = bytearray(b"\xFF" * geometry.checkpoint_bytes)
        image, epoch, _ = store.restore_image(out=out)
        assert epoch == 1
        assert image_value(image, geometry, 1) == 1_001
        assert image_value(image, geometry, 0) == 0
        assert bytes(out) == bytes(store.restore_image()[0])

    def test_last_occurrence_wins_within_an_unsorted_run(
        self, store, geometry
    ):
        everything = np.arange(geometry.num_objects)
        self.checkpoint(store, geometry, 1, everything, full=True)
        ids = np.array([5, 2, 5, 0], dtype=np.int64)
        cells = geometry.cells_per_object
        payload = np.zeros((4, cells), dtype=np.uint32)
        payload[:, 0] = [111, 222, 333, 444]
        store.begin_checkpoint(2, is_full_dump=False)
        store.append_objects(ids, payload.tobytes())
        # A later run of the same checkpoint beats an earlier one.
        store.append_objects(np.array([2]), payload_for([2], geometry, 7))
        store.commit_checkpoint(tick=20)
        image, _, _ = store.restore_image()
        assert image_value(image, geometry, 5) == 333
        assert image_value(image, geometry, 2) == 7_002
        assert image_value(image, geometry, 0) == 444
        assert image_value(image, geometry, 1) == 1_001

    def test_destination_is_checked_before_any_read(
        self, store, geometry, monkeypatch
    ):
        everything = np.arange(geometry.num_objects)
        self.checkpoint(store, geometry, 1, everything, full=True)
        counts = counted_reads(monkeypatch)
        size = geometry.checkpoint_bytes
        for bad in (bytearray(size - 1), bytearray(size + 1), bytes(size),
                    np.zeros((size, 2), dtype=np.uint8)[:, 0]):
            with pytest.raises(StorageError):
                store.restore_image(out=bad)
        assert counts["calls"] == 0
        table_like = np.zeros(size // 4, dtype=np.uint32)
        image, _, _ = store.restore_image(out=table_like)
        assert image is table_like
        assert table_like.tobytes() == bytes(store.restore_image()[0])


class TestTwoReaders:
    """Records that touch disjoint rows land on two readers; the split
    size is forced to 0 so the small logs here take that path."""

    HELPER = "repro-restore-reader"

    @pytest.fixture(autouse=True)
    def two_readers(self, monkeypatch):
        from repro.storage import layout

        monkeypatch.setattr(layout, "SPLIT_READ_BYTES", 0)

    def write(self, store, geometry, epoch, runs, full=False):
        """One checkpoint of one OBJECTS record per run, each run's rows
        filled with a value of its own; returns ``{id: fill}`` in write
        order."""
        store.begin_checkpoint(epoch, is_full_dump=full)
        written = {}
        for number, ids in enumerate(runs):
            fill = epoch * 10 + number
            store.append_objects(np.array(ids, dtype=np.int64),
                                 payload_for(ids, geometry, fill))
            written.update((object_id, fill) for object_id in ids)
        store.commit_checkpoint(tick=epoch * 10)
        return written

    def reads_by_thread(self, monkeypatch):
        """``(thread name, offset)`` of every read of the log.  The caller's
        reads lag, so the helper's half lands first: were two versions of
        one row in one batch, the older could win."""
        from repro.storage import layout

        reads = []
        real = layout.pread_into

        def recording(fd, buffer, offset):
            reads.append((threading.current_thread().name, offset))
            if reads[-1][0] != self.HELPER:
                time.sleep(0.002)
            return real(fd, buffer, offset)

        monkeypatch.setattr(layout, "pread_into", recording)
        return reads

    def test_last_write_wins_across_records_and_readers(
        self, store, geometry, monkeypatch
    ):
        """Repeated ids across one checkpoint's records and a record whose
        ids descend start new batches, so the later version still wins;
        every byte either reader read is counted once."""
        pairs = [[0, 1], [2, 3], [4, 5], [6, 7]]
        model = self.write(store, geometry, 1, pairs, full=True)
        model.update(self.write(store, geometry, 2,
                                [[2, 3], [3, 4], [6, 1], [7], [5], [5]]))
        reads = self.reads_by_thread(monkeypatch)
        counts = counted_reads(monkeypatch)
        before, threads = store.bytes_read, threading.enumerate()
        out = bytearray(b"\xAA" * geometry.checkpoint_bytes)
        image, epoch, tick = store.restore_image(out=out)
        assert threading.enumerate() == threads
        assert (epoch, tick) == (2, 20)
        for object_id in range(geometry.num_objects):
            assert image_value(image, geometry, object_id) == (
                model[object_id] * 1_000 + object_id
            )
        assert store.bytes_read - before == counts["bytes"]
        assert {name for name, _ in reads} == {"MainThread", self.HELPER}

    def test_switching_threads_every_microsecond_loses_no_row_or_byte(
        self, store, geometry, monkeypatch
    ):
        """Both readers write one table and count bytes apart: with the
        interpreter switching threads as often as it can, every restore
        still equals the model and counts each byte read once."""
        pairs = [[0, 1], [2, 3], [4, 5], [6, 7]]
        model = self.write(store, geometry, 1, pairs, full=True)
        model.update(self.write(store, geometry, 2, [[1, 2, 3], [5, 6]]))
        expected = b"".join(
            payload_for([object_id], geometry, model[object_id])
            for object_id in range(geometry.num_objects)
        )
        counts = counted_reads(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                before, read = store.bytes_read, counts["bytes"]
                image, _, _ = store.restore_image()
                assert bytes(image) == expected
                assert store.bytes_read - before == counts["bytes"] - read
        finally:
            sys.setswitchinterval(interval)

    def test_a_flipped_byte_in_the_helpers_half_restores_like_a_cut_log(
        self, tmp_path, geometry, monkeypatch, crc32_backends
    ):
        runs = [[0, 1], [2, 3], [4, 5], [6, 7]]
        with CheckpointLogStore(tmp_path / "log", geometry) as store:
            self.write(store, geometry, 1, runs, full=True)
            self.write(store, geometry, 2, runs)
            self.write(store, geometry, 3, [[1], [6]])
            # Epoch 2's last record, [6, 7]: one batch with the three
            # before it, of which the helper lands the second half.
            victim = store._log.records[11]
            path = store.path
        data = Path(path).read_bytes()
        cut = tmp_path / "cut"
        cut.mkdir()
        (cut / CheckpointLogStore.FILE_NAME).write_bytes(data[: victim.offset])
        with CheckpointLogStore(cut, geometry) as store:
            expected = store.restore_image()
        assert expected[1:] == (1, 10)
        damaged = bytearray(data)
        damaged[victim.offset + RECORD_HEADER_BYTES + 2 * 8 + 5] ^= 0x5A
        reads = self.reads_by_thread(monkeypatch)
        for backend in crc32_backends():
            Path(path).write_bytes(damaged)
            with CheckpointLogStore(tmp_path / "log", geometry) as store:
                out = bytearray(b"\xAA" * geometry.checkpoint_bytes)
                restored = store.restore_image(out=out)
            assert (bytes(restored[0]), *restored[1:]) == (
                bytes(expected[0]), *expected[1:]
            ), backend
            rest = victim.offset + RECORD_HEADER_BYTES + 2 * 8
            assert (self.HELPER, rest) in reads

    def test_an_oserror_on_the_helper_reaches_the_caller(
        self, store, geometry, monkeypatch
    ):
        from repro.storage import layout

        self.write(store, geometry, 1, [[0, 1, 2, 3], [4, 5, 6, 7]],
                   full=True)
        error = OSError(errno.EIO, "injected")
        real = layout.pread_into

        def failing(fd, buffer, offset):
            if threading.current_thread().name == self.HELPER:
                raise error
            return real(fd, buffer, offset)

        monkeypatch.setattr(layout, "pread_into", failing)
        threads = threading.enumerate()
        with pytest.raises(OSError) as raised:
            store.restore_image()
        assert raised.value is error
        assert threading.enumerate() == threads


def test_no_second_compaction_path_grows_back():
    """Rotation on each full dump is the only way the log sheds history."""
    for retired in ("compact", "COMPACT_CHUNK_BYTES"):
        assert not hasattr(CheckpointLogStore, retired)


def test_no_second_restore_path_grows_back():
    """The restore reads the log in file order and lets newer versions
    overwrite older ones: no backwards pass, no ``seen`` scatter, and no
    readahead hints of its own."""
    import repro

    root = Path(repro.__file__).parent
    for path in root.rglob("*.py"):
        text = path.read_text()
        for gone in ("_fill_backwards", "_scatter_unseen",
                     "POSIX_FADV_WILLNEED", "_READAHEAD_BYTES"):
            assert gone not in text, (gone, path)
