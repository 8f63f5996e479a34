"""Tests for the framed record file under both logs.

The action log and the checkpoint log share one header walk, one verified
read and one torn-tail rule (:class:`repro.storage.layout.RecordFile`).
The regression cases run against both logs: a record appended after a torn
tail, or after a write that failed part way, must be the one read back.
"""

import ast
import errno
import os
from pathlib import Path

import numpy as np
import pytest

import repro.storage.layout as layout
from repro.config import StateGeometry
from repro.errors import StorageError
from repro.storage.action_log import ActionLog, TickRecord
from repro.storage.checkpoint_log import CheckpointLogStore
from repro.storage.layout import GEOMETRY_BYTES, RECORD_HEADER_BYTES

STORAGE = Path(layout.__file__).parent


def short_then_eio(monkeypatch):
    """The next gathered write lands half its bytes, then fails with EIO."""
    real = os.writev
    calls = []

    def writev(fd, buffers):
        calls.append(fd)
        if len(calls) == 1:
            data = b"".join(bytes(buffer) for buffer in buffers)
            return os.write(fd, data[: len(data) // 2])
        if len(calls) == 2:
            raise OSError(errno.EIO, "injected I/O error")
        return real(fd, buffers)

    monkeypatch.setattr(os, "writev", writev)


class ActionLogCase:
    """Ticks 0-2 logged; the newest record is tick 3."""

    def open(self, directory):
        return ActionLog(directory)

    def history(self, log):
        for tick in range(3):
            log.append(TickRecord(tick=tick, rng_state={"tick": tick}))

    def add_newest(self, log):
        log.append(TickRecord(tick=log.last_tick + 1,
                              rng_state={"newest": True}))

    def fail_newest(self, log):
        with pytest.raises(StorageError, match="injected"):
            self.add_newest(log)

    def newest(self, log):
        records = list(log.records())
        assert [r.tick for r in records] == list(range(len(records)))
        assert log.last_tick == records[-1].tick
        return records[-1].rng_state


class CheckpointLogCase:
    """Epoch 1 committed at tick 10 and epoch 2 left unfinished; the newest
    commit is epoch 3 at tick 30."""

    GEOMETRY = StateGeometry(rows=8, columns=8, cell_bytes=4, object_bytes=32)

    def open(self, directory):
        return CheckpointLogStore(directory, self.GEOMETRY)

    def rows(self, count, fill):
        return np.full((count, self.GEOMETRY.object_bytes), fill, np.uint8)

    def history(self, store):
        everything = np.arange(self.GEOMETRY.num_objects)
        store.begin_checkpoint(1, is_full_dump=True)
        store.write_checkpoint_vectored(everything, self.rows(8, 1), 10)
        store.begin_checkpoint(2, is_full_dump=False)
        store.append_objects(np.array([2, 3]), self.rows(2, 2))

    def add_newest(self, store):
        store.begin_checkpoint(3, is_full_dump=False)
        store.write_checkpoint_vectored(np.array([5]), self.rows(1, 3), 30)

    def fail_newest(self, store):
        """Epoch 2's commit write fails part way; the writer aborts it."""
        with pytest.raises(OSError, match="injected"):
            store.write_checkpoint_vectored(np.arange(4), self.rows(4, 2), 20)
        store.abort_checkpoint()

    def newest(self, store):
        image, epoch, tick = store.restore_image()
        assert store.latest_committed() == (epoch, tick)
        rows = np.frombuffer(image, np.uint8).reshape(8, -1)[:, 0]
        return epoch, tick, rows.tolist()


NEWEST = {
    "action_log": {"newest": True},
    "checkpoint_log": (3, 30, [1, 1, 1, 1, 1, 3, 1, 1]),
}
CASES = {"action_log": ActionLogCase(), "checkpoint_log": CheckpointLogCase()}


@pytest.mark.parametrize("log", sorted(CASES))
class TestNewestRecordReadsBack:
    def test_after_a_torn_tail_found_at_open(self, tmp_path, log):
        """The tail lost its last 5 bytes in a crash: the next append cuts
        them off, so the checkpoint log reads ``(3, 30)``, not ``(1, 10)``."""
        case = CASES[log]
        with case.open(tmp_path) as opened:
            case.history(opened)
            path = opened.path
        os.truncate(path, os.path.getsize(path) - 5)
        with case.open(tmp_path) as opened:
            case.add_newest(opened)
            assert case.newest(opened) == NEWEST[log]
        with case.open(tmp_path) as reopened:
            assert case.newest(reopened) == NEWEST[log]

    def test_after_a_short_write_that_failed(
        self, tmp_path, monkeypatch, log
    ):
        """Half a gathered write landed before EIO: the next append or
        commit cuts it off first."""
        case = CASES[log]
        with case.open(tmp_path) as opened:
            case.history(opened)
            short_then_eio(monkeypatch)
            case.fail_newest(opened)
            monkeypatch.undo()
            case.add_newest(opened)
            assert case.newest(opened) == NEWEST[log]
        with case.open(tmp_path) as reopened:
            assert case.newest(reopened) == NEWEST[log]


def counted_reads(monkeypatch):
    """The byte count of every read either log makes, in order."""
    real = layout.pread_into
    reads = []

    def pread_into(fd, buffer, offset):
        count = real(fd, buffer, offset)
        reads.append(count)
        return count

    monkeypatch.setattr(layout, "pread_into", pread_into)
    return reads


class TestWalkCosts:
    def test_opening_a_segment_reads_one_block_and_the_newest_record(
        self, tmp_path, monkeypatch
    ):
        with ActionLog(tmp_path) as log:
            for tick in range(50):
                log.append(TickRecord(tick=tick, rng_state={"tick": tick}))
            size = os.path.getsize(log.path)
        assert size < layout.WALK_BLOCK_BYTES
        reads = counted_reads(monkeypatch)
        with ActionLog(tmp_path) as log:
            assert log.last_tick == 49
        assert reads[0] == size and len(reads) == 2

    def test_long_records_are_walked_header_by_header(
        self, tmp_path, monkeypatch
    ):
        """After a record longer than a block the walk reads only the next
        header: no payload byte of a long record is read."""
        payload = os.urandom(layout.WALK_BLOCK_BYTES)
        with ActionLog(tmp_path) as log:
            for tick in range(4):
                log.append(TickRecord(tick=tick, rng_state={},
                                      command_payload=payload))
        reads = counted_reads(monkeypatch)
        with ActionLog(tmp_path) as log:
            assert log.last_tick == 3
        framed = reads[-1]  # the newest record, verified whole
        assert framed > layout.WALK_BLOCK_BYTES
        assert reads[:-1] == [layout.WALK_BLOCK_BYTES] + [
            RECORD_HEADER_BYTES] * 3

    def test_a_recovery_shaped_log_is_walked_once_without_payloads(
        self, tmp_path, monkeypatch
    ):
        """512-byte objects in 512-object records, and partials whose last
        record is shorter than a block: the open walks headers alone, and
        the restore reads the trusted range and nothing else."""
        geometry = StateGeometry(rows=4096, columns=128)  # 4096 objects
        everything = np.arange(geometry.num_objects)
        rows = np.ones((geometry.num_objects, 512), np.uint8)
        with CheckpointLogStore(tmp_path, geometry) as store:
            store.begin_checkpoint(1, is_full_dump=True)
            store.write_checkpoint_vectored(everything, rows, 10)
            for epoch, count in ((2, 700), (3, 40), (4, 1100)):
                ids = everything[::3][:count]
                store.begin_checkpoint(epoch, is_full_dump=False)
                store.write_checkpoint_vectored(ids, rows[:count], 10 * epoch)
        reads = counted_reads(monkeypatch)
        with CheckpointLogStore(tmp_path, geometry) as store:
            opened = list(reads)
            records = len(store._log.walk())
            _image, epoch, _tick = store.restore_image()
            restored = sum(reads) - sum(opened)
            scan = store.restore_scan_bytes()
        assert epoch == 4
        assert opened == [RECORD_HEADER_BYTES] * records + [
            RECORD_HEADER_BYTES + GEOMETRY_BYTES]
        assert restored == scan


class TestOneRecordFile:
    def test_no_second_record_walker_grows_back(self):
        """Only the record file parses record headers, CRC-checks records
        and cuts files in ``repro.storage``; neither log walks, verifies or
        truncates on its own."""
        parsers, verifiers, cutters, walkers = set(), set(), set(), set()
        for path in sorted(STORAGE.glob("*.py")):
            tree = ast.parse(path.read_text())
            for function in ast.walk(tree):
                if not isinstance(function, ast.FunctionDef):
                    continue
                where = f"{path.stem}.{function.name}"
                if "walk" in function.name:
                    walkers.add(where)
                for node in ast.walk(function):
                    name = (node.id if isinstance(node, ast.Name) else
                            node.attr if isinstance(node, ast.Attribute)
                            else None)
                    if name == "unpack_record_header":
                        parsers.add(where)
                    elif name == "verify_record":
                        verifiers.add(where)
                    elif name in ("truncate", "ftruncate") and path.stem in (
                        "action_log", "checkpoint_log", "layout"
                    ):
                        cutters.add(where)
        assert walkers == {"layout.walk"}
        assert parsers == {"layout.walk"}
        assert verifiers == {"layout.read_verified"}
        assert cutters == {"layout.append"}
