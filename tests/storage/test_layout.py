"""Tests for on-disk framing (headers, records, CRCs)."""

import threading
import time

import pytest

from repro.config import StateGeometry
from repro.errors import CorruptCheckpointError
from repro.storage import layout


@pytest.fixture
def geometry():
    return StateGeometry(rows=8, columns=8)


class TestGeometryStamp:
    def test_round_trip(self, geometry):
        packed = layout.pack_geometry(geometry)
        assert len(packed) == layout.GEOMETRY_BYTES
        assert layout.unpack_geometry(packed) == geometry


class TestBackupHeader:
    def test_round_trip(self, geometry):
        header = layout.BackupHeader(
            state=layout.STATE_COMPLETE, epoch=7, tick=123, geometry=geometry
        )
        restored = layout.BackupHeader.unpack(header.pack())
        assert restored == header

    def test_fixed_size(self, geometry):
        header = layout.BackupHeader(
            state=layout.STATE_EMPTY, epoch=0, tick=-1, geometry=geometry
        )
        assert len(header.pack()) == layout.BACKUP_HEADER_BYTES

    def test_bad_magic_rejected(self, geometry):
        packed = bytearray(
            layout.BackupHeader(
                state=layout.STATE_EMPTY, epoch=0, tick=-1, geometry=geometry
            ).pack()
        )
        packed[0] = ord(b"X")
        with pytest.raises(CorruptCheckpointError):
            layout.BackupHeader.unpack(bytes(packed))

    def test_corrupt_payload_rejected(self, geometry):
        packed = bytearray(
            layout.BackupHeader(
                state=layout.STATE_COMPLETE, epoch=3, tick=9, geometry=geometry
            ).pack()
        )
        packed[10] ^= 0xFF  # flip a bit inside the CRC-protected region
        with pytest.raises(CorruptCheckpointError):
            layout.BackupHeader.unpack(bytes(packed))

    def test_truncated_rejected(self):
        with pytest.raises(CorruptCheckpointError):
            layout.BackupHeader.unpack(b"\x00" * 4)


class TestRecords:
    def test_round_trip(self):
        payload = b"hello world"
        record = layout.pack_record(layout.RECORD_OBJECTS, 5, 11, payload)
        header = record[: layout.RECORD_HEADER_BYTES]
        record_type, a, b, length, checksum = layout.unpack_record_header(header)
        assert (record_type, a, b, length) == (layout.RECORD_OBJECTS, 5, 11, 11)
        body = record[layout.RECORD_HEADER_BYTES:]
        assert body == payload
        assert layout.verify_record(header, body, checksum)

    def test_tampered_payload_fails_verification(self):
        record = layout.pack_record(layout.RECORD_TICK, 1, 0, b"abcdef")
        header = record[: layout.RECORD_HEADER_BYTES]
        _, _, _, _, checksum = layout.unpack_record_header(header)
        assert not layout.verify_record(header, b"abcdeX", checksum)

    def test_bad_magic_raises(self):
        with pytest.raises(CorruptCheckpointError):
            layout.unpack_record_header(b"X" * layout.RECORD_HEADER_BYTES)

    def test_empty_payload(self):
        record = layout.pack_record(layout.RECORD_CHECKPOINT_COMMIT, 2, 40, b"")
        header = record[: layout.RECORD_HEADER_BYTES]
        record_type, a, b, length, checksum = layout.unpack_record_header(header)
        assert length == 0
        assert layout.verify_record(header, b"", checksum)


class TestGatheredWrites:
    def test_pwritev_all_lands_scattered_buffers(self, tmp_path):
        """Many small iovec entries (past IOV_MAX) land back-to-back."""
        import os

        buffers = [bytes([index % 251]) * 3 for index in range(1500)]
        path = tmp_path / "gathered"
        fd = os.open(path, os.O_CREAT | os.O_RDWR)
        try:
            written = layout.pwritev_all(fd, buffers, 7)
        finally:
            os.close(fd)
        expected = b"".join(buffers)
        assert written == len(expected)
        assert path.read_bytes() == b"\x00" * 7 + expected

    def test_pwritev_all_empty(self, tmp_path):
        import os

        path = tmp_path / "empty"
        fd = os.open(path, os.O_CREAT | os.O_RDWR)
        try:
            assert layout.pwritev_all(fd, [], 0) == 0
        finally:
            os.close(fd)


class TestReadHalves:
    """``read_halves`` runs a plan's second half on one helper thread from
    ``SPLIT_READ_BYTES`` on, and never leaves that thread behind."""

    def thread_of(self):
        return threading.current_thread().name

    def test_small_plans_stay_on_the_caller(self):
        names = layout.read_halves(layout.SPLIT_READ_BYTES - 1,
                                   self.thread_of, self.thread_of)
        assert names == ("MainThread", "MainThread")

    def test_large_plans_take_one_helper(self):
        before = threading.enumerate()
        names = layout.read_halves(layout.SPLIT_READ_BYTES,
                                   self.thread_of, self.thread_of)
        assert names == ("MainThread", "repro-restore-reader")
        assert threading.enumerate() == before

    def test_the_helpers_exception_reaches_the_caller(self):
        error = OSError(5, "injected")

        def second():
            raise error

        before = threading.enumerate()
        with pytest.raises(OSError) as raised:
            layout.read_halves(layout.SPLIT_READ_BYTES, lambda: 1, second)
        assert raised.value is error
        assert threading.enumerate() == before

    def test_the_callers_exception_waits_for_the_helper(self):
        """The caller's half fails while the helper is still reading: the
        helper is joined first, and the caller's exception is raised."""
        started, done = threading.Event(), threading.Event()

        def first():
            started.wait(5)
            raise ValueError("caller")

        def second():
            started.set()
            time.sleep(0.2)
            done.set()

        before = threading.enumerate()
        with pytest.raises(ValueError, match="caller"):
            layout.read_halves(layout.SPLIT_READ_BYTES, first, second)
        assert done.is_set()
        assert threading.enumerate() == before
