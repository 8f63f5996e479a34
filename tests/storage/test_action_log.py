"""Tests for the logical action log."""

import pickle
import types

import numpy as np
import pytest

import repro.storage.action_log as action_log_module
from repro.errors import StorageError
from repro.storage.action_log import ActionLog, TickRecord
from repro.storage.layout import RECORD_HEADER_BYTES, unpack_record_header
from tests.engine.test_log_overlap import no_sync_thread_leaks  # noqa: F401


def rng_state(seed):
    return np.random.default_rng(seed).bit_generator.state


def write_ticks(directory, count):
    """A log of ticks ``0 .. count - 1``; returns its path."""
    with ActionLog(directory) as log:
        for tick in range(count):
            log.append(TickRecord(tick=tick, rng_state=rng_state(tick)))
        return log.path


def frames(path):
    """``(offset, framed size)`` of every record in a well-formed log."""
    with open(path, "rb") as handle:
        data = handle.read()
    found, offset = [], 0
    while offset < len(data):
        length = unpack_record_header(
            data[offset:offset + RECORD_HEADER_BYTES]
        )[3]
        found.append((offset, RECORD_HEADER_BYTES + length))
        offset += RECORD_HEADER_BYTES + length
    return found


def flip_byte(path, offset):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([byte ^ 0xFF]))


def count_unpickles(monkeypatch):
    """Route the log module's ``pickle.loads`` through a counter."""
    calls = []

    def loads(data):
        calls.append(len(data))
        return pickle.loads(data)

    monkeypatch.setattr(
        action_log_module, "pickle",
        types.SimpleNamespace(dumps=pickle.dumps, loads=loads),
    )
    return calls


class TestAppendAndRead:
    def test_round_trip(self, tmp_path):
        with ActionLog(tmp_path) as log:
            log.append(TickRecord(tick=0, rng_state=rng_state(1)))
            log.append(TickRecord(tick=1, rng_state=rng_state(2), command_payload=b"x"))
            records = list(log.records())
        assert [r.tick for r in records] == [0, 1]
        assert records[1].command_payload == b"x"

    def test_rng_state_usable(self, tmp_path):
        with ActionLog(tmp_path) as log:
            log.append(TickRecord(tick=0, rng_state=rng_state(7)))
            record = next(log.records())
        restored = np.random.default_rng()
        restored.bit_generator.state = record.rng_state
        expected = np.random.default_rng(7)
        assert restored.random() == expected.random()

    def test_start_tick_filter(self, tmp_path):
        with ActionLog(tmp_path) as log:
            for tick in range(5):
                log.append(TickRecord(tick=tick, rng_state=rng_state(tick)))
            records = list(log.records(start_tick=3))
        assert [r.tick for r in records] == [3, 4]

    def test_last_tick(self, tmp_path):
        with ActionLog(tmp_path) as log:
            assert log.last_tick is None
            log.append(TickRecord(tick=0, rng_state=rng_state(0)))
            assert log.last_tick == 0

    def test_non_consecutive_rejected(self, tmp_path):
        with ActionLog(tmp_path) as log:
            log.append(TickRecord(tick=0, rng_state=rng_state(0)))
            with pytest.raises(StorageError):
                log.append(TickRecord(tick=2, rng_state=rng_state(0)))

    def test_negative_first_tick_rejected(self, tmp_path):
        with ActionLog(tmp_path) as log:
            with pytest.raises(StorageError):
                log.append(TickRecord(tick=-1, rng_state=rng_state(0)))


class TestFsyncPolicy:
    def test_default_policy_is_never(self, tmp_path):
        with ActionLog(tmp_path) as log:
            assert log.fsync_policy == "never"

    def test_invalid_policy_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            ActionLog(tmp_path, fsync_policy="sometimes")

    @pytest.mark.parametrize("policy", ["never", "commit", "always"])
    def test_appends_fsync_per_policy(self, tmp_path, policy, monkeypatch):
        """Every append is a commit point, so commit == always for the log."""
        import repro.storage.action_log as module

        calls = []
        real_fsync = module.os.fsync
        monkeypatch.setattr(
            module.os, "fsync",
            lambda fd: (calls.append(fd), real_fsync(fd))[1],
        )
        with ActionLog(tmp_path, fsync_policy=policy) as log:
            log.append(TickRecord(tick=0, rng_state=rng_state(0)))
            log.append(TickRecord(tick=1, rng_state=rng_state(1)))
        expected = 0 if policy == "never" else 2
        assert len(calls) == expected


class TestDurability:
    def test_reopen_continues(self, tmp_path):
        with ActionLog(tmp_path) as log:
            log.append(TickRecord(tick=0, rng_state=rng_state(0)))
        with ActionLog(tmp_path) as log:
            assert log.last_tick == 0
            log.append(TickRecord(tick=1, rng_state=rng_state(1)))
            assert [r.tick for r in log.records()] == [0, 1]

    def test_torn_tail_dropped(self, tmp_path):
        with ActionLog(tmp_path) as log:
            log.append(TickRecord(tick=0, rng_state=rng_state(0)))
            log.append(TickRecord(tick=1, rng_state=rng_state(1)))
            path = log.path
        with open(path, "r+b") as handle:
            handle.seek(-7, 2)
            handle.truncate()
        with ActionLog(tmp_path) as log:
            assert [r.tick for r in log.records()] == [0]
            assert log.last_tick == 0
            # Appending continues from the surviving prefix.
            log.append(TickRecord(tick=1, rng_state=rng_state(9)))
            assert [r.tick for r in log.records()] == [0, 1]
        # The append cut the torn bytes off first, so the new tick 1 reads
        # back (appended behind them it could never be read again).
        with ActionLog(tmp_path) as log:
            records = list(log.records())
            assert [r.tick for r in records] == [0, 1]
            assert records[1].rng_state == rng_state(9)
            assert log.last_tick == 1

    def test_corrupt_newest_record_is_a_torn_tail(self, tmp_path):
        """A complete-looking newest record that fails its CRC was not
        durably logged: it is dropped like a torn one, and cut off by the
        next append."""
        path = write_ticks(tmp_path, 3)
        flip_byte(path, frames(path)[2][0] + RECORD_HEADER_BYTES + 3)
        with ActionLog(tmp_path) as log:
            assert log.last_tick == 1
            assert [r.tick for r in log.records()] == [0, 1]
            log.append(TickRecord(tick=2, rng_state=rng_state(9)))
        with ActionLog(tmp_path) as log:
            assert [r.tick for r in log.records()] == [0, 1, 2]
            assert log.last_tick == 2

    def test_hostile_length_is_a_torn_tail_and_allocates_nothing(
        self, tmp_path
    ):
        """The header's length is unverified until the CRC: one claiming
        4 GiB used to size a ``read`` before anything could reject it."""
        import tracemalloc

        from repro.storage.layout import RECORD_TICK, pack_record

        with ActionLog(tmp_path) as log:
            log.append(TickRecord(tick=0, rng_state=rng_state(0)))
            log.append(TickRecord(tick=1, rng_state=rng_state(1)))
            path = log.path
        hostile = bytearray(pack_record(RECORD_TICK, 2, 0, b""))
        hostile[21:25] = (0xFFFFFFFF).to_bytes(4, "little")
        with open(path, "ab") as handle:
            handle.write(hostile)
        tracemalloc.start()
        try:
            with ActionLog(tmp_path) as log:
                ticks = [record.tick for record in log.records()]
                assert log.last_tick == 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ticks == [0, 1]
        assert peak < 1 << 20


class TestReadsOnlyWhatItYields:
    """Opening walks headers and verifies the newest record alone;
    ``records(start_tick)`` reads nothing logged before ``start_tick``."""

    TICKS = 200

    def test_open_unpickles_nothing(self, tmp_path, monkeypatch):
        path = write_ticks(tmp_path, self.TICKS)
        calls = count_unpickles(monkeypatch)
        with ActionLog(tmp_path) as log:
            assert log.last_tick == self.TICKS - 1
            assert calls == []
            assert log.bytes_verified == frames(path)[-1][1]

    def test_records_read_only_what_they_yield(self, tmp_path, monkeypatch):
        path = write_ticks(tmp_path, self.TICKS)
        calls = count_unpickles(monkeypatch)
        with ActionLog(tmp_path) as log:
            opened = log.bytes_verified
            ticks = [r.tick for r in log.records(start_tick=self.TICKS - 5)]
            read = log.bytes_verified - opened
        assert ticks == list(range(self.TICKS - 5, self.TICKS))
        assert len(calls) == 5
        assert read == sum(size for _, size in frames(path)[-5:])

    def test_bad_byte_before_start_tick_hides_nothing(self, tmp_path):
        path = write_ticks(tmp_path, 10)
        flip_byte(path, RECORD_HEADER_BYTES + 10)  # tick 0's payload
        with ActionLog(tmp_path) as log:
            assert log.last_tick == 9
            assert [r.tick for r in log.records(start_tick=5)] == [
                5, 6, 7, 8, 9
            ]
            # Read from tick 0, nothing is trusted past the bad record.
            assert list(log.records()) == []

    def test_records_stop_at_the_first_that_fails(self, tmp_path):
        path = write_ticks(tmp_path, 10)
        flip_byte(path, frames(path)[6][0] + RECORD_HEADER_BYTES + 2)
        with ActionLog(tmp_path) as log:
            assert [r.tick for r in log.records(start_tick=3)] == [3, 4, 5]
            # Intact records follow the bad one: the newest still counts.
            assert log.last_tick == 9
