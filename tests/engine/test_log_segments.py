"""The action log's segments: one per checkpoint period.

At each checkpoint cut the server seals the live ``actions.log`` as
``actions.<first tick>.log`` and starts a fresh one.  These tests pin what
that buys and what it must not cost: opening the log and reading from the
newest cut reads one period however long the server ran, every crash
between the rename, the create and the first record recovers exactly the
last logged tick, a bad byte before the restored cut hides nothing and one
after it is a hole, and a directory holding sealed segments is never taken
for a fresh one.
"""

import os
import pickle

import pytest

import repro.storage.action_log as action_log_module
import repro.storage.layout as layout
from repro.engine.recovery import RecoveryManager
from repro.engine.server import DurableGameServer
from repro.errors import EngineError, RecoveryError
from repro.storage.action_log import ActionLog, TickRecord
from repro.storage.double_backup import DoubleBackupStore
from repro.storage.layout import (
    RECORD_HEADER_BYTES,
    RECORD_TICK,
    STATE_IN_PROGRESS,
    BackupHeader,
    pack_record,
    unpack_record_header,
)
from tests.engine.test_log_overlap import (  # noqa: F401
    no_sync_thread_leaks,
    patch_log_fsync,
)
from tests.storage.test_action_log import flip_byte, frames

PERIOD = 8
#: Cuts at ticks 0, 8, 16 and 24: the last tick run is a cut, so the live
#: segment is empty, as a crash just after a roll leaves it.
TICKS = 25


def names(directory):
    return sorted(name for name in os.listdir(directory)
                  if name.startswith("actions."))


def segment_ticks(path):
    """The tick in every record header of one segment file."""
    with open(path, "rb") as handle:
        data = handle.read()
    return [unpack_record_header(data, offset)[1]
            for offset, _ in frames(path)]


class TestRoll:
    def test_server_seals_a_segment_at_every_cut(self, random_walk_app,
                                                 tmp_path):
        with DurableGameServer(random_walk_app, tmp_path, seed=7,
                               min_checkpoint_interval_ticks=PERIOD,
                               ) as server:
            server.run_ticks(30)
            assert server.last_cut_tick == 24
        assert names(tmp_path) == [
            "actions.0.log", "actions.1.log", "actions.17.log",
            "actions.9.log", "actions.log",
        ]
        # Each sealed segment runs from the tick after one cut through the
        # next cut; the live one starts after the newest cut.
        for first, last in [(0, 0), (1, 8), (9, 16), (17, 24)]:
            assert segment_ticks(tmp_path / f"actions.{first}.log") == list(
                range(first, last + 1))
        assert segment_ticks(tmp_path / ActionLog.FILE_NAME) == list(
            range(25, 30))
        with ActionLog(tmp_path) as log:
            assert log.last_tick == 29
            assert [r.tick for r in log.records()] == list(range(30))
            assert [r.tick for r in log.records(start_tick=25)] == [
                25, 26, 27, 28, 29]
            assert [r.tick for r in log.records(start_tick=12)] == list(
                range(12, 30))

    def test_directory_is_synced_before_a_new_segments_first_record(
        self, tmp_path, monkeypatch
    ):
        synced = []
        real = os.fsync

        def fsync(fd):
            synced.append(os.path.basename(os.readlink(f"/proc/self/fd/{fd}")))
            real(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        with ActionLog(tmp_path, fsync_policy="commit") as log:
            log.append(TickRecord(tick=0, rng_state={}))
            log.roll()
            log.append(TickRecord(tick=1, rng_state={}))
            log.append(TickRecord(tick=2, rng_state={}))
        assert synced == [
            ActionLog.FILE_NAME, tmp_path.name, ActionLog.FILE_NAME,
            ActionLog.FILE_NAME,
        ]

    def test_never_policy_syncs_nothing(self, tmp_path, monkeypatch):
        synced = []
        patch_log_fsync(monkeypatch, before=synced.append)
        monkeypatch.setattr(action_log_module, "fsync_directory",
                            synced.append)
        with ActionLog(tmp_path, fsync_policy="never") as log:
            log.append(TickRecord(tick=0, rng_state={}))
            log.roll()
            log.append(TickRecord(tick=1, rng_state={}))
        assert synced == []

    def test_roll_of_an_empty_segment_is_a_no_op(self, tmp_path):
        with ActionLog(tmp_path) as log:
            log.roll()
            log.append(TickRecord(tick=0, rng_state={}))
            log.roll()
            log.roll()
            assert [os.path.basename(p) for p in log.sealed_segments] == [
                "actions.0.log"]
        assert names(tmp_path) == ["actions.0.log", "actions.log"]


class TestOpenCostIsOnePeriod:
    """Opening the log and reading from the newest cut cost the same after
    4 cut periods as after 64: uptime no longer shows.  Neither lists the
    directory, whose sealed segments grow with uptime."""

    TICKS_PER_PERIOD = 16
    TAIL = 5

    def bytes_read(self, directory, periods, monkeypatch):
        with ActionLog(directory) as log:
            tick = 0
            for _ in range(periods):
                for _ in range(self.TICKS_PER_PERIOD):
                    log.append(TickRecord(tick=tick, rng_state={}))
                    tick += 1
                log.roll()
            cut = tick - 1
            for _ in range(self.TAIL):
                log.append(TickRecord(tick=tick, rng_state={}))
                tick += 1
        real = layout.pread_into
        read = []

        def pread_into(fd, buffer, offset):
            count = real(fd, buffer, offset)
            read.append(count)
            return count

        monkeypatch.setattr(layout, "pread_into", pread_into)
        listed = []
        monkeypatch.setattr(os, "listdir", listed.append)
        with ActionLog(directory) as log:
            ticks = [record.tick for record in log.records(cut + 1)]
        monkeypatch.undo()
        assert ticks == list(range(cut + 1, tick))
        assert listed == []
        return sum(read)

    def test_same_bytes_after_4_and_64_periods(self, tmp_path, monkeypatch):
        short = self.bytes_read(tmp_path / "short", 4, monkeypatch)
        long = self.bytes_read(tmp_path / "long", 64, monkeypatch)
        assert short == long
        # The live segment's header walk, the newest record open verifies
        # and the records read: no byte of a sealed segment.
        frame = len(pack_record(
            RECORD_TICK, 0, 0, pickle.dumps(({}, b""), protocol=4)))
        assert short == (2 * self.TAIL + 1) * frame


def uncommit_newest_checkpoint(directory, geometry):
    """Mark the newest backup in progress, as a crash inside the flush of
    its checkpoint leaves it; returns the cut that restores instead."""
    with DoubleBackupStore(directory, geometry) as store:
        newest = store.latest_consistent()
    path = os.path.join(directory,
                        DoubleBackupStore.FILE_NAMES[newest.backup_index])
    with open(path, "r+b") as handle:
        handle.write(BackupHeader(STATE_IN_PROGRESS, newest.epoch,
                                  newest.tick, geometry).pack())
    with DoubleBackupStore(directory, geometry) as store:
        return store.latest_consistent().tick


class TestCrashStates:
    """Each directory state a crash around a roll can leave, built by hand
    from a run whose last tick is a cut whose checkpoint never committed:
    recovery restores cut 16 and must replay ticks 17-24 out of a sealed
    segment, up to exactly the last logged tick."""

    @pytest.fixture
    def crashed(self, random_walk_app, tmp_path):
        server = DurableGameServer(random_walk_app, tmp_path, seed=7,
                                   min_checkpoint_interval_ticks=PERIOD)
        server.run_ticks(TICKS)
        expected = server.table.copy()
        rng_state = server._rng.bit_generator.state
        server.crash()
        assert os.path.getsize(tmp_path / ActionLog.FILE_NAME) == 0
        assert uncommit_newest_checkpoint(
            tmp_path, random_walk_app.geometry) == 16
        return tmp_path, expected, rng_state

    def recover(self, app, directory):
        return RecoveryManager(app, directory, seed=7).recover()

    def assert_recovers_every_tick(self, app, crashed):
        directory, expected, rng_state = crashed
        report = self.recover(app, directory)
        assert (report.checkpoint_tick, report.ticks_replayed,
                report.next_tick) == (16, 8, TICKS)
        assert report.table.equals(expected)
        assert report.rng.bit_generator.state == rng_state
        return report

    def test_renamed_with_no_live_file(self, random_walk_app, crashed):
        os.remove(crashed[0] / ActionLog.FILE_NAME)
        self.assert_recovers_every_tick(random_walk_app, crashed)

    def test_empty_live_file(self, random_walk_app, crashed):
        self.assert_recovers_every_tick(random_walk_app, crashed)

    def test_torn_first_record_of_a_new_segment(self, random_walk_app,
                                                crashed):
        frame = pack_record(RECORD_TICK, TICKS, 0, b"x" * 64)
        with open(crashed[0] / ActionLog.FILE_NAME, "wb") as handle:
            handle.write(frame[: len(frame) // 2])
        self.assert_recovers_every_tick(random_walk_app, crashed)

    def test_bad_byte_before_the_restored_cut_hides_nothing(
        self, random_walk_app, crashed
    ):
        clean = self.recover(random_walk_app, crashed[0])
        for name in ("actions.0.log", "actions.9.log"):
            flip_byte(crashed[0] / name, RECORD_HEADER_BYTES + 10)
        flipped = self.assert_recovers_every_tick(random_walk_app, crashed)
        assert flipped.log_bytes_read == clean.log_bytes_read

    def test_bad_byte_after_the_restored_cut_is_a_hole(
        self, random_walk_app, crashed
    ):
        flip_byte(crashed[0] / "actions.17.log", RECORD_HEADER_BYTES + 10)
        with pytest.raises(RecoveryError, match="corrupt"):
            self.recover(random_walk_app, crashed[0])


class TestUsedDirectoryRefused:
    @pytest.mark.parametrize("live", ["empty", "absent"])
    @pytest.mark.parametrize("sealed", ["intact", "garbage"])
    def test_sealed_segments_refuse_a_fresh_server(
        self, random_walk_app, tmp_path, live, sealed
    ):
        """Whether or not a sealed segment holds a record that passes its
        CRC, and whatever the live file holds."""
        with ActionLog(tmp_path) as log:
            log.append(TickRecord(tick=0, rng_state={}))
            log.roll()
        if sealed == "garbage":
            (tmp_path / "actions.0.log").write_bytes(b"not a record")
        if live == "absent":
            os.remove(tmp_path / ActionLog.FILE_NAME)
        with pytest.raises(EngineError, match="already contains"):
            DurableGameServer(random_walk_app, tmp_path)
        with ActionLog(tmp_path) as log:
            assert log.last_tick == (0 if sealed == "intact" else None)

    def test_recovered_directory_is_refused(self, random_walk_app, tmp_path):
        server = DurableGameServer(random_walk_app, tmp_path, seed=7,
                                   min_checkpoint_interval_ticks=PERIOD)
        server.run_ticks(TICKS)
        server.crash()
        RecoveryManager(random_walk_app, tmp_path, seed=7).recover()
        with pytest.raises(EngineError, match="already contains"):
            DurableGameServer(random_walk_app, tmp_path, seed=7)
