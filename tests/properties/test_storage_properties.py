"""Property tests on the stable-storage structures (invariant 1).

The double-backup organization must keep at least one complete consistent
image on disk at every point after the first commit, no matter where a crash
interrupts the write sequence; and the checkpoint log must reconstruct
exactly the image a model dictionary predicts.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import StateGeometry
from repro.errors import CorruptCheckpointError, NoConsistentCheckpointError
from repro.storage import layout
from repro.storage.checkpoint_log import CheckpointLogStore
from repro.storage.double_backup import DoubleBackupStore
from repro.storage.layout import (
    GEOMETRY_BYTES,
    RECORD_CHECKPOINT_BEGIN,
    RECORD_CHECKPOINT_COMMIT,
    RECORD_HEADER_BYTES,
    RECORD_OBJECTS,
    unpack_record_header,
)

GEOMETRY = StateGeometry(rows=4, columns=8, cell_bytes=4, object_bytes=32)
NUM_OBJECTS = GEOMETRY.num_objects  # 4


def payload_for(ids, fill):
    cells = GEOMETRY.cells_per_object
    data = np.zeros((len(ids), cells), dtype=np.uint32)
    for slot, object_id in enumerate(ids):
        data[slot] = fill * 100 + int(object_id)
    return data.tobytes()


def image_cells(image):
    return np.frombuffer(image, dtype=np.uint32).reshape(
        NUM_OBJECTS, GEOMETRY.cells_per_object
    )


checkpoint_scripts = st.lists(
    st.tuples(
        # Objects written by this checkpoint (the first one is forced full).
        st.lists(
            st.integers(min_value=0, max_value=NUM_OBJECTS - 1),
            min_size=0, max_size=NUM_OBJECTS,
        ).map(lambda v: sorted(set(v))),
        # Whether this checkpoint commits or the crash hits first.
        st.booleans(),
    ),
    min_size=1,
    max_size=8,
)


class TestDoubleBackupInvariant:
    @given(script=checkpoint_scripts)
    @settings(max_examples=60, deadline=None)
    def test_one_consistent_image_always_recoverable(self, script, tmp_path_factory):
        directory = tmp_path_factory.mktemp("double")
        model = {}          # object -> value of the last *committed* cut
        committed_cuts = [] # (epoch, model snapshot at commit)
        with DoubleBackupStore(directory, GEOMETRY) as store:
            live = {object_id: 0 for object_id in range(NUM_OBJECTS)}
            epoch = 0
            backup = 0
            for ids, commits in script:
                epoch += 1
                if epoch == 1:
                    ids = list(range(NUM_OBJECTS))  # cold start writes all
                # The checkpoint captures the live values of its write set.
                store.begin_checkpoint(backup, epoch)
                store.write_objects(
                    np.array(ids, dtype=np.int64),
                    payload_for(ids, epoch),
                )
                for object_id in ids:
                    live[object_id] = epoch
                if not commits:
                    break  # crash mid-checkpoint
                store.commit_checkpoint(tick=epoch)
                committed_cuts.append((epoch, dict(live)))
                backup = 1 - backup
        # Reopen after the "crash" and recover.
        with DoubleBackupStore(directory, GEOMETRY) as store:
            if not committed_cuts:
                with pytest.raises(NoConsistentCheckpointError):
                    store.latest_consistent()
                return
            found = store.latest_consistent()
            # The recovered image corresponds to SOME committed cut -- at
            # worst the previous one, never a torn mixture.
            epochs = [cut_epoch for cut_epoch, _ in committed_cuts]
            assert found.epoch in epochs

    @given(script=checkpoint_scripts)
    @settings(max_examples=40, deadline=None)
    def test_committed_backup_content_matches_model(self, script,
                                                    tmp_path_factory):
        """The recovered backup's content is exactly the dirty-set overlay
        the model predicts for that backup."""
        directory = tmp_path_factory.mktemp("double")
        per_backup_model = {0: {}, 1: {}}
        committed = {}
        with DoubleBackupStore(directory, GEOMETRY) as store:
            epoch = 0
            backup = 0
            for ids, commits in script:
                epoch += 1
                if epoch == 1:
                    ids = list(range(NUM_OBJECTS))
                store.begin_checkpoint(backup, epoch)
                store.write_objects(
                    np.array(ids, dtype=np.int64), payload_for(ids, epoch)
                )
                for object_id in ids:
                    per_backup_model[backup][object_id] = epoch * 100 + object_id
                if not commits:
                    break
                store.commit_checkpoint(tick=epoch)
                committed[backup] = dict(per_backup_model[backup])
                backup = 1 - backup
        with DoubleBackupStore(directory, GEOMETRY) as store:
            for backup_index, model in committed.items():
                header = store.header(backup_index)
                if header.state != 2:  # not COMPLETE; was torn later
                    continue
                cells = image_cells(store.read_image(backup_index))
                for object_id, value in model.items():
                    assert cells[object_id, 0] == value


class TestCheckpointLogModel:
    @given(script=checkpoint_scripts)
    @settings(max_examples=60, deadline=None)
    def test_restore_matches_model_replay(self, script, tmp_path_factory):
        directory = tmp_path_factory.mktemp("log")
        model = {}
        committed_model = None
        committed_epoch = 0
        with CheckpointLogStore(directory, GEOMETRY) as store:
            epoch = 0
            for ids, commits in script:
                epoch += 1
                full = epoch == 1
                if full:
                    ids = list(range(NUM_OBJECTS))
                store.begin_checkpoint(epoch, is_full_dump=full)
                store.append_objects(
                    np.array(ids, dtype=np.int64), payload_for(ids, epoch)
                )
                staged = dict(model)
                for object_id in ids:
                    staged[object_id] = epoch * 100 + object_id
                if not commits:
                    break
                store.commit_checkpoint(tick=epoch)
                model = staged
                committed_model = dict(model)
                committed_epoch = epoch
        with CheckpointLogStore(directory, GEOMETRY) as store:
            if committed_model is None:
                with pytest.raises(NoConsistentCheckpointError):
                    store.restore_image()
                return
            image, epoch, _tick = store.restore_image()
            assert epoch == committed_epoch
            cells = image_cells(image)
            for object_id, value in committed_model.items():
                assert cells[object_id, 0] == value


# ----------------------------------------------------------------------
# Backwards restore == forward oracle, on damaged logs too
# ----------------------------------------------------------------------

#: The geometry record every log starts with; damage is kept off it (a log
#: without one cannot be opened at all).
LOG_PREAMBLE = RECORD_HEADER_BYTES + GEOMETRY_BYTES


def forward_oracle(data: bytes):
    """Reference restore of a log's raw bytes, the way the paper's reader is
    first described: the valid prefix by CRC, then every committed
    checkpoint's runs applied oldest first into zeros."""
    offset, current, committed = 0, None, []
    while offset + RECORD_HEADER_BYTES <= len(data):
        header = data[offset: offset + RECORD_HEADER_BYTES]
        try:
            kind, a, b, length, checksum = unpack_record_header(header)
        except CorruptCheckpointError:
            break
        offset += RECORD_HEADER_BYTES
        payload = data[offset: offset + length]
        if len(payload) < length:
            break
        if zlib.crc32(header[:-4] + payload) & 0xFFFFFFFF != checksum:
            break
        offset += length
        if kind == RECORD_CHECKPOINT_BEGIN and a != 0:
            current = (a, [])
        elif current is not None and a == current[0]:
            if kind == RECORD_OBJECTS:
                current[1].append((b, payload))
            elif kind == RECORD_CHECKPOINT_COMMIT:
                committed.append((a, b, current[1]))
                current = None
    if not committed:
        raise NoConsistentCheckpointError("oracle: nothing committed")
    rows = np.zeros((NUM_OBJECTS, GEOMETRY.object_bytes), dtype=np.uint8)
    for _epoch, _tick, runs in committed:
        for count, payload in runs:
            ids = np.frombuffer(payload, dtype=np.int64, count=count)
            values = np.frombuffer(payload, dtype=np.uint8, offset=8 * count)
            for slot, object_id in enumerate(ids):
                rows[object_id] = values.reshape(count, -1)[slot]
    epoch, tick, _runs = committed[-1]
    return rows.tobytes(), epoch, tick


def outcome(restore):
    """``(image bytes, epoch, tick)`` of a restore call, or None when it
    finds no consistent checkpoint."""
    try:
        image, epoch, tick = restore()
    except NoConsistentCheckpointError:
        return None
    return bytes(image), epoch, tick


object_runs = st.lists(
    # Ids in any order, duplicates within the run allowed.
    st.lists(st.integers(0, NUM_OBJECTS - 1), min_size=1,
             max_size=NUM_OBJECTS + 2),
    min_size=0, max_size=3,
)
log_scripts = st.lists(
    st.tuples(
        st.booleans(),                       # full dump?
        object_runs,                         # extra runs of this checkpoint
        st.sampled_from(["commit", "commit", "commit", "abort"]),
    ),
    min_size=1, max_size=7,
)
damages = st.one_of(
    st.none(),
    st.tuples(st.just("flip"), st.floats(0, 1, exclude_max=True),
              st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.floats(0, 1, exclude_max=True),
              st.just(0)),
)


class TestBackwardsRestoreMatchesForwardOracle:
    @given(script=log_scripts, tail=object_runs, damage=damages)
    @settings(max_examples=150, deadline=None)
    def test_restore_equals_oracle(self, script, tail, damage,
                                   tmp_path_factory):
        directory = tmp_path_factory.mktemp("oracle")
        fill = 0

        def append_runs(store, runs):
            nonlocal fill
            for ids in runs:
                fill += 1
                # Payload bytes stay below 0x20: damage aside, nothing in a
                # payload can pass for a record's magic.
                payload = np.full(
                    (len(ids), GEOMETRY.object_bytes), fill % 32, np.uint8
                )
                payload[:, 0] = np.arange(len(ids)) % 32
                store.append_objects(
                    np.array(ids, dtype=np.int64), payload.tobytes()
                )

        with CheckpointLogStore(directory, GEOMETRY) as store:
            for epoch, (full, runs, ending) in enumerate(script, start=1):
                store.begin_checkpoint(epoch, is_full_dump=full)
                if full:
                    append_runs(store, [list(range(NUM_OBJECTS))])
                append_runs(store, runs)
                if ending == "commit":
                    store.commit_checkpoint(tick=epoch * 3)
                else:
                    store.abort_checkpoint()
            if tail:
                store.begin_checkpoint(len(script) + 1, is_full_dump=False)
                append_runs(store, tail)  # the crash comes before COMMIT
            path = store.path
        with open(path, "rb") as handle:
            clean = handle.read()
        data = clean
        if damage is not None:
            kind, where, mask = damage
            at = LOG_PREAMBLE + int(where * (len(clean) - LOG_PREAMBLE))
            if kind == "flip":
                data = clean[:at] + bytes([clean[at] ^ mask]) + clean[at + 1:]
            else:
                data = clean[:at]
            with open(path, "wb") as handle:
                handle.write(data)
        expected = outcome(lambda: forward_oracle(data))

        with CheckpointLogStore(directory, GEOMETRY) as store:
            restored = outcome(store.restore_image)
            dirty = bytearray(b"\xEE" * GEOMETRY.checkpoint_bytes)
            into_dirty = outcome(lambda: store.restore_image(out=dirty))
            try:
                latest = store.latest_committed()
            except NoConsistentCheckpointError:
                latest = None
        assert into_dirty == restored
        undamaged = outcome(lambda: forward_oracle(clean))
        # latest_committed verifies the whole trusted range where the restore
        # may stop early, so each is held to the oracle on its own.
        for got, want, intact in (
            (restored, expected, undamaged),
            (latest, expected and expected[1:], undamaged and undamaged[1:]),
        ):
            if got != want:
                # Only a flipped byte the reader never had to trust (older
                # than its stop point) may be overlooked, and then the
                # answer is the undamaged log's.
                assert damage is not None and damage[0] == "flip"
                assert got == intact


# ----------------------------------------------------------------------
# Direct reads: contiguous runs land straight in the image
# ----------------------------------------------------------------------

contiguous_runs = st.tuples(
    st.integers(0, NUM_OBJECTS - 1), st.integers(1, NUM_OBJECTS)
).map(lambda run: list(range(run[0], min(NUM_OBJECTS, sum(run)))))
mixed_runs = st.lists(
    st.one_of(
        contiguous_runs,
        # Ascending with gaps, and any order with duplicates.
        st.sets(st.integers(0, NUM_OBJECTS - 1), min_size=1).map(sorted),
        object_runs.filter(bool).map(lambda runs: runs[0]),
    ),
    max_size=2,
)
direct_scripts = st.lists(
    st.tuples(
        st.booleans(),                       # full dump?
        mixed_runs,                          # runs before the sorted run
        mixed_runs,                          # runs after it
        st.sampled_from(["commit", "commit", "commit", "abort"]),
    ),
    min_size=1, max_size=6,
)
direct_damages = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(["ids", "rows"]), st.integers(0, 63),
              st.floats(0, 1, exclude_max=True), st.integers(1, 255)),
)


def direct_reads(data: bytes):
    """``(ids_start, rows_start, rows_end)`` of every OBJECTS record of a
    committed checkpoint whose ids are one ascending contiguous run: the
    records a restore reads straight into the image."""
    offset, records, committed = LOG_PREAMBLE, [], set()
    while offset + RECORD_HEADER_BYTES <= len(data):
        kind, a, b, length, _ = unpack_record_header(
            data[offset: offset + RECORD_HEADER_BYTES]
        )
        body = offset + RECORD_HEADER_BYTES
        if kind == RECORD_CHECKPOINT_COMMIT:
            committed.add(a)
        elif kind == RECORD_OBJECTS:
            ids = np.frombuffer(data, np.int64, count=b, offset=body)
            if np.array_equal(ids, np.arange(ids[0], ids[0] + b)):
                records.append((a, body, body + 8 * b, body + length))
        offset = body + length
    return [run for epoch, *run in records if epoch in committed]


class TestDirectReadsMatchForwardOracle:
    @given(script=direct_scripts, damage=direct_damages)
    @settings(max_examples=120, deadline=None)
    def test_restore_equals_oracle(self, script, damage, tmp_path_factory):
        """Contiguous runs at any offset, in partials and in full dumps
        whose sorted run is not their first, with a flipped byte in a
        record the restore reads straight into a fresh or a dirty image."""
        self.check(script, damage, tmp_path_factory)

    @given(script=direct_scripts, damage=direct_damages)
    @settings(max_examples=120, deadline=None)
    def test_restore_on_two_readers_equals_oracle(
        self, script, damage, tmp_path_factory
    ):
        """The same with every batch of records split over two readers."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(layout, "SPLIT_READ_BYTES", 0)
            self.check(script, damage, tmp_path_factory)

    def check(self, script, damage, tmp_path_factory):
        directory = tmp_path_factory.mktemp("direct")
        fill = 0
        with CheckpointLogStore(directory, GEOMETRY) as store:
            for epoch, (full, before, after, ending) in enumerate(
                script, start=1
            ):
                store.begin_checkpoint(epoch, is_full_dump=full)
                runs = before + [list(range(NUM_OBJECTS))] * full + after
                for ids in runs:
                    fill += 1
                    # Bytes below 0x20: nothing passes for a record's magic.
                    payload = np.full(
                        (len(ids), GEOMETRY.object_bytes), fill % 32, np.uint8
                    )
                    payload[:, 0] = np.arange(len(ids)) % 32
                    store.append_objects(
                        np.array(ids, dtype=np.int64), payload.tobytes()
                    )
                if ending == "commit":
                    store.commit_checkpoint(tick=epoch * 3)
                else:
                    store.abort_checkpoint()
            path = store.path
        with open(path, "rb") as handle:
            data = handle.read()
        targets = direct_reads(data)
        if damage is not None and targets:
            part, pick, where, mask = damage
            ids_at, rows_at, end = targets[pick % len(targets)]
            low, high = (ids_at, rows_at) if part == "ids" else (rows_at, end)
            at = low + int(where * (high - low))
            data = data[:at] + bytes([data[at] ^ mask]) + data[at + 1:]
            with open(path, "wb") as handle:
                handle.write(data)
        expected = outcome(lambda: forward_oracle(data))

        with CheckpointLogStore(directory, GEOMETRY) as store:
            restored = outcome(store.restore_image)
            dirty = bytearray(b"\xEE" * GEOMETRY.checkpoint_bytes)
            into_dirty = outcome(lambda: store.restore_image(out=dirty))
        assert restored == expected
        assert into_dirty == expected
