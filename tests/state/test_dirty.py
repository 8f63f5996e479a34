"""Tests for the dirty-tracking structures."""

from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import ConfigurationError
from repro.state import dirty
from repro.state.dirty import (
    DoubleBackupBits,
    EpochSet,
    PolarityBitmap,
    StripeLockSet,
    unique_ids,
)


class TestUniqueIds:
    def test_sorted_distinct_flattened(self):
        ids = np.array([[9, 2], [2, 0]], dtype=np.int32)
        result = unique_ids(ids)
        assert result.tolist() == [0, 2, 9]
        assert result.dtype == np.int32
        assert ids.tolist() == [[9, 2], [2, 0]]

    def test_hash_unique_stays_off_the_tick_and_restore_paths(self):
        """numpy >= 2.3's ``np.unique`` hashes before it sorts; on the
        engine, state and storage paths every dedupe is ``unique_ids``."""
        package = Path(repro.__file__).parent
        offenders = [
            f"{path.relative_to(package)}:{number}"
            for layer in ("engine", "state", "storage")
            for path in sorted((package / layer).rglob("*.py"))
            if path != Path(dirty.__file__)
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if "np.unique(" in line
        ]
        assert offenders == []

    def test_no_dedupe_or_sort_on_the_server_tick_path(self):
        """``run_tick`` hands one object id per update to Handle-Update;
        the first-touch stamp test is the dedupe."""
        text = (Path(repro.__file__).parent / "engine/server.py").read_text()
        for call in ("unique_ids(", "np.unique(", "np.sort("):
            assert call not in text
        assert "import unique_ids" not in text


class TestPolarityBitmap:
    def test_starts_clear(self):
        bitmap = PolarityBitmap(8)
        assert bitmap.count_set() == 0
        assert not bitmap.test([0, 3, 7]).any()

    def test_fill_starts_set(self):
        bitmap = PolarityBitmap(8, fill=True)
        assert bitmap.count_set() == 8
        assert bitmap.test([0, 7]).all()

    def test_set_and_clear(self):
        bitmap = PolarityBitmap(10)
        bitmap.set([1, 3, 5])
        assert bitmap.test([1, 3, 5]).all()
        assert not bitmap.test([0, 2, 4]).any()
        bitmap.clear([3])
        assert bitmap.test([1]).all()
        assert not bitmap.test([3]).any()

    def test_set_ids_sorted(self):
        bitmap = PolarityBitmap(10)
        bitmap.set([7, 2, 5])
        assert bitmap.set_ids().tolist() == [2, 5, 7]

    def test_flip_all_inverts(self):
        bitmap = PolarityBitmap(6)
        bitmap.set([0, 1])
        bitmap.flip_all()
        assert bitmap.set_ids().tolist() == [2, 3, 4, 5]

    def test_flip_all_is_o1_clear_when_all_set(self):
        bitmap = PolarityBitmap(6)
        bitmap.set_all()
        bitmap.flip_all()
        assert bitmap.count_set() == 0
        # And the map is fully usable afterwards.
        bitmap.set([4])
        assert bitmap.set_ids().tolist() == [4]

    def test_double_flip_is_identity(self):
        bitmap = PolarityBitmap(5)
        bitmap.set([1, 4])
        before = bitmap.values()
        bitmap.flip_all()
        bitmap.flip_all()
        assert np.array_equal(bitmap.values(), before)

    def test_set_all_clear_all(self):
        bitmap = PolarityBitmap(4)
        bitmap.set_all()
        assert bitmap.count_set() == 4
        bitmap.clear_all()
        assert bitmap.count_set() == 0

    def test_values_returns_copy(self):
        bitmap = PolarityBitmap(4)
        values = bitmap.values()
        values[0] = True
        assert bitmap.count_set() == 0

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            PolarityBitmap(0)


class TestEpochSet:
    def test_starts_empty(self):
        epoch_set = EpochSet(8)
        assert epoch_set.count() == 0
        assert not epoch_set.contains([0, 7]).any()

    def test_add_new_reports_fresh_only(self):
        epoch_set = EpochSet(8)
        fresh = epoch_set.add_new(np.array([1, 2, 3]))
        assert fresh.tolist() == [1, 2, 3]
        fresh = epoch_set.add_new(np.array([2, 3, 4]))
        assert fresh.tolist() == [4]

    @pytest.mark.parametrize(
        "ids, members, expected",
        [
            ([], [], []),                                    # empty
            ([5, 1, 3], [], [1, 3, 5]),                      # all fresh
            ([5, 1, 3, 1], [1, 3, 5], []),                   # none fresh
            ([4, 4, 2, 2, 7, 7], [2], [4, 7]),               # all repeated
            ([7, 0, 7, 3, 0, 6, 3, 7], [6], [0, 3, 7]),      # unsorted
        ],
    )
    def test_add_new_with_repeats_is_ascending_and_unique(
        self, ids, members, expected
    ):
        epoch_set = EpochSet(8)
        epoch_set.add(np.array(members, dtype=np.int64))
        ids = np.array(ids, dtype=np.int64)
        ids.setflags(write=False)   # plan buffers are reused, never written
        before = ids.copy()
        fresh = epoch_set.add_new(ids)
        assert fresh.tolist() == expected
        assert fresh.dtype == np.int64
        assert np.array_equal(ids, before)
        assert epoch_set.members().tolist() == sorted(
            set(members) | set(before.tolist())
        )
        # Second call in the same epoch: every id is a member now.
        assert epoch_set.add_new(ids).size == 0

    def test_reset_is_o1_empty(self):
        epoch_set = EpochSet(8)
        epoch_set.add([0, 1, 2, 3, 4, 5, 6, 7])
        epoch_set.reset()
        assert epoch_set.count() == 0
        fresh = epoch_set.add_new(np.array([0, 1]))
        assert fresh.tolist() == [0, 1]

    def test_members_sorted(self):
        epoch_set = EpochSet(10)
        epoch_set.add([9, 0, 4])
        assert epoch_set.members().tolist() == [0, 4, 9]

    def test_many_resets_do_not_alias(self):
        epoch_set = EpochSet(4)
        for _ in range(1000):
            epoch_set.add([2])
            epoch_set.reset()
        assert epoch_set.count() == 0

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            EpochSet(0)


class TestDoubleBackupBits:
    def test_everything_initially_dirty_for_both(self):
        bits = DoubleBackupBits(5)
        assert bits.dirty_counts() == (5, 5)

    def test_first_checkpoint_writes_everything(self):
        bits = DoubleBackupBits(5)
        write_set = bits.begin_checkpoint()
        assert write_set.tolist() == [0, 1, 2, 3, 4]

    def test_alternation(self):
        bits = DoubleBackupBits(4)
        assert bits.current_backup == 0
        bits.begin_checkpoint()
        bits.finish_checkpoint()
        assert bits.current_backup == 1
        bits.begin_checkpoint()
        bits.finish_checkpoint()
        assert bits.current_backup == 0

    def test_update_dirties_both_backups(self):
        bits = DoubleBackupBits(4)
        bits.begin_checkpoint()          # clears backup 0's bits
        bits.finish_checkpoint()
        bits.begin_checkpoint()          # clears backup 1's bits
        bits.finish_checkpoint()
        assert bits.dirty_counts() == (0, 0)
        bits.mark_updated(np.array([2]))
        assert bits.dirty_counts() == (1, 1)

    def test_update_during_checkpoint_redirties_current_backup(self):
        bits = DoubleBackupBits(4)
        bits.begin_checkpoint()           # backup 0 write set = all, cleared
        bits.mark_updated(np.array([1]))  # arrives mid-checkpoint
        bits.finish_checkpoint()
        # Two checkpoints later we are back on backup 0: object 1 must be in
        # its write set again (backup 0's image holds the pre-update value).
        bits.begin_checkpoint()           # backup 1
        bits.finish_checkpoint()
        write_set = bits.begin_checkpoint()  # backup 0 again
        assert 1 in write_set.tolist()

    def test_steady_state_writes_only_dirty(self):
        bits = DoubleBackupBits(6)
        for _ in range(2):  # flush both backups completely
            bits.begin_checkpoint()
            bits.finish_checkpoint()
        bits.mark_updated(np.array([0, 5]))
        write_set = bits.begin_checkpoint()
        assert write_set.tolist() == [0, 5]
        bits.finish_checkpoint()


class TestStripeLockSet:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StripeLockSet(0)
        with pytest.raises(ConfigurationError):
            StripeLockSet(8, num_stripes=0)

    def test_stripes_clamped_to_object_count(self):
        assert StripeLockSet(4, num_stripes=64).num_stripes == 4

    def test_stripes_of_is_sorted_unique(self):
        locks = StripeLockSet(32, num_stripes=4)
        stripes = locks.stripes_of(np.array([31, 0, 8, 9, 0]))
        assert stripes.tolist() == sorted(set(stripes.tolist()))
        # Range partition: contiguous ids share a stripe.
        assert locks.stripes_of(np.array([0, 1])).size == 1

    def test_acquire_release_round_trip(self):
        locks = StripeLockSet(32, num_stripes=4)
        ids = np.array([0, 15, 31])
        stripes = locks.acquire(ids)
        assert all(locks._locks[s].locked() for s in stripes)
        locks.release(stripes)
        assert not any(lock.locked() for lock in locks._locks)

    def test_locked_context_manager(self):
        locks = StripeLockSet(32, num_stripes=8)
        with locks.locked(np.array([3, 20])) as stripes:
            assert all(locks._locks[s].locked() for s in stripes)
        assert not any(lock.locked() for lock in locks._locks)

    def test_overlapping_batches_exclude_each_other(self):
        import threading

        locks = StripeLockSet(32, num_stripes=4)
        order = []

        def contender():
            with locks.locked(np.array([1])):
                order.append("contender")

        with locks.locked(np.array([0, 1])):
            thread = threading.Thread(target=contender)
            thread.start()
            thread.join(timeout=0.2)
            assert thread.is_alive()  # blocked on the shared stripe
            order.append("holder")
        thread.join(timeout=5.0)
        assert order == ["holder", "contender"]
