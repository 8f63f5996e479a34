"""Property tests: dirty-tracking structures behave like their models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.state.dirty import (
    DoubleBackupBits,
    EpochSet,
    PolarityBitmap,
    unique_ids,
)

SIZE = 64

ids_arrays = st.lists(
    st.integers(min_value=0, max_value=SIZE - 1), min_size=0, max_size=12
).map(lambda values: np.array(sorted(set(values)), dtype=np.int64))

operations = st.lists(
    st.tuples(st.sampled_from(["set", "clear", "flip", "set_all", "clear_all"]),
              ids_arrays),
    min_size=0,
    max_size=30,
)


@st.composite
def raw_id_arrays(draw):
    """An id array in one of the shapes callers hand over: fresh, a strided
    view of a longer buffer, or read-only."""
    dtype = draw(st.sampled_from([np.int32, np.int64, np.uint32]))
    low = 0 if dtype is np.uint32 else -40
    # A narrow range forces duplicates; the wide one reaches the dtype's top.
    high = draw(st.sampled_from([3, 40, int(np.iinfo(dtype).max)]))
    values = draw(st.lists(st.integers(low, high), max_size=48))
    array = np.array(values, dtype=dtype)
    shape = draw(st.sampled_from(["owned", "strided", "read-only"]))
    if shape == "strided":
        array = np.repeat(array, 3)[::3]
    elif shape == "read-only":
        array.setflags(write=False)
    return array


class TestUniqueIds:
    @given(raw_id_arrays())
    @settings(max_examples=200, deadline=None)
    def test_equals_np_unique_and_leaves_the_input_alone(self, ids):
        before = ids.copy()
        result = unique_ids(ids)
        expected = np.unique(ids)
        assert result.dtype == expected.dtype
        assert result.tolist() == expected.tolist()
        assert not np.shares_memory(result, ids)
        assert ids.tolist() == before.tolist()

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint32])
    @pytest.mark.parametrize("length", [0, 1, 5])
    def test_empty_single_and_all_equal(self, dtype, length):
        result = unique_ids(np.full(length, 7, dtype=dtype))
        assert result.dtype == dtype
        assert result.tolist() == [7][:length]


class TestPolarityBitmapModel:
    @given(operations)
    @settings(max_examples=60, deadline=None)
    def test_matches_python_set_model(self, ops):
        """Invariant 4 of DESIGN.md: polarity inversion is observationally a
        complement; set/clear behave like a plain set."""
        bitmap = PolarityBitmap(SIZE)
        model = set()
        for op, ids in ops:
            if op == "set":
                bitmap.set(ids)
                model |= set(ids.tolist())
            elif op == "clear":
                bitmap.clear(ids)
                model -= set(ids.tolist())
            elif op == "flip":
                bitmap.flip_all()
                model = set(range(SIZE)) - model
            elif op == "set_all":
                bitmap.set_all()
                model = set(range(SIZE))
            else:
                bitmap.clear_all()
                model = set()
        assert set(bitmap.set_ids().tolist()) == model
        assert bitmap.count_set() == len(model)

    @given(ids_arrays)
    @settings(max_examples=40, deadline=None)
    def test_flip_when_full_equals_clear(self, ids):
        """The Dribble trick: once every bit is set, an O(1) flip is exactly
        a clear-all."""
        flipped = PolarityBitmap(SIZE)
        cleared = PolarityBitmap(SIZE)
        flipped.set_all()
        cleared.set_all()
        flipped.flip_all()
        cleared.clear_all()
        flipped.set(ids)
        cleared.set(ids)
        assert np.array_equal(flipped.values(), cleared.values())


class TestEpochSetModel:
    @given(
        st.lists(
            st.tuples(st.sampled_from(["add", "reset"]), ids_arrays),
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_python_set_model(self, ops):
        epoch_set = EpochSet(SIZE)
        model = set()
        for op, ids in ops:
            if op == "add":
                fresh = epoch_set.add_new(ids)
                expected_fresh = set(ids.tolist()) - model
                assert set(fresh.tolist()) == expected_fresh
                model |= set(ids.tolist())
            else:
                epoch_set.reset()
                model = set()
        assert set(epoch_set.members().tolist()) == model
        assert epoch_set.count() == len(model)


class TestDoubleBackupBitsModel:
    @given(
        st.lists(
            st.tuples(st.sampled_from(["mark", "begin", "finish"]),
                      raw_id_arrays()),
            max_size=40,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_two_set_model(self, script):
        """One word per object behaves like two sets of dirty ids, one per
        backup: a mark adds to both, a checkpoint to backup ``b`` empties
        set ``b`` and writes what it held."""
        bits = DoubleBackupBits(SIZE)
        dirty = [set(range(SIZE)), set(range(SIZE))]
        current = 0
        for op, ids in script:
            if op == "mark":
                ids = ids[(ids >= 0) & (ids < SIZE)]
                bits.mark_updated(ids)
                for backup in dirty:
                    backup |= set(ids.tolist())
            elif op == "begin":
                write_set = bits.begin_checkpoint()
                assert write_set.tolist() == sorted(dirty[current])
                dirty[current] = set()
            else:
                bits.finish_checkpoint()
                current = 1 - current
            assert bits.current_backup == current
            assert bits.dirty_counts() == (len(dirty[0]), len(dirty[1]))
