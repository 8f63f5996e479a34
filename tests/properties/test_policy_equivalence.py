"""Property: Handle-Update takes object ids as the tick produced them.

``DurableGameServer.run_tick`` hands every policy one object id per cell
update -- unsorted, with repeats -- and relies on the first-touch stamp test
to dedupe.  For all six registered policies and random begin / handle /
finish schedules, ``handle_updates(ids)`` must be indistinguishable from
``handle_updates(unique_ids(ids))``: equal :class:`UpdateEffects` (sorted,
unique, same dtype), equal checkpoint plans, and equal dirty / epoch state.
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import ALGORITHM_KEYS, make_policy
from repro.state.dirty import unique_ids

NUM_OBJECTS = 24

# Raw per-update ids: any order, repeats likely (24 objects, up to 40 ids).
raw_ids = st.lists(
    st.integers(min_value=0, max_value=NUM_OBJECTS - 1), min_size=0, max_size=40
).map(lambda values: np.array(values, dtype=np.int64))

steps = st.lists(
    st.one_of(
        st.tuples(st.just("updates"), raw_ids),
        st.tuples(st.just("begin"), st.none()),
        st.tuples(st.just("finish"), st.none()),
    ),
    min_size=1,
    max_size=40,
)


def assert_same_ids(left, right):
    if left is None or right is None:
        assert left is None and right is None
        return
    assert left.dtype == right.dtype
    assert np.array_equal(left, right)


class TestRepeatedIdsEquivalence:
    @given(st.sampled_from(ALGORITHM_KEYS), steps)
    @settings(max_examples=300, deadline=None)
    def test_raw_ids_equal_deduped_ids(self, key, schedule):
        raw = make_policy(key, NUM_OBJECTS, full_dump_period=3)
        deduped = make_policy(key, NUM_OBJECTS, full_dump_period=3)
        for op, ids in schedule:
            if op == "begin":
                if raw.checkpoint_active:
                    continue
                got, want = raw.begin_checkpoint(), deduped.begin_checkpoint()
                assert got.checkpoint_index == want.checkpoint_index
                assert got.is_full_dump == want.is_full_dump
                assert_same_ids(got.write_ids, want.write_ids)
                assert_same_ids(got.eager_copy_ids, want.eager_copy_ids)
            elif op == "finish":
                if raw.checkpoint_active:
                    raw.finish_checkpoint()
                    deduped.finish_checkpoint()
            else:
                ids.setflags(write=False)
                count = int(ids.size)
                got = raw.handle_updates(ids, count)
                want = deduped.handle_updates(unique_ids(ids), count)
                assert got.bit_tests == want.bit_tests
                assert_same_ids(got.first_touch_ids, want.first_touch_ids)
                assert_same_ids(got.copy_ids, want.copy_ids)
                first = got.first_touch_ids
                assert np.all(first[1:] > first[:-1])
            # Dirty bits, write masks, epoch stamps, counters: everything.
            assert pickle.dumps(raw) == pickle.dumps(deduped)
