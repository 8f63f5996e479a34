"""Behavioural tests for Dribble-and-Copy-on-Update."""

import numpy as np

from repro.core.algorithms import DribbleAndCopyOnUpdate
from repro.core.plan import DiskLayout


class TestDribble:
    def test_classification(self):
        assert not DribbleAndCopyOnUpdate.eager_copy
        assert not DribbleAndCopyOnUpdate.copies_dirty_only
        assert DribbleAndCopyOnUpdate.layout is DiskLayout.LOG

    def test_no_eager_copy_but_writes_everything(self):
        policy = DribbleAndCopyOnUpdate(16)
        plan = policy.begin_checkpoint()
        assert plan.eager_copy_ids.size == 0
        assert plan.writes_everything()
        # Every checkpoint is the full dump it is, so a log store keeps
        # only the newest.
        assert plan.is_full_dump

    def test_copy_exactly_once_per_checkpoint(self):
        """The paper's critical property: "each object is copied exactly once
        per checkpoint, regardless of how many times it is updated"."""
        policy = DribbleAndCopyOnUpdate(16)
        policy.begin_checkpoint()
        first = policy.handle_updates(np.array([3, 4]), 2)
        assert first.copy_ids.tolist() == [3, 4]
        again = policy.handle_updates(np.array([3, 4, 5]), 3)
        assert again.copy_ids.tolist() == [5]
        assert again.lock_count == 1
        assert again.bit_tests == 3

    def test_bits_reset_between_checkpoints(self):
        policy = DribbleAndCopyOnUpdate(16)
        policy.begin_checkpoint()
        policy.handle_updates(np.array([3]), 1)
        policy.finish_checkpoint()
        policy.begin_checkpoint()
        effects = policy.handle_updates(np.array([3]), 1)
        assert effects.copy_ids.tolist() == [3]

    def test_no_copy_before_first_checkpoint(self):
        policy = DribbleAndCopyOnUpdate(16)
        effects = policy.handle_updates(np.array([1]), 1)
        assert effects.copy_count == 0
        assert effects.bit_tests == 0

    def test_all_first_touches_copy_even_with_many_updates(self):
        policy = DribbleAndCopyOnUpdate(8)
        policy.begin_checkpoint()
        effects = policy.handle_updates(np.arange(8), 1000)
        assert effects.copy_count == 8
        assert effects.bit_tests == 1000
