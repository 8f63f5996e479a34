"""Behavioural tests for Partial-Redo."""

import numpy as np
import pytest

from repro.core.algorithms import CopyOnUpdatePartialRedo, PartialRedo
from repro.core.plan import DiskLayout


class TestPartialRedo:
    def test_classification(self):
        assert PartialRedo.eager_copy
        assert PartialRedo.copies_dirty_only
        assert PartialRedo.layout is DiskLayout.LOG

    def test_writes_dirty_objects_to_log(self):
        policy = PartialRedo(16, full_dump_period=100)
        policy.begin_checkpoint()   # cold start: everything
        policy.finish_checkpoint()
        policy.handle_updates(np.array([4]), 1)
        plan = policy.begin_checkpoint()
        assert plan.write_ids.tolist() == [4]
        assert plan.eager_copy_ids.tolist() == [4]
        assert not plan.is_full_dump

    def test_full_dump_every_c_checkpoints(self):
        policy = PartialRedo(16, full_dump_period=3)
        dumps = []
        for _ in range(9):
            plan = policy.begin_checkpoint()
            dumps.append(plan.is_full_dump)
            policy.finish_checkpoint()
        assert dumps == [False, False, True] * 3

    def test_full_dump_uses_dribble_semantics(self):
        """No eager copy during the full dump; old values saved on update."""
        policy = PartialRedo(16, full_dump_period=1)
        plan = policy.begin_checkpoint()
        assert plan.is_full_dump
        assert plan.eager_copy_ids.size == 0
        assert plan.writes_everything()
        effects = policy.handle_updates(np.array([3]), 1)
        assert effects.copy_ids.tolist() == [3]
        assert effects.lock_count == 1

    def test_partial_checkpoints_do_not_copy_on_update(self):
        policy = PartialRedo(16, full_dump_period=100)
        policy.begin_checkpoint()
        policy.finish_checkpoint()
        policy.handle_updates(np.array([4]), 1)
        policy.begin_checkpoint()
        effects = policy.handle_updates(np.array([5]), 1)
        assert effects.copy_count == 0
        assert effects.lock_count == 0
        assert effects.bit_tests == 1

    def test_updates_during_full_dump_stay_dirty(self):
        policy = PartialRedo(16, full_dump_period=2)
        policy.begin_checkpoint()            # partial (cold: everything)
        policy.finish_checkpoint()
        plan = policy.begin_checkpoint()     # full dump (index 1, C=2)
        assert plan.is_full_dump
        policy.handle_updates(np.array([9]), 1)
        policy.finish_checkpoint()
        plan = policy.begin_checkpoint()     # partial again
        assert plan.write_ids.tolist() == [9]

    def test_dirty_set_cleared_after_checkpoint(self):
        policy = PartialRedo(16, full_dump_period=100)
        policy.begin_checkpoint()
        policy.finish_checkpoint()
        policy.handle_updates(np.array([2]), 1)
        policy.begin_checkpoint()
        policy.finish_checkpoint()
        plan = policy.begin_checkpoint()
        assert plan.write_ids.size == 0


@pytest.mark.parametrize("policy_class", [PartialRedo, CopyOnUpdatePartialRedo])
class TestBoundedFullDumps:
    """Without a period, a full dump comes once the objects the partials
    wrote since the last one, plus the next write set, reach the state."""

    def run(self, policy, updates):
        plans = []
        for ids in updates:
            policy.handle_updates(np.array(ids, dtype=np.int64), len(ids))
            plans.append(policy.begin_checkpoint())
            policy.finish_checkpoint()
        return plans

    def test_first_checkpoint_is_a_flagged_full_dump(self, policy_class):
        plan = policy_class(16, full_dump_period=None).begin_checkpoint()
        assert plan.is_full_dump and plan.writes_everything()

    def test_full_dump_when_the_partials_add_up_to_the_state(
        self, policy_class
    ):
        policy = policy_class(16, full_dump_period=None)
        assert policy.full_dump_period is None
        # Write sets of 6, 6, 3 (15 < 16) stay partial; the next 6 would
        # bring the partials to 21 >= 16, so it is a full dump, after which
        # the count starts again.
        six, three = list(range(6)), list(range(3))
        plans = self.run(policy, [[], six, six, three, six, six, six, six])
        assert [p.is_full_dump for p in plans] == [
            True, False, False, False, True, False, False, True,
        ]
        assert [p.write_count(16) for p in plans] == [
            16, 6, 6, 3, 16, 6, 6, 16,
        ]
