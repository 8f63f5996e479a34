"""Property test: the front door's rate limit is exact.

For any interleaving of sends and tick boundaries, the number of commands a
session gets admitted within one tick window never exceeds the limit, every
send is either admitted or rate-limited, every admitted command is applied
by a shard tick, and budgets reset exactly at the boundary.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import StateGeometry
from repro.engine.app import TickApplication, TickUpdatesPlan
from repro.engine.fleet import ShardFleet
from repro.frontend.gateway import FrontDoor
from repro.frontend.sessions import CommandOverflowError


class IdleApp(TickApplication):
    """A do-nothing world: every command's admission is fully observable."""

    def __init__(self):
        self._geometry = StateGeometry(rows=16, columns=8)

    @property
    def geometry(self):
        return self._geometry

    def initialize(self, table, rng):
        pass

    def plan_tick(self, table, rng, tick):
        return TickUpdatesPlan.empty(np.float32)


# Each step: True = send a command, False = tick boundary.
schedules = st.lists(st.booleans(), min_size=1, max_size=60)


@given(schedule=schedules, limit=st.integers(min_value=1, max_value=5))
@settings(max_examples=50, deadline=None)
def test_rate_limit_exact(tmp_path_factory, schedule, limit):
    root = tmp_path_factory.mktemp("frontend")
    fleet = ShardFleet(lambda index: IdleApp(), root, num_shards=1, seed=0)
    frontdoor = FrontDoor(fleet, commands_per_tick_limit=limit)
    session_id = frontdoor.connect("prop").session_id

    sent_this_tick = 0
    accepted_total = 0
    for is_send in schedule:
        if is_send:
            try:
                frontdoor.submit(session_id, None, b"noop")
                sent_this_tick += 1
                accepted_total += 1
                assert sent_this_tick <= limit
            except CommandOverflowError:
                # Only ever rejected when the budget is exactly exhausted.
                assert sent_this_tick == limit
        else:
            assert frontdoor.drive_tick().report.ok
            sent_this_tick = 0
    assert frontdoor.drive_tick().report.ok

    stats = frontdoor.stats
    assert stats.commands_admitted == accepted_total
    assert stats.commands_applied == accepted_total
    assert (
        stats.commands_admitted + stats.rejected_rate_limit
        == sum(1 for s in schedule if s)
    )
    fleet.close()
