"""Property test: gateway-batched delivery is tick-equivalent to direct
driving.

For any per-tick command script, routing the commands through the front
door -- session admission, the bounded per-shard queue, one batched
hand-off per tick, APPLIED-range acks -- produces byte-for-byte the same
world state as submitting the same commands directly to a
:class:`DurableGameServer` and ticking it.  The serving tier adds latency
and backpressure, never semantics.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.fleet import ShardFleet
from repro.engine.server import DurableGameServer
from repro.frontend import FrontDoor
from repro.game.knights_archers import KnightsArchersGame
from repro.game.scenario import BattleScenario

NUM_UNITS = 64

units = st.integers(min_value=0, max_value=NUM_UNITS - 1)
coordinates = st.integers(min_value=0, max_value=100)
commands = st.one_of(
    units.map(lambda u: f"heal:{u}".encode()),
    units.map(lambda u: f"activate:{u}".encode()),
    units.map(lambda u: f"deactivate:{u}".encode()),
    st.tuples(units, coordinates, coordinates).map(
        lambda t: f"teleport:{t[0]}:{t[1]}:{t[2]}".encode()
    ),
)
#: One inner list per tick; commands are state-changing, so any dropped,
#: duplicated, or re-ordered delivery breaks table equality.
scripts = st.lists(
    st.lists(commands, max_size=3), min_size=1, max_size=5
)


def make_app():
    return KnightsArchersGame(BattleScenario(num_units=NUM_UNITS))


@given(script=scripts)
@settings(max_examples=20, deadline=None)
def test_gateway_delivery_matches_direct_driving(tmp_path_factory, script):
    root = tmp_path_factory.mktemp("gateway-equivalence")

    # Through the front door: two sessions sharing one shard, commands
    # interleaved round-robin, one drive_tick per script entry.
    fleet = ShardFleet(lambda index: make_app(), root / "fleet",
                       num_shards=1, seed=21)
    frontdoor = FrontDoor(fleet)
    sessions = [frontdoor.connect(name).session_id for name in ("a", "b")]
    applied = 0
    for tick_commands in script:
        for position, command in enumerate(tick_commands):
            frontdoor.submit(sessions[position % 2], None, command)
        outcome = frontdoor.drive_tick()
        assert outcome.report.ok
        applied += sum(
            event.last_seq - event.first_seq + 1
            for event in outcome.applied
        )
    assert applied == sum(len(entry) for entry in script)
    assert frontdoor.stats.commands_admitted == applied

    # Direct driving: same app, same seed, same commands, same ticks.
    reference = DurableGameServer(make_app(), root / "direct", seed=21)
    for tick_commands in script:
        for command in tick_commands:
            reference.submit_command(command)
        reference.run_tick()

    assert fleet.shards[0].game.table.equals(reference.table)
    reference.close()
    fleet.close()
