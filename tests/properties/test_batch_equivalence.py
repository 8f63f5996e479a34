"""Property tests: the batched front door equals its one-at-a-time model.

* ``FrontDoor.submit_batch(s, commands)`` equals ``submit`` called once per
  command: the same rejections (type and seq), the same queue contents, the
  same session state, the same tick outcomes and the same ``GatewayStats``
  (``admission_batches`` aside, which counts the calls).
* ``SharedCommandRing.push_batch`` plus ``drain`` equals a deque of
  payloads with a byte budget, at capacities small enough that records wrap
  around the slot and batches are only partly accepted.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import StateGeometry
from repro.engine.fleet import ShardFleet
from repro.errors import BackpressureError, ReproError, StateError
from repro.frontend import FrontDoor
from repro.frontend.sessions import CommandOverflowError
from repro.state.ring import RECORD_HEADER_BYTES, SharedCommandRing, ring_slots
from repro.state.shared import SharedArena

from tests.conftest import RandomWalkApp

GEOMETRY = StateGeometry(rows=32, columns=8)
LIMIT = 8
MAX_PENDING = 12
QUEUE_BYTES = 60

#: Ring records of 4, 10, 20 and 30 bytes: queues fill to exactly
#: QUEUE_BYTES as often as they overflow it.
command_payloads = st.tuples(
    st.sampled_from([0, 6, 16, 26]), st.integers(0, 255)
).map(lambda shape: bytes([shape[1]]) * shape[0])
commands = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
        command_payloads,
    ),
    min_size=1, max_size=12,
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(0, 2), commands),
        st.tuples(st.just("tick")),
        st.tuples(st.just("crash"), st.integers(0, 1)),
    ),
    min_size=1, max_size=12,
)


def make_door(directory):
    fleet = ShardFleet(lambda index: RandomWalkApp(GEOMETRY, 4), directory,
                       2, seed=5)
    return FrontDoor(fleet, commands_per_tick_limit=LIMIT,
                     max_pending_commands=MAX_PENDING,
                     queue_bytes=QUEUE_BYTES)


def one_at_a_time(door, session_id, batch):
    """``submit`` per command, each outcome checked against the admission
    rule itself: ``submit`` is a batch of one, so the two sides of the
    equivalence share code and this is what pins what that code means."""
    rejections = []
    for seq, payload in batch:
        session = door.session(session_id)
        placed = door._placement.is_live(session.shard_index)
        depth = door._queues[session.shard_index].pending_bytes
        over_budget = (session.commands_this_tick >= LIMIT
                       or session.commands_pending >= MAX_PENDING)
        outcome = None
        try:
            door.submit(session_id, seq, payload)
        except ReproError as error:
            rejections.append((seq, error))
            outcome = type(error)
        if not placed:
            continue  # re-placed (or refused) on the way in
        if depth + RECORD_HEADER_BYTES + len(payload) > QUEUE_BYTES:
            assert outcome is BackpressureError
        elif over_budget:
            assert outcome is CommandOverflowError
        else:
            assert outcome is None
    return rejections


def observable(door, sessions):
    return (
        [list(queue._entries) for queue in door._queues],
        [queue.pending_bytes for queue in door._queues],
        [door.session(session_id) for session_id in sessions],
    )


@given(script=steps)
@settings(max_examples=40, deadline=None)
def test_submit_batch_equals_submit_per_command(tmp_path_factory, script):
    root = tmp_path_factory.mktemp("admission")
    batched, single = make_door(root / "batched"), make_door(root / "single")
    try:
        sessions = [batched.connect(f"p{i}").session_id for i in range(3)]
        assert [single.connect(f"p{i}").session_id
                for i in range(3)] == sessions
        batches = commands_sent = 0
        for step in script:
            if step[0] == "submit":
                session_id, batch = sessions[step[1]], step[2]
                got = batched.submit_batch(session_id, batch)
                want = one_at_a_time(single, session_id, batch)
                assert ([(seq, type(e)) for seq, e in got]
                        == [(seq, type(e)) for seq, e in want])
                batches += 1
                commands_sent += len(batch)
            elif step[0] == "tick":
                assert (batched.drive_tick().events
                        == single.drive_tick().events)
            else:
                for door in (batched, single):
                    shard = door.fleet.shards[step[1]]
                    if not shard.crashed:
                        shard.crash()
            assert observable(batched, sessions) == observable(single,
                                                               sessions)
        counters = batched.stats.as_dict()
        reference = single.stats.as_dict()
        assert counters.pop("admission_batches") == batches
        assert reference.pop("admission_batches") == commands_sent
        assert counters == reference
    finally:
        batched.fleet.close()
        single.fleet.close()


payloads = st.lists(st.binary(max_size=28), max_size=8)
ring_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), payloads),
        st.tuples(st.just("drain"),
                  st.one_of(st.none(), st.integers(0, 4))),
    ),
    min_size=1, max_size=40,
)


@given(capacity=st.integers(min_value=RECORD_HEADER_BYTES + 1,
                            max_value=48),
       ops=ring_ops)
@settings(max_examples=150, deadline=None)
def test_ring_batches_equal_a_deque(capacity, ops):
    with SharedArena.create(ring_slots(capacity)) as arena:
        ring = SharedCommandRing(arena)
        model, used, pushed, drained = deque(), 0, 0, 0
        for op, argument in ops:
            if op == "push":
                accepted, oversized = 0, False
                for payload in argument:
                    need = RECORD_HEADER_BYTES + len(payload)
                    if need > capacity:
                        oversized = True
                        break
                    if used + need > capacity:
                        break
                    used += need
                    accepted += 1
                if oversized:
                    # A record that can never fit writes nothing at all.
                    used -= sum(RECORD_HEADER_BYTES + len(p)
                                for p in argument[:accepted])
                    with pytest.raises(StateError):
                        ring.push_batch(argument)
                else:
                    assert ring.push_batch(argument) == accepted
                    model.extend(argument[:accepted])
                    pushed += accepted
            else:
                count = len(model) if argument is None else min(
                    argument, len(model))
                expected = [model.popleft() for _ in range(count)]
                used -= sum(RECORD_HEADER_BYTES + len(p) for p in expected)
                drained += count
                assert ring.drain(max_records=argument) == expected
            assert ring.pending_bytes == used
            assert ring.pending_records == len(model)
            assert (ring.total_pushed, ring.total_drained) == (pushed,
                                                              drained)
