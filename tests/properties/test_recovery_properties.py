"""Property test: recovery exactness (invariant 3).

For any algorithm, update intensity, crash tick, and checkpoint interval,
restoring the checkpoint and replaying the logical log reproduces the
crash-free state bit for bit.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import StateGeometry
from repro.core.registry import ALGORITHM_KEYS
from repro.engine.recovery import RecoveryManager
from repro.engine.server import DurableGameServer
from tests.conftest import RandomWalkApp

GEOMETRY = StateGeometry(rows=64, columns=8)


@given(
    algorithm=st.sampled_from(ALGORITHM_KEYS),
    ticks=st.integers(min_value=1, max_value=48),
    updates_per_tick=st.integers(min_value=0, max_value=60),
    interval=st.sampled_from([1, 3, 8, 64]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_crash_recovery_is_bit_exact(
    tmp_path_factory, algorithm, ticks, updates_per_tick, interval, seed
):
    app = RandomWalkApp(GEOMETRY, updates_per_tick=updates_per_tick)
    base = tmp_path_factory.mktemp("recovery")

    reference = DurableGameServer(
        app, base / "reference", algorithm=algorithm, seed=seed,
        min_checkpoint_interval_ticks=interval,
    )
    reference.run_ticks(ticks)

    victim = DurableGameServer(
        app, base / "victim", algorithm=algorithm, seed=seed,
        min_checkpoint_interval_ticks=interval,
    )
    victim.run_ticks(ticks)
    victim.crash()

    report = RecoveryManager(app, victim.directory, seed=seed).recover()
    assert report.next_tick == ticks
    assert report.table.equals(reference.table)
    reference.close()
