"""Property tests for staleness-aware admission in the writer pool.

Floods a single-worker pool past capacity with jobs carrying arbitrary cut
ticks and checks the admission invariants that bound worst-case checkpoint
age: the oldest queued cut is always the next one serviced, the pool never
records a service-order inversion, and the checkpoint-age gauge matches the
oldest undurable cut while flooded and returns to zero once drained.
"""

import tempfile
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import StateGeometry
from repro.engine.writer import CheckpointJob
from repro.engine.writer_pool import CheckpointWriterPool
from repro.storage.checkpoint_log import CheckpointLogStore

GEOMETRY = StateGeometry(rows=8, columns=4)

cut_tick_sets = st.lists(
    st.integers(min_value=0, max_value=100_000),
    min_size=1,
    max_size=8,
    unique=True,
)


class _Blocker:
    """Payload source that parks the flushing worker until released."""

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()

    def read_payloads_into(self, object_ids: np.ndarray, out) -> None:
        self.entered.set()
        self.release.wait(timeout=30.0)
        out[:] = 0


def _full_job(source, cut_tick: int) -> CheckpointJob:
    return CheckpointJob(
        object_ids=np.arange(GEOMETRY.num_objects, dtype=np.int64),
        epoch=1,
        cut_tick=cut_tick,
        source=source,
        backup_index=None,
        is_full_dump=True,
    )


@given(cuts=cut_tick_sets)
@settings(max_examples=30, deadline=None)
def test_flooded_pool_drains_oldest_cut_first(cuts):
    service_order = []

    class RecordingSource:
        def __init__(self, index: int) -> None:
            self._index = index

        def read_payloads_into(self, object_ids: np.ndarray, out) -> None:
            service_order.append(self._index)
            out[:] = 0

    with tempfile.TemporaryDirectory() as root:
        pool = CheckpointWriterPool(1)
        stores = []
        try:
            blocker_store = CheckpointLogStore(f"{root}/blocker", GEOMETRY)
            stores.append(blocker_store)
            blocker_handle = pool.register(blocker_store)
            blocker = _Blocker()
            blocker_handle.submit(_full_job(blocker, cut_tick=0))
            assert blocker.entered.wait(timeout=10.0)

            # Worker parked: every job below queues up behind it, so the
            # pool is strictly past capacity for the whole submission wave.
            handles = []
            for index, cut in enumerate(cuts):
                store = CheckpointLogStore(f"{root}/{index}", GEOMETRY)
                stores.append(store)
                handle = pool.register(store)
                handle.submit(_full_job(RecordingSource(index), cut))
                handles.append(handle)

            # While flooded, the age gauge tracks the newest undurable cut
            # (nothing has committed, so age is cut + 1 ticks of replay).
            assert pool.stats().max_checkpoint_age_ticks == max(cuts) + 1

            blocker.release.set()
            assert blocker_handle.wait_idle(timeout=10.0)
            for handle in handles:
                assert handle.wait_idle(timeout=10.0)

            # The oldest queued cut was always the next job serviced.
            expected = sorted(range(len(cuts)), key=lambda i: cuts[i])
            assert service_order == expected

            stats = pool.stats()
            # No service-order inversion ever happened...
            assert stats.max_picked_staleness_ticks == 0
            # ...and draining the backlog drove every age back to zero.
            assert stats.max_checkpoint_age_ticks == 0
            for handle in handles:
                assert handle.checkpoint_age == 0
        finally:
            pool.close()
            for store in stores:
                store.close()


@given(cuts=cut_tick_sets, lag=st.integers(min_value=1, max_value=50))
@settings(max_examples=30, deadline=None)
def test_straggler_bounded_by_one_service_under_staleness(cuts, lag):
    """A shard whose cut lags the rest by ``lag`` ticks is serviced before
    every fresher job, so its wait is bounded by the one in-flight job --
    independent of how deep the backlog is."""
    straggler_cut = min(cuts) + lag  # strictly older than no queued job...
    cuts = [cut + lag + 1 for cut in cuts]  # ...after shifting the rest up

    with tempfile.TemporaryDirectory() as root:
        pool = CheckpointWriterPool(1)
        stores = []
        try:
            blocker_store = CheckpointLogStore(f"{root}/blocker", GEOMETRY)
            stores.append(blocker_store)
            blocker_handle = pool.register(blocker_store)
            blocker = _Blocker()
            blocker_handle.submit(_full_job(blocker, cut_tick=0))
            assert blocker.entered.wait(timeout=10.0)

            serviced = []

            class Probe:
                def __init__(self, label):
                    self._label = label

                def read_payloads_into(self, object_ids, out):
                    serviced.append(self._label)
                    out[:] = 0

            handles = []
            for index, cut in enumerate(cuts):
                store = CheckpointLogStore(f"{root}/{index}", GEOMETRY)
                stores.append(store)
                handle = pool.register(store)
                handle.submit(_full_job(Probe("fresh"), cut))
                handles.append(handle)
            # Adversarial arrival: the stalest shard submits last.
            straggler_store = CheckpointLogStore(
                f"{root}/straggler", GEOMETRY
            )
            stores.append(straggler_store)
            straggler = pool.register(straggler_store)
            straggler.submit(_full_job(Probe("straggler"), straggler_cut))
            handles.append(straggler)

            blocker.release.set()
            for handle in handles:
                assert handle.wait_idle(timeout=10.0)

            # Despite arriving last behind an arbitrary backlog, the
            # straggler was the first job out of the queue.
            assert serviced[0] == "straggler"
            assert pool.stats().max_picked_staleness_ticks == 0
        finally:
            pool.close()
            for store in stores:
                store.close()


class _ClockedSource:
    """Zero payloads; every service advances a shared virtual tick clock.

    One ``read_payloads_into`` call is one job's service (the geometry fits a
    whole checkpoint in one chunk), so ages come out in deterministic
    virtual ticks.  The gate parks the worker until a submission wave is
    fully queued, which keeps the pool saturated for the whole wave.
    """

    def __init__(self, clock, clock_lock, gate) -> None:
        self._clock = clock
        self._clock_lock = clock_lock
        self._gate = gate
        #: Clock value right after each of this shard's jobs was serviced.
        self.service_clocks = []

    def read_payloads_into(self, object_ids: np.ndarray, out) -> None:
        self._gate.wait(timeout=30.0)
        with self._clock_lock:
            self._clock[0] += 1
            self.service_clocks.append(self._clock[0])
        out[:] = 0


def _straggler_ages(root: str, num_shards: int, waves: int, lag: int):
    """Shard 0's checkpoint age (service clock minus cut tick) per wave.

    One worker, ``num_shards`` handles, every wave queues the whole fleet
    before any job is serviced.  Shard 0 is the straggler: its cut happened
    ``lag`` ticks before the wave's and its submission arrives *last*, the
    adversarial race arrival-order service is blind to.
    """
    clock = [lag]  # so the straggler's first cut is tick 0
    clock_lock = threading.Lock()
    gate = threading.Event()
    sources = [
        _ClockedSource(clock, clock_lock, gate) for _ in range(num_shards)
    ]
    straggler_cuts = []
    pool = CheckpointWriterPool(1)
    stores = []
    try:
        for shard in range(num_shards):
            stores.append(CheckpointLogStore(f"{root}/{shard}", GEOMETRY))
        handles = [pool.register(store) for store in stores]
        for wave in range(waves):
            gate.clear()
            wave_clock = clock[0]  # every handle is idle: nobody ticks it
            straggler_cuts.append(wave_clock - lag)
            for shard in list(range(1, num_shards)) + [0]:
                handles[shard].submit(CheckpointJob(
                    object_ids=np.arange(GEOMETRY.num_objects, dtype=np.int64),
                    epoch=wave + 1,
                    cut_tick=wave_clock - lag if shard == 0 else wave_clock,
                    source=sources[shard],
                    is_full_dump=True,
                ))
            gate.set()
            for handle in handles:
                assert handle.wait_idle(timeout=30.0)
        assert pool.stats().max_picked_staleness_ticks == 0
    finally:
        gate.set()  # never strand the worker mid-wave on an error path
        pool.close(wait=False)
        for store in stores:
            store.close()
    return [
        serviced - cut
        for serviced, cut in zip(sources[0].service_clocks, straggler_cuts)
    ]


def test_straggler_age_does_not_grow_with_the_backlog():
    """The committed ``admission_overload`` result, as a test: at N and 2N
    shards the straggler is serviced within ``lag`` plus its own service,
    the one job in flight and one tick of slack -- arrival order would let
    its age grow with the fleet (12 -> 20 ticks at 8 -> 16 shards)."""
    lag, waves = 4, 12
    for num_shards in (8, 16):
        with tempfile.TemporaryDirectory() as root:
            ages = _straggler_ages(root, num_shards, waves, lag)
        assert len(ages) == waves
        assert max(ages) <= lag + 3
