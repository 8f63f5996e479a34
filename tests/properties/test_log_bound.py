"""Property: the engine's checkpoint log stays below two images.

With no full-dump period the two log algorithms take a full dump once the
objects their partials wrote since the last one, plus the next write set,
reach the number of objects, and every full dump starts a new log file.  So
after every commit the backwards restore scan and the log on disk hold the
newest full dump plus fewer than ``n`` objects of partials: less than two
images plus record framing.  Counts bytes, never compares clocks.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import StateGeometry
from repro.engine import CheckpointWriterPool, DurableGameServer, RecoveryManager
from repro.storage.layout import GEOMETRY_BYTES, RECORD_HEADER_BYTES
from repro.validation.harness import TraceReplayApp
from repro.workloads.zipf import ZipfTrace

TICKS = 30


def log_bound(store):
    """Two images of objects, with their ids, plus every record's header."""
    geometry = store.geometry
    records = store._log.walk()
    framing = (
        2 * 8 * geometry.num_objects
        + RECORD_HEADER_BYTES * len(records)
        + GEOMETRY_BYTES
    )
    return 2 * geometry.checkpoint_bytes + framing


@given(
    algorithm=st.sampled_from(["partial-redo", "cou-partial-redo"]),
    rows=st.sampled_from([256, 512, 1024, 2048]),
    updates_per_tick=st.integers(min_value=1, max_value=400),
    skew=st.floats(min_value=0.0, max_value=0.99),
    cadence=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=12, deadline=None)
def test_log_stays_below_two_images(
    tmp_path_factory, algorithm, rows, updates_per_tick, skew, cadence, seed
):
    directory = tmp_path_factory.mktemp("log-bound")
    geometry = StateGeometry(rows=rows, columns=8)
    app = TraceReplayApp(
        ZipfTrace(geometry, updates_per_tick, skew=skew, num_ticks=TICKS,
                  seed=seed).materialize()
    )
    commits = 0
    with CheckpointWriterPool(1) as pool, DurableGameServer(
        app, directory, algorithm=algorithm, seed=seed, writer_pool=pool,
        min_checkpoint_interval_ticks=cadence,
    ) as server:
        writer, store = pool.handles[0], server._store
        for _ in range(TICKS):
            server.run_tick()
            server.wait_checkpoint_idle()
            if writer.stats().jobs_completed > commits:
                commits = writer.stats().jobs_completed
                bound = log_bound(store)
                assert store.restore_scan_bytes() < bound
                assert store.size_bytes() < bound
        assert commits > 0
        server.crash()
    report = RecoveryManager(app, directory, seed=seed).recover()
    assert report.table.equals(server.table)
