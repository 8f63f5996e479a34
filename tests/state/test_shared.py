"""Tests for the shared-memory arena and the shared game-state table."""

import multiprocessing
import os

import numpy as np
import pytest

from repro.config import StateGeometry
from repro.errors import GeometryError, StateError
from repro.state.shared import (
    SEGMENT_TAG,
    SharedArena,
    SharedGameStateTable,
    reap_stale_segments,
    segment_directory,
)
from repro.state.table import GameStateTable

GEOMETRY = StateGeometry(rows=64, columns=8)

SLOTS = [
    ("a", (16,), np.dtype(np.int64)),
    ("b", (4, 32), np.dtype(np.uint32)),
]


class TestArenaLifecycle:
    def test_create_array_and_destroy(self):
        arena = SharedArena.create(SLOTS)
        assert os.path.exists(arena.path)
        assert arena.is_owner
        assert arena.owner_pid == os.getpid()
        a = arena.array("a")
        assert a.shape == (16,) and a.dtype == np.int64
        assert (a == 0).all()  # fresh segments are zero-filled
        b = arena.array("b")
        assert b.shape == (4, 32) and b.dtype == np.uint32
        assert arena.array("a") is a  # repeated access is the same view
        arena.destroy()
        assert not os.path.exists(arena.path)

    def test_destroy_is_idempotent(self):
        arena = SharedArena.create(SLOTS)
        arena.destroy()
        arena.destroy()

    def test_unknown_slot_rejected(self):
        with SharedArena.create(SLOTS) as arena:
            with pytest.raises(StateError):
                arena.array("missing")

    def test_duplicate_slot_rejected(self):
        with pytest.raises(StateError):
            SharedArena.create([SLOTS[0], SLOTS[0]])

    def test_closed_arena_rejects_access(self):
        arena = SharedArena.create(SLOTS)
        path = arena.path
        arena.close()
        with pytest.raises(StateError):
            arena.array("a")
        os.unlink(path)

    def test_name_carries_tag_and_owner_pid(self):
        with SharedArena.create(SLOTS) as arena:
            name = os.path.basename(arena.path)
            assert name.startswith(f"{SEGMENT_TAG}.{os.getpid()}.")


class TestAttach:
    def test_attach_sees_owner_writes(self):
        with SharedArena.create(SLOTS) as arena:
            arena.array("a")[:] = np.arange(16)
            attached = SharedArena.attach(arena.path, SLOTS)
            assert np.array_equal(attached.array("a"), np.arange(16))
            # writes travel the other way too
            attached.array("b")[0, 0] = 7
            assert arena.array("b")[0, 0] == 7
            attached.close()

    def test_attached_arena_never_unlinks(self):
        with SharedArena.create(SLOTS) as arena:
            attached = SharedArena.attach(arena.path, SLOTS)
            assert not attached.is_owner
            attached.unlink()
            assert os.path.exists(arena.path)
            attached.close()

    def test_attach_rejects_undersized_segment(self):
        with SharedArena.create(SLOTS) as arena:
            big = SLOTS + [("c", (1 << 20,), np.dtype(np.uint8))]
            with pytest.raises(StateError):
                SharedArena.attach(arena.path, big)


class TestReaper:
    def test_reaps_only_dead_owner_segments(self):
        live = SharedArena.create(SLOTS)
        # Forge a segment naming a pid that cannot be alive.
        directory = segment_directory()
        dead_path = os.path.join(
            directory, f"{SEGMENT_TAG}.999999999.deadbeef"
        )
        with open(dead_path, "wb") as handle:
            handle.write(b"\0" * 64)
        removed = reap_stale_segments()
        assert dead_path in removed
        assert not os.path.exists(dead_path)
        assert os.path.exists(live.path)  # our own segment survives
        live.destroy()

    def test_ignores_unparseable_names(self):
        directory = segment_directory()
        weird = os.path.join(directory, f"{SEGMENT_TAG}.not-a-pid.x")
        with open(weird, "wb") as handle:
            handle.write(b"\0")
        try:
            assert weird not in reap_stale_segments()
            assert os.path.exists(weird)
        finally:
            os.unlink(weird)


def _child_mutate(path, slots, barrier):
    arena = SharedArena.attach(path, slots)
    table = SharedGameStateTable(GEOMETRY, arena)
    table.cells[5, 3] = 42.0 if table.dtype.kind == "f" else 42
    barrier.wait()


class TestSharedGameStateTable:
    def _arena(self):
        return SharedArena.create([SharedGameStateTable.slot_spec(GEOMETRY, np.uint32)])

    def test_behaves_like_plain_table(self):
        with self._arena() as arena:
            shared = SharedGameStateTable(GEOMETRY, arena)
            plain = GameStateTable(GEOMETRY)
            rng = np.random.default_rng(0)
            shared.fill_random(rng)
            plain.fill_random(np.random.default_rng(0))
            assert shared.equals(plain)
            assert shared.arena is arena
            ids = np.array([0, 2, 3])
            assert bytes(shared.object_bytes(ids)) == bytes(
                plain.object_bytes(ids)
            )

    def test_dtype_mismatch_rejected(self):
        with self._arena() as arena:
            with pytest.raises(GeometryError):
                SharedGameStateTable(GEOMETRY, arena, dtype=np.float32)

    def test_cross_process_visibility(self):
        context = multiprocessing.get_context("fork")
        slots = [SharedGameStateTable.slot_spec(GEOMETRY, np.uint32)]
        with SharedArena.create(slots) as arena:
            table = SharedGameStateTable(GEOMETRY, arena)
            barrier = context.Barrier(2)
            child = context.Process(
                target=_child_mutate, args=(arena.path, slots, barrier)
            )
            child.start()
            barrier.wait()
            child.join(timeout=10)
            assert child.exitcode == 0
            assert table.cells[5, 3] == 42


class TestExternalBuffer:
    def test_table_validates_buffer(self):
        padded = GEOMETRY.num_objects * GEOMETRY.cells_per_object
        good = np.zeros(padded, dtype=np.uint32)
        GameStateTable(GEOMETRY, buffer=good)
        with pytest.raises(GeometryError):
            GameStateTable(GEOMETRY, buffer=np.zeros(padded - 1, dtype=np.uint32))
        with pytest.raises(GeometryError):
            GameStateTable(GEOMETRY, buffer=np.zeros(padded, dtype=np.int64))
        with pytest.raises(GeometryError):
            GameStateTable(GEOMETRY, buffer=np.zeros((2, padded // 2), dtype=np.uint32))

    def test_gather_objects_into_matches_object_bytes(self):
        table = GameStateTable(GEOMETRY)
        table.fill_random(np.random.default_rng(1))
        ids = np.array([0, 1, 3])
        out = np.empty((ids.size, GEOMETRY.cells_per_object), dtype=table.dtype)
        table.gather_objects_into(ids, out)
        assert out.tobytes() == bytes(table.object_bytes(ids))
