"""Shared-memory segments backing game state across process boundaries.

The process-backed fleet (``ShardFleet(backend="process")``) runs each
shard's mutator loop in a worker process; the parent pushes commands to it
and reads its counters and spans through memory both processes map:

* :class:`SharedArena` -- one shared-memory segment subdivided into named,
  64-byte-aligned numpy arrays ("slots").  The arena is a plain file in
  ``/dev/shm`` (tmpfs; falls back to the temp directory on platforms
  without it) mapped ``MAP_SHARED``, deliberately *not*
  ``multiprocessing.shared_memory``: owning the file ourselves sidesteps
  the resource-tracker's attach/unlink races and makes the on-disk name --
  ``repro-shm.<owner-pid>.<token>`` -- carry the lifecycle discipline.
* :class:`SharedGameStateTable` -- a :class:`~repro.state.table.GameStateTable`
  whose cell buffer is an arena slot, so a worker's live world is readable
  by the parent (and vice versa) without serialization.

Where and under which name a segment lives is fixed, not chosen per call:
:func:`segment_directory`, and the :data:`SEGMENT_TAG` prefix.

Lifecycle discipline ("tmp-name + owner-pid"): the *parent* creates every
segment before forking workers and is the only process that ever unlinks
one, so a crashed or killed worker cannot leak -- the parent's
``close``/``crash`` paths (and a GC finalizer as a last resort) remove the
file.  If the parent itself dies ungracefully, the segment name still
records the dead owner's pid: :func:`reap_stale_segments` scans the segment
directory and unlinks any segment whose owner is no longer alive, which the
process fleet runs defensively at startup.
"""

from __future__ import annotations

import errno
import mmap
import os
import secrets
import tempfile
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import StateGeometry
from repro.errors import StateError
from repro.state.table import GameStateTable

#: Segment-name prefix; the leak check and the reaper key off it.
SEGMENT_TAG = "repro-shm"

#: Slot alignment, matching a cache line so adjacent slots never false-share.
SLOT_ALIGN = 64

#: A slot spec: ``(name, shape, dtype)``.
SlotSpec = Tuple[str, Tuple[int, ...], np.dtype]


def segment_directory() -> str:
    """Directory shared-memory segments live in.

    ``/dev/shm`` (tmpfs -- true shared memory) when present and writable;
    otherwise the system temp directory, where the segments are ordinary
    file-backed shared mappings with identical semantics and merely a
    page-cache-mediated cost profile.
    """
    shm = "/dev/shm"
    if os.path.isdir(shm) and os.access(shm, os.W_OK):
        return shm
    return tempfile.gettempdir()


def _segment_name() -> str:
    """``<SEGMENT_TAG>.<pid>.<token>``: the pid is the owner the reaper
    checks."""
    return f"{SEGMENT_TAG}.{os.getpid()}.{secrets.token_hex(4)}"


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    return True


def reap_stale_segments() -> List[str]:
    """Unlink segments whose owner process is dead; returns removed paths.

    The safety net for a SIGKILLed *parent* (workers can never leak: they do
    not own segments).  Safe to run concurrently with live fleets -- only
    segments naming a dead owner pid are touched.
    """
    directory = segment_directory()
    removed = []
    prefix = SEGMENT_TAG + "."
    try:
        names = os.listdir(directory)
    except OSError:
        return removed
    for name in names:
        if not name.startswith(prefix):
            continue
        parts = name[len(prefix):].split(".")
        try:
            owner = int(parts[0])
        except (ValueError, IndexError):
            continue
        if _pid_alive(owner):
            continue
        path = os.path.join(directory, name)
        try:
            os.unlink(path)
            removed.append(path)
        except OSError:
            pass
    return removed


class SharedArena:
    """One shared-memory segment subdivided into named numpy arrays.

    Created by the owning process with :meth:`create` (the slots determine
    the layout), inherited by forked children as-is, or attached by name
    with :meth:`attach` (spawned children must be given the same slot spec).
    ``array(name)`` returns a live numpy view; every process sees every
    other's writes to it.
    """

    def __init__(
        self,
        path: str,
        slots: Sequence[SlotSpec],
        create: bool,
    ) -> None:
        offsets: Dict[str, Tuple[int, Tuple[int, ...], np.dtype]] = {}
        offset = 0
        for name, shape, dtype in slots:
            if name in offsets:
                raise StateError(f"duplicate arena slot {name!r}")
            dtype = np.dtype(dtype)
            nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
            if nbytes < 0:
                raise StateError(f"negative slot size for {name!r}")
            offsets[name] = (offset, tuple(shape), dtype)
            offset += -(-nbytes // SLOT_ALIGN) * SLOT_ALIGN
        self._slots = offsets
        self._size = max(offset, mmap.PAGESIZE)
        self._path = path
        self._owner_pid = os.getpid() if create else None
        self._closed = False
        if create:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600)
        else:
            fd = os.open(path, os.O_RDWR)
        try:
            if create:
                os.ftruncate(fd, self._size)  # zero-filled by the kernel
            elif os.fstat(fd).st_size < self._size:
                raise StateError(
                    f"segment {path} is smaller than the slot layout "
                    f"({os.fstat(fd).st_size} < {self._size} bytes)"
                )
            self._map = mmap.mmap(fd, self._size, flags=mmap.MAP_SHARED)
        except BaseException:
            os.close(fd)
            if create:
                try:
                    os.unlink(path)
                except OSError:
                    pass
            raise
        os.close(fd)
        self._views: Dict[str, np.ndarray] = {}
        if create:
            # Last-resort cleanup if the owner drops the arena without
            # calling unlink (the fleet's close/crash paths do it properly).
            self._finalizer = weakref.finalize(
                self, _unlink_quietly, path, os.getpid()
            )
        else:
            self._finalizer = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, slots: Sequence[SlotSpec]) -> "SharedArena":
        """Allocate a fresh zero-filled segment owned by this process."""
        directory = segment_directory()
        for _ in range(8):
            path = os.path.join(directory, _segment_name())
            try:
                return cls(path, slots, create=True)
            except OSError as error:
                if error.errno != errno.EEXIST:
                    raise
        raise StateError(f"could not allocate a unique segment under {directory}")

    @classmethod
    def attach(cls, path: str, slots: Sequence[SlotSpec]) -> "SharedArena":
        """Map an existing segment (non-owning: never unlinks it)."""
        return cls(path, slots, create=False)

    # ------------------------------------------------------------------
    # Introspection and access
    # ------------------------------------------------------------------

    @property
    def path(self) -> str:
        """Filesystem path of the backing segment."""
        return self._path

    @property
    def size(self) -> int:
        """Mapped size in bytes (slot layout rounded up to a page)."""
        return self._size

    @property
    def owner_pid(self) -> Optional[int]:
        """Pid that created (and must unlink) the segment; None if attached."""
        return self._owner_pid

    @property
    def is_owner(self) -> bool:
        """True in the process that created the segment.

        A forked child inherits the parent's arena object but must never
        unlink it, so ownership is re-checked against the live pid.
        """
        return self._owner_pid == os.getpid()

    def slot_names(self) -> List[str]:
        """Names of the arena's slots, in layout order."""
        return list(self._slots)

    def array(self, name: str) -> np.ndarray:
        """Live shared view of slot ``name`` (same array on repeat calls)."""
        if self._closed:
            raise StateError(f"arena {self._path} is closed")
        view = self._views.get(name)
        if view is None:
            try:
                offset, shape, dtype = self._slots[name]
            except KeyError:
                raise StateError(
                    f"arena has no slot {name!r}; slots: {self.slot_names()}"
                ) from None
            count = int(np.prod(shape, dtype=np.int64))
            view = np.frombuffer(
                self._map, dtype=dtype, count=count, offset=offset
            ).reshape(shape)
            self._views[name] = view
        return view

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (the segment itself survives)."""
        if self._closed:
            return
        self._closed = True
        self._views.clear()
        try:
            self._map.close()
        except BufferError:
            # A live numpy view still pins the mapping; the memory is
            # reclaimed when the last view is garbage-collected.  Unlink
            # still works -- POSIX removes the name, not the mapping.
            pass

    def unlink(self) -> None:
        """Remove the segment file (owner only; idempotent).

        Mapped views -- ours or a worker's -- stay valid until unmapped;
        unlink removes the *name* so nothing new can attach and the kernel
        frees the memory once the last mapping goes away.
        """
        if not self.is_owner:
            return
        if self._finalizer is not None:
            self._finalizer.detach()
        try:
            os.unlink(self._path)
        except FileNotFoundError:
            pass

    def destroy(self) -> None:
        """Owner teardown: unlink the name, then drop the mapping."""
        self.unlink()
        self.close()

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.destroy()


def _unlink_quietly(path: str, owner_pid: int) -> None:
    if os.getpid() != owner_pid:
        return  # a forked child GC'ing its inherited copy must not unlink
    try:
        os.unlink(path)
    except OSError:
        pass


class SharedGameStateTable(GameStateTable):
    """A game-state table whose cell buffer lives in a :class:`SharedArena`.

    Behaviourally identical to :class:`~repro.state.table.GameStateTable`
    (it *is* one); the only difference is where the bytes live.  Use
    :meth:`slot_spec` when laying out the arena so the slot is sized and
    typed correctly.
    """

    SLOT = "table"

    def __init__(
        self,
        geometry: StateGeometry,
        arena: SharedArena,
        dtype=np.uint32,
    ) -> None:
        super().__init__(geometry, dtype=dtype, buffer=arena.array(self.SLOT))
        self._arena = arena

    @property
    def arena(self) -> SharedArena:
        """The arena holding the cell buffer."""
        return self._arena

    @classmethod
    def slot_spec(cls, geometry: StateGeometry, dtype) -> SlotSpec:
        """Arena slot spec for a table of this geometry and dtype."""
        padded = geometry.num_objects * geometry.cells_per_object
        return (cls.SLOT, (padded,), np.dtype(dtype))
