"""Shared on-disk framing helpers: headers, records, and checksums.

All multi-byte integers are little-endian.  Every header and record carries a
CRC-32 so recovery can distinguish a torn write from valid data.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from typing import List, Sequence

from repro.config import StateGeometry
from repro.errors import CorruptCheckpointError

#: Common magic prefix for all repro storage files.
MAGIC = b"RPRO"

#: Storage format version.
FORMAT_VERSION = 1


def crc32(data: bytes) -> int:
    """CRC-32 of ``data`` as an unsigned 32-bit integer."""
    return zlib.crc32(data) & 0xFFFFFFFF


# ---------------------------------------------------------------------------
# Geometry stamp: embedded in every store so files cannot be opened with the
# wrong table shape.
# ---------------------------------------------------------------------------

_GEOMETRY_STRUCT = struct.Struct("<qqqq")


def pack_geometry(geometry: StateGeometry) -> bytes:
    """Serialize a :class:`StateGeometry` (32 bytes)."""
    return _GEOMETRY_STRUCT.pack(
        geometry.rows, geometry.columns, geometry.cell_bytes, geometry.object_bytes
    )


def unpack_geometry(data: bytes) -> StateGeometry:
    """Inverse of :func:`pack_geometry`."""
    rows, columns, cell_bytes, object_bytes = _GEOMETRY_STRUCT.unpack(data)
    return StateGeometry(
        rows=rows, columns=columns, cell_bytes=cell_bytes, object_bytes=object_bytes
    )


GEOMETRY_BYTES = _GEOMETRY_STRUCT.size


# ---------------------------------------------------------------------------
# Backup-file header (double-backup organization)
# ---------------------------------------------------------------------------

#: Header state: no complete checkpoint has ever been committed to this file.
STATE_EMPTY = 0
#: Header state: a checkpoint write is in progress; the image is torn.
STATE_IN_PROGRESS = 1
#: Header state: the image is a complete, consistent checkpoint.
STATE_COMPLETE = 2

_HEADER_STRUCT = struct.Struct("<4sIq qq I")  # magic, version, state, epoch, tick, crc
BACKUP_HEADER_BYTES = _HEADER_STRUCT.size + GEOMETRY_BYTES


@dataclass(frozen=True)
class BackupHeader:
    """Metadata block at the start of each backup file."""

    state: int
    epoch: int
    tick: int
    geometry: StateGeometry

    def pack(self) -> bytes:
        geometry_bytes = pack_geometry(self.geometry)
        body = _HEADER_STRUCT.pack(
            MAGIC, FORMAT_VERSION, self.state, self.epoch, self.tick, 0
        )
        # CRC covers everything except the CRC field itself (last 4 bytes).
        checksum = crc32(body[:-4] + geometry_bytes)
        body = _HEADER_STRUCT.pack(
            MAGIC, FORMAT_VERSION, self.state, self.epoch, self.tick, checksum
        )
        return body + geometry_bytes

    @classmethod
    def unpack(cls, data: bytes) -> "BackupHeader":
        if len(data) < BACKUP_HEADER_BYTES:
            raise CorruptCheckpointError(
                f"backup header truncated: {len(data)} bytes"
            )
        body = data[: _HEADER_STRUCT.size]
        geometry_bytes = data[_HEADER_STRUCT.size: BACKUP_HEADER_BYTES]
        magic, version, state, epoch, tick, checksum = _HEADER_STRUCT.unpack(body)
        if magic != MAGIC:
            raise CorruptCheckpointError(f"bad backup magic {magic!r}")
        if version != FORMAT_VERSION:
            raise CorruptCheckpointError(
                f"unsupported backup format version {version}"
            )
        if crc32(body[:-4] + geometry_bytes) != checksum:
            raise CorruptCheckpointError("backup header CRC mismatch")
        if state not in (STATE_EMPTY, STATE_IN_PROGRESS, STATE_COMPLETE):
            raise CorruptCheckpointError(f"invalid backup state {state}")
        return cls(
            state=state, epoch=epoch, tick=tick,
            geometry=unpack_geometry(geometry_bytes),
        )


# ---------------------------------------------------------------------------
# Log records (checkpoint log and action log share the framing)
# ---------------------------------------------------------------------------

_RECORD_STRUCT = struct.Struct("<4sBqqI I")  # magic, type, a, b, length, crc
RECORD_HEADER_BYTES = _RECORD_STRUCT.size

#: Checkpoint-log record types.
RECORD_CHECKPOINT_BEGIN = 1
RECORD_OBJECTS = 2
RECORD_CHECKPOINT_COMMIT = 3
#: Action-log record type.
RECORD_TICK = 4


def pack_record(record_type: int, a: int, b: int, payload: bytes) -> bytes:
    """Frame one log record: typed header + CRC-protected payload."""
    header = _RECORD_STRUCT.pack(MAGIC, record_type, a, b, len(payload), 0)
    checksum = crc32(header[:-4] + payload)
    header = _RECORD_STRUCT.pack(MAGIC, record_type, a, b, len(payload), checksum)
    return header + payload


def unpack_record_header(data, offset: int = 0):
    """Parse the record header at ``offset`` of the bytes-like ``data``;
    returns ``(type, a, b, length, crc)``.

    Raises :class:`CorruptCheckpointError` on bad magic; callers treat that
    (and short reads) as the torn tail of the log.
    """
    magic, record_type, a, b, length, checksum = _RECORD_STRUCT.unpack_from(
        data, offset
    )
    if magic != MAGIC:
        raise CorruptCheckpointError(f"bad record magic {magic!r}")
    return record_type, a, b, length, checksum


def verify_record(header_bytes, payload, checksum: int) -> bool:
    """True if the payload matches the CRC recorded in the header.

    Both arguments are any bytes-like buffers; the CRC runs over the header
    (minus its own CRC field) and then the payload in place, so verifying a
    record never concatenates or copies it.
    """
    running = zlib.crc32(memoryview(header_bytes)[:-4])
    return zlib.crc32(payload, running) & 0xFFFFFFFF == checksum


def pack_record_parts(
    record_type: int, a: int, b: int, parts: Sequence
) -> List:
    """Frame one record whose payload is scattered across ``parts``.

    Equivalent to ``pack_record(record_type, a, b, b"".join(parts))`` but
    never concatenates: the CRC is computed incrementally over the parts
    (each a bytes-like buffer) and the framed record is returned as
    ``[header, *parts]``, ready for a single gathered ``os.writev``.
    """
    views = [memoryview(part).cast("B") for part in parts]
    length = sum(view.nbytes for view in views)
    header = _RECORD_STRUCT.pack(MAGIC, record_type, a, b, length, 0)
    checksum = zlib.crc32(header[:-4])
    for view in views:
        checksum = zlib.crc32(view, checksum)
    header = _RECORD_STRUCT.pack(
        MAGIC, record_type, a, b, length, checksum & 0xFFFFFFFF
    )
    return [header, *views]


# ---------------------------------------------------------------------------
# Raw-fd batched I/O: positioned and gathered writes with partial-write
# handling, falling back to plain write loops where the syscalls are missing.
# ---------------------------------------------------------------------------

HAS_PWRITEV = hasattr(os, "pwritev")
HAS_PREADV = hasattr(os, "preadv")
HAS_WRITEV = hasattr(os, "writev")

try:
    #: Most iovec entries one ``writev``/``pwritev`` call may carry.
    IOV_MAX = os.sysconf("SC_IOV_MAX")
except (AttributeError, ValueError, OSError):  # pragma: no cover
    IOV_MAX = 1024


def pread_into(fd: int, buffer, offset: int) -> int:
    """Positioned read at ``offset`` filling ``buffer`` (a writable
    bytes-like), retrying partial reads.

    Uses ``os.preadv`` straight into the caller's buffer -- one syscall in
    the common case, no seek (so a background restore reader never disturbs
    the handle's buffered position) and no per-retry concatenation.  Stops
    early at end-of-file; returns the number of bytes read, which callers
    compare against the buffer size to detect truncation.
    """
    view = memoryview(buffer).cast("B")
    size = view.nbytes
    total = 0
    while total < size:
        if HAS_PREADV:
            read = os.preadv(fd, [view[total:]], offset + total)
        else:  # pragma: no cover - non-POSIX fallback
            chunk = os.pread(fd, size - total, offset + total)
            read = len(chunk)
            view[total: total + read] = chunk
        if read == 0:
            break
        total += read
    return total


def pwritev_all(fd: int, buffers: Sequence, offset: int) -> int:
    """Gathered positioned write of ``buffers`` at ``offset``.

    One ``os.pwritev`` syscall in the common case -- the iovec entries are
    the callers' own buffers, so scattered payload rows land contiguously on
    disk without ever being copied into a staging buffer.  Splits at
    ``IOV_MAX`` and retries partial writes; returns the bytes written.
    """
    views = [memoryview(buffer).cast("B") for buffer in buffers]
    total = sum(view.nbytes for view in views)
    if not HAS_PWRITEV:  # pragma: no cover - non-POSIX fallback
        for view in views:
            while view.nbytes:
                written = os.pwrite(fd, view, offset)
                view = view[written:]
                offset += written
        return total
    remaining = total
    while remaining:
        written = os.pwritev(fd, views[:IOV_MAX], offset)
        offset += written
        remaining -= written
        if remaining:
            trimmed = []
            for view in views:
                if written >= view.nbytes:
                    written -= view.nbytes
                    continue
                trimmed.append(view[written:] if written else view)
                written = 0
            views = trimmed
    return total


def write_all(fd: int, buffers: Sequence) -> int:
    """Gathered sequential write of ``buffers`` at the fd's offset.

    One ``os.writev`` syscall in the common case (append-mode fds land the
    whole record at the end of the file in a single operation), with a
    retry loop for partial writes.  Returns the number of bytes written.
    """
    views = [memoryview(buffer).cast("B") for buffer in buffers]
    total = sum(view.nbytes for view in views)
    if not HAS_WRITEV:  # pragma: no cover - non-POSIX fallback
        for view in views:
            os.write(fd, view)
        return total
    remaining = total
    while remaining:
        # The kernel rejects iovecs longer than IOV_MAX; feed it the
        # front slice and let the retry loop advance through the rest.
        written = os.writev(fd, views[:IOV_MAX])
        remaining -= written
        if remaining:
            # Drop fully-written views, trim the partially-written one.
            trimmed = []
            for view in views:
                if written >= view.nbytes:
                    written -= view.nbytes
                    continue
                trimmed.append(view[written:] if written else view)
                written = 0
            views = trimmed
    return total


def fsync_directory(path: str) -> None:
    """Make the names created, renamed or replaced in ``path`` durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
