"""Shared on-disk framing: headers, records, checksums, and the record file.

All multi-byte integers are little-endian.  Every header and record carries a
CRC-32 so recovery can distinguish a torn write from valid data; :func:`crc32`
is the one place that computes it.
:class:`RecordFile` is the append-only file of framed records under both logs
(the action log's segments and the checkpoint log); what the records mean
stays with the logs.
"""

from __future__ import annotations

import copy
import ctypes
import os
import struct
import threading
import zlib
from dataclasses import dataclass
from typing import (Callable, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.config import StateGeometry
from repro.errors import CorruptCheckpointError, StorageError

#: Common magic prefix for all repro storage files.
MAGIC = b"RPRO"

#: Storage format version.
FORMAT_VERSION = 1


#: Buffers at least this long are CRC'd by libdeflate, shorter ones by zlib:
#: 4 KiB costs about 2 us either way, and below it the ``ctypes`` call alone
#: (over 1 us) costs more than zlib's whole loop (0.4 us for a header).
CRC32_FAST_BYTES = 4096


def _load_libdeflate_crc32():
    """``libdeflate_crc32(crc, buffer, len)``, or None without the library.

    Loaded by soname: ``ctypes.util.find_library`` would run ``ldconfig``
    in a subprocess.  ``ctypes`` releases the GIL for the call.
    """
    try:
        function = ctypes.CDLL("libdeflate.so.0").libdeflate_crc32
    except (OSError, AttributeError):
        return None
    function.restype = ctypes.c_uint32
    function.argtypes = (ctypes.c_uint32, ctypes.c_void_p, ctypes.c_size_t)
    return function


_libdeflate_crc32 = _load_libdeflate_crc32()

#: Which library :func:`crc32` hands long buffers to in this process.
CRC32_BACKEND = "zlib" if _libdeflate_crc32 is None else "libdeflate"


def crc32(data, running: int = 0) -> int:
    """CRC-32 of ``data``, continuing from ``running`` (``zlib.crc32``'s
    polynomial and running-value semantics), as an unsigned 32-bit integer.

    ``data`` is any C-contiguous bytes-like buffer (a 2-D table or slab
    block included), read in place; a non-contiguous one raises
    :class:`BufferError`.  Buffers of :data:`CRC32_FAST_BYTES` or more go
    to libdeflate when it loaded, the rest to zlib: the value is the same.
    """
    view = memoryview(data)
    if not view.c_contiguous:
        raise BufferError("crc32 needs a C-contiguous buffer")
    if _libdeflate_crc32 is None or view.nbytes < CRC32_FAST_BYTES:
        return zlib.crc32(view, running)
    if view.readonly:
        address = np.frombuffer(view, np.uint8).ctypes.data
    else:
        address = ctypes.addressof(ctypes.c_char.from_buffer(view))
    return _libdeflate_crc32(running, address, view.nbytes)


#: Durability policies of every store: ``never`` trusts the OS page cache,
#: ``commit`` forces each commit point down, ``always`` also fsyncs every
#: other write (for the double backup, every header transition).
FSYNC_POLICIES = ("never", "commit", "always")


def check_fsync_policy(fsync_policy: str) -> str:
    """``fsync_policy``, once it is known to be one of :data:`FSYNC_POLICIES`."""
    if fsync_policy not in FSYNC_POLICIES:
        raise StorageError(
            f"fsync_policy must be one of {FSYNC_POLICIES}, got {fsync_policy!r}"
        )
    return fsync_policy


def restore_destination(out, nbytes: int):
    """The buffer a whole-image restore fills: ``out`` checked, or a fresh
    zeroed ``bytearray`` when ``out`` is None.

    Returns ``(image, view)``: ``image`` is what the restore hands back
    (``out`` itself when given) and ``view`` its flat writable byte view.
    Raises :class:`StorageError` for anything but a writable contiguous
    buffer of exactly ``nbytes`` bytes -- before the caller reads anything.
    """
    image = bytearray(nbytes) if out is None else out
    try:
        view = memoryview(image).cast("B")
    except TypeError as error:
        raise StorageError(
            f"restore destination must be a contiguous buffer: {error}"
        ) from None
    if view.readonly:
        raise StorageError("restore destination is read-only")
    if view.nbytes != nbytes:
        raise StorageError(
            f"restore destination holds {view.nbytes} bytes, "
            f"the image is {nbytes}"
        )
    return image, view


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
        checksum = crc32(geometry_bytes, crc32(memoryview(body)[:-4]))
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
        if crc32(geometry_bytes, crc32(memoryview(body)[:-4])) != checksum:
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
    return pack_record_parts(record_type, a, b, [payload])[0] + payload


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


def verify_record(header_bytes, payload, checksum: int, rest=b"") -> bool:
    """True if the payload (continued in ``rest``, if the record was read
    into two buffers) matches the CRC recorded in the header.

    All are any bytes-like buffers; the CRC runs over the header (minus its
    own CRC field) and then the payload in place, so verifying a record
    never concatenates or copies it.
    """
    running = crc32(payload, crc32(memoryview(header_bytes)[:-4]))
    return crc32(rest, running) == checksum


def pack_record_parts(record_type: int, a: int, b: int, parts: Sequence):
    """Frame one record whose payload is scattered across ``parts``.

    Equivalent to ``pack_record(record_type, a, b, b"".join(parts))`` but
    never concatenates: the CRC is computed incrementally over the parts
    (each a bytes-like buffer).  Returns ``(header, views, length, crc)``:
    the header and the parts' byte views are the record, ready for a
    single gathered ``os.writev``.
    """
    views = [memoryview(part).cast("B") for part in parts]
    length = sum(view.nbytes for view in views)
    header = _RECORD_STRUCT.pack(MAGIC, record_type, a, b, length, 0)
    checksum = crc32(memoryview(header)[:-4])
    for view in views:
        checksum = crc32(view, checksum)
    header = _RECORD_STRUCT.pack(MAGIC, record_type, a, b, length, checksum)
    return header, views, length, checksum


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


#: Restore plans reading fewer bytes than this run on the caller alone.
SPLIT_READ_BYTES = 4 << 20


def read_halves(nbytes: int, first: Callable, second: Callable) -> Tuple:
    """``(first(), second())``, the two halves of a restore's read plan of
    ``nbytes``: from :data:`SPLIT_READ_BYTES` on, ``second`` runs on a
    ``repro-restore-reader`` thread meanwhile (``preadv``, :func:`crc32`
    and numpy's row copies release the GIL).  The helper is joined before
    this returns; an exception from either half re-raises here."""
    if nbytes < SPLIT_READ_BYTES:
        return first(), second()
    results: List = []

    def run() -> None:
        try:
            results.append(second())
        except BaseException as error:  # re-raised on the caller
            results.append(error)

    helper = threading.Thread(target=run, name="repro-restore-reader")
    helper.start()
    try:
        head = first()
    finally:
        helper.join()
    if isinstance(results[0], BaseException):
        raise results[0]
    return head, results[0]


def _skip(views: List[memoryview], written: int) -> List[memoryview]:
    """What is left of ``views`` once the first ``written`` bytes landed:
    fully-written views dropped, the partially-written one trimmed."""
    left = []
    for view in views:
        if written >= view.nbytes:
            written -= view.nbytes
            continue
        left.append(view[written:] if written else view)
        written = 0
    return left


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
            views = _skip(views, written)
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
            views = _skip(views, written)
    return total


def fsync_directory(path: str) -> None:
    """Make the names created, renamed or replaced in ``path`` durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# The record file under both logs
# ---------------------------------------------------------------------------

#: Default size of each read the header walk parses headers out of.
WALK_BLOCK_BYTES = 64 << 10


class Record(NamedTuple):
    """One framed record as the header walk indexed it (nothing verified)."""

    offset: int  # of the header
    type: int
    a: int
    b: int
    length: int  # of the payload
    checksum: int

    @property
    def end(self) -> int:
        return self.offset + RECORD_HEADER_BYTES + self.length


class RecordFile:
    """One append-only file of framed records, and the index of its headers.

    :attr:`records` holds every record up to :attr:`end` in file order, as
    a walk or an append saw it; nothing in it is verified until
    :meth:`read_verified` reads it.  :attr:`torn` says the file holds bytes
    past :attr:`end` (a torn or corrupt tail, or what a failed write left),
    which the next :meth:`append` cuts off before it writes.  A walk reads
    at most ``block_bytes`` at a time, and only the next header after a
    record longer than that, so it never reads a long payload.
    """

    def __init__(self, path: str, block_bytes: int = WALK_BLOCK_BYTES,
                 readonly: bool = False) -> None:
        # Unbuffered: a failed write leaves nothing for close to flush.
        self._file = open(path, "rb" if readonly else "a+b", buffering=0)
        self._block_bytes = block_bytes
        self.records: List[Record] = []
        self.end = 0
        self.torn = False
        #: Bytes read from the file so far, by walks and record reads.
        self.bytes_read = 0

    def close(self) -> None:
        self._file.close()

    @property
    def fd(self) -> int:
        return self._file.fileno()

    def size(self) -> int:
        """The file's size on disk, torn tail included."""
        return os.fstat(self.fd).st_size

    def reader(self) -> "RecordFile":
        """This file and index, counting :attr:`bytes_read` apart from 0:
        what a restore's helper thread reads through."""
        reader = copy.copy(self)
        reader.bytes_read = 0
        return reader

    def read(self, buffer, offset: int) -> int:
        """:func:`pread_into`, counted into :attr:`bytes_read`."""
        read = pread_into(self.fd, buffer, offset)
        self.bytes_read += read
        return read

    def walk(self) -> List[Record]:
        """Index the headers from :attr:`end` on; returns :attr:`records`.
        A header with bad magic, or whose length runs past end of file, is
        the torn tail and ends the walk, having allocated nothing for it."""
        size = self.size()
        offset = base = self.end
        block = memoryview(bytearray(max(min(self._block_bytes, size - offset), 0)))
        want = block.nbytes
        filled = 0
        while offset + RECORD_HEADER_BYTES <= size:
            at = offset - base
            if at + RECORD_HEADER_BYTES > filled:
                base, at = offset, 0
                filled = self.read(block[:want], offset)
                if filled < RECORD_HEADER_BYTES:
                    break
            try:
                record = Record(offset, *unpack_record_header(block, at))
            except CorruptCheckpointError:
                break
            if record.end > size:
                break
            self.records.append(record)
            offset = record.end
            long = RECORD_HEADER_BYTES + record.length > self._block_bytes
            want = RECORD_HEADER_BYTES if long else block.nbytes
        self.end = offset
        self.torn = size > offset
        return self.records

    def cut(self, index: int) -> None:
        """End the index before record ``index``: the file from there on is
        a torn tail, which the next :meth:`append` cuts off."""
        if index < len(self.records):
            self.end = self.records[index].offset
            del self.records[index:]
            self.torn = True

    def read_verified(self, index: int, head=None,
                      rest=None) -> Optional[memoryview]:
        """Read record ``index`` into the front of ``head`` (a fresh buffer
        without one) and CRC it in place; returns the payload view, or None
        when the record is short or fails its CRC.  A caller that already
        read the record's first ``len(head)`` bytes into ``head`` (to see
        where the rest belongs) passes ``rest``: only the remainder is read,
        into ``rest``, which is returned once the CRC over both holds."""
        record = self.records[index]
        if head is None:
            head = bytearray(RECORD_HEADER_BYTES + record.length)
        head = memoryview(head).cast("B")
        if rest is None:
            head = target = head[: RECORD_HEADER_BYTES + record.length]
            offset, rest = record.offset, b""
        else:
            target = rest = memoryview(rest).cast("B")
            offset = record.offset + head.nbytes
        if self.read(target, offset) != target.nbytes or not verify_record(
            head[:RECORD_HEADER_BYTES], head[RECORD_HEADER_BYTES:],
            record.checksum, rest,
        ):
            return None
        return head[RECORD_HEADER_BYTES:] if target is head else rest

    def append(self, records: Iterable[Tuple[int, int, int, Sequence]],
               fsync: bool = False) -> None:
        """Frame ``records`` -- ``(type, a, b, payload parts)`` each -- and
        land them at :attr:`end` in one gathered write (then an fsync, if
        asked), after cutting off a torn tail.  A failed write or fsync
        raises :class:`OSError`, indexes nothing and leaves the tail torn."""
        parts: List = []
        added: List[Record] = []
        end = self.end
        for record_type, a, b, payload in records:
            header, views, length, checksum = pack_record_parts(
                record_type, a, b, payload
            )
            added.append(Record(end, record_type, a, b, length, checksum))
            end = added[-1].end
            parts.append(header)
            parts += views
        try:
            if self.torn:
                os.ftruncate(self.fd, self.end)
                self.torn = False
            write_all(self.fd, parts)
            if fsync:
                os.fsync(self.fd)
        except OSError:
            self.torn = True
            raise
        self.records += added
        self.end = end
