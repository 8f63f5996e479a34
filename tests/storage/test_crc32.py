"""Tests for the one checksum of the storage layer, :func:`layout.crc32`."""

import ast
import math
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.storage import layout

LENGTHS = (0, 1, 29, 4095, 4096, 266_240, 1 << 20)


def buffers(data):
    """``data`` as each kind of buffer the storage layer CRCs in place."""
    n = len(data)
    padded = memoryview(b"\x5a" * 3 + data + b"\xa5")[3: 3 + n]
    width = math.gcd(n, 512)
    table = np.zeros((n // width + 2, width), np.uint8)
    table[1:-1] = np.frombuffer(data, np.uint8).reshape(-1, width)
    return {
        "bytes": data,
        "readonly slice": padded,
        "bytearray": bytearray(data),
        "table rows": table[1:-1],
    }


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("backend", ["libdeflate", "zlib"])
def test_crc32_matches_zlib_on_both_backends(backend, length, monkeypatch):
    calls = []
    if backend == "zlib":
        monkeypatch.setattr(layout, "_libdeflate_crc32", None)
    elif layout._libdeflate_crc32 is None:
        pytest.skip("libdeflate.so.0 did not load")
    else:
        loaded = layout._libdeflate_crc32

        def counted(*args):
            calls.append(args[2])
            return loaded(*args)

        monkeypatch.setattr(layout, "_libdeflate_crc32", counted)
    data = np.random.default_rng(length).bytes(length)
    for kind, buffer in buffers(data).items():
        for running in (0, 0xDEADBEEF):
            assert layout.crc32(buffer, running) == zlib.crc32(
                data, running
            ), (kind, running)
    # Only buffers at the threshold or past it leave zlib.
    fast = backend == "libdeflate" and length >= layout.CRC32_FAST_BYTES
    assert calls == ([length] * 8 if fast else [])


def test_crc32_refuses_a_non_contiguous_view(crc32_backends):
    table = np.zeros((64, 128), np.uint8)
    for backend in crc32_backends():
        for strided in (table[:, :64], memoryview(bytes(8192))[::2],
                        memoryview(bytes(58))[::2]):
            with pytest.raises(BufferError):
                layout.crc32(strided)


def test_no_second_checksum_grows_back():
    """``layout.crc32`` is the only caller of ``zlib.crc32`` in ``src/``, and
    the foreign function is looked up once, by its loader: every record,
    header and backup header is checksummed by the same code."""
    import repro

    root = Path(repro.__file__).parent
    found = set()
    for path in root.rglob("*.py"):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Attribute):
                    continue
                owner = getattr(node.value, "id", None)
                if (node.attr == "crc32" and owner in ("zlib", "binascii")
                        or node.attr == "libdeflate_crc32"):
                    name = getattr(top, "name", type(top).__name__)
                    found.add((path.relative_to(root).as_posix(), name))
    assert found == {
        ("storage/layout.py", "crc32"),
        ("storage/layout.py", "_load_libdeflate_crc32"),
    }
