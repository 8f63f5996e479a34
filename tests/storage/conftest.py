"""Fixtures shared by the storage tests."""

import pytest

from repro.storage import layout


@pytest.fixture
def crc32_backends():
    """Iterate over the backends of :func:`layout.crc32`, switched in for
    the body of each step: ``"libdeflate"`` (where it loaded) takes every
    non-empty buffer, so the small records of a test take the fast path
    too, and ``"zlib"`` runs with the library taken away."""

    def backends():
        for backend in ("libdeflate", "zlib"):
            if backend == "libdeflate" and layout._libdeflate_crc32 is None:
                continue
            with pytest.MonkeyPatch.context() as patch:
                if backend == "zlib":
                    patch.setattr(layout, "_libdeflate_crc32", None)
                else:
                    patch.setattr(layout, "CRC32_FAST_BYTES", 1)
                yield backend

    return backends
