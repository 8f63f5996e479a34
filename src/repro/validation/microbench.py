"""Host micro-benchmarks re-deriving the Table 3 parameters.

"The most challenging parameters are those representing system performance.
The values presented here were measured for one particular server in our lab,
using a collection of micro-benchmarks written for the purpose."
(Section 4.3.)  The paper measured a 2009 server running C++; this module
measures the *current* host running numpy, which is what the validation
implementation actually executes -- calibrating the simulator with these
numbers is exactly the paper's methodology.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Optional

import numpy as np

from repro.config import HardwareParameters


def measure_memory_bandwidth(
    buffer_bytes: int = 32 * 1024 * 1024, repeats: int = 5
) -> float:
    """Effective memcpy bandwidth in bytes/second.

    Mirrors the paper: "repeated memcpy calls using aligned data, each call
    copying an order of magnitude more data than the size of the L2 cache".
    """
    source = np.ones(buffer_bytes // 8, dtype=np.float64)
    destination = np.empty_like(source)
    rates = []
    for _ in range(repeats):
        started = time.perf_counter()
        np.copyto(destination, source)
        elapsed = time.perf_counter() - started
        rates.append(buffer_bytes / max(elapsed, 1e-9))
    return max(rates)  # the least-disturbed trial


def measure_memory_latency(
    object_bytes: int = 512, samples: int = 4096, repeats: int = 3
) -> float:
    """Per-copy startup overhead in seconds for object-sized random copies.

    Times ``samples`` copies of one 512-byte object at random offsets and
    subtracts the bandwidth-predicted transfer time, leaving the fixed
    startup cost (cache misses + dispatch).
    """
    bandwidth = measure_memory_bandwidth(repeats=2)
    pool_objects = 65_536
    cells = object_bytes // 4
    pool = np.zeros((pool_objects, cells), dtype=np.uint32)
    destination = np.zeros((samples, cells), dtype=np.uint32)
    rng = np.random.default_rng(0)
    best = float("inf")
    for _ in range(repeats):
        ids = rng.integers(0, pool_objects, size=samples)
        started = time.perf_counter()
        destination[:] = pool[ids]
        elapsed = time.perf_counter() - started
        per_copy = elapsed / samples - object_bytes / bandwidth
        best = min(best, max(per_copy, 0.0))
    return best


def measure_lock_overhead(iterations: int = 20_000, repeats: int = 3) -> float:
    """Cost in seconds of one uncontested lock acquire/release pair."""
    import threading

    lock = threading.Lock()
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(iterations):
            lock.acquire()
            lock.release()
        elapsed = time.perf_counter() - started
        best = min(best, elapsed / iterations)
    return best


def measure_bit_test_overhead(
    num_bits: int = 1 << 20, samples: int = 262_144, repeats: int = 3
) -> float:
    """Per-update cost in seconds of vectorized dirty-bit test-and-set.

    The validation implementation maintains dirty bits with numpy fancy
    indexing, so the relevant ``Obit`` is the amortized per-element cost of
    ``bits[ids] = True`` plus a membership test over random ids.
    """
    bits = np.zeros(num_bits, dtype=bool)
    rng = np.random.default_rng(0)
    best = float("inf")
    for _ in range(repeats):
        ids = rng.integers(0, num_bits, size=samples)
        started = time.perf_counter()
        _ = bits[ids]
        bits[ids] = True
        elapsed = time.perf_counter() - started
        best = min(best, elapsed / samples)
        bits.fill(False)
    return best


def measure_disk_bandwidth(
    directory: Optional[str] = None,
    file_bytes: int = 64 * 1024 * 1024,
    repeats: int = 2,
) -> float:
    """Sequential write bandwidth in bytes/second to ``directory``.

    Writes and fsyncs a large file, as the paper does with "large sequential
    writes to a block device allocated to our recovery disk".
    """
    payload = os.urandom(min(file_bytes, 8 * 1024 * 1024))
    chunks = max(1, file_bytes // len(payload))
    rates = []
    for _ in range(repeats):
        with tempfile.NamedTemporaryFile(dir=directory, delete=True) as handle:
            started = time.perf_counter()
            for _ in range(chunks):
                handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
            elapsed = time.perf_counter() - started
        rates.append(chunks * len(payload) / max(elapsed, 1e-9))
    return max(rates)  # the least-disturbed trial


def measure_host_parameters(
    tick_frequency_hz: float = 30.0,
    disk_directory: Optional[str] = None,
    quick: bool = False,
) -> HardwareParameters:
    """Measure all Table 3 parameters on the current host.

    With ``quick=True`` the benchmarks use smaller buffers and fewer repeats
    (suitable for tests); accuracy drops but the orders of magnitude hold.
    """
    if quick:
        return HardwareParameters(
            tick_frequency_hz=tick_frequency_hz,
            memory_bandwidth=measure_memory_bandwidth(
                buffer_bytes=4 * 1024 * 1024, repeats=2
            ),
            memory_latency=measure_memory_latency(samples=1024, repeats=2),
            lock_overhead=measure_lock_overhead(iterations=5_000, repeats=2),
            bit_test_overhead=measure_bit_test_overhead(
                samples=65_536, repeats=2
            ),
            disk_bandwidth=measure_disk_bandwidth(
                directory=disk_directory, file_bytes=8 * 1024 * 1024, repeats=1
            ),
        )
    return HardwareParameters(
        tick_frequency_hz=tick_frequency_hz,
        memory_bandwidth=measure_memory_bandwidth(),
        memory_latency=measure_memory_latency(),
        lock_overhead=measure_lock_overhead(),
        bit_test_overhead=measure_bit_test_overhead(),
        disk_bandwidth=measure_disk_bandwidth(directory=disk_directory),
    )
