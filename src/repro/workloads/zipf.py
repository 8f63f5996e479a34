"""Zipf-distributed synthetic update traces (paper Section 4.4, Table 4).

"We generate updates according to a Zipf distribution with parameter alpha.
We choose the row and column to update independently with the same
distribution."  The paper's Zipfian generator is from Gray et al.,
"Quickly Generating Billion-Record Synthetic Databases" (SIGMOD 1994); we
implement the same inverse-transform approximation, vectorized with numpy.
"""

from __future__ import annotations

import numpy as np

from repro.config import StateGeometry
from repro.errors import TraceError
from repro.workloads.base import GeneratedTrace


class ZipfDistribution:
    """Gray et al.'s constant-time Zipf sampler over ranks ``1..n``.

    With skew parameter ``theta`` in ``[0, 1)``, rank ``r`` is drawn with
    probability proportional to ``1 / r**theta``.  ``theta = 0`` degenerates
    to the uniform distribution.  Sampling is vectorized: :meth:`sample`
    draws any number of ranks with a handful of numpy operations.
    """

    def __init__(self, n: int, theta: float) -> None:
        if n <= 0:
            raise TraceError(f"Zipf domain size must be positive, got {n}")
        if not 0.0 <= theta < 1.0:
            raise TraceError(f"Zipf skew must be in [0, 1), got {theta}")
        self._n = n
        self._theta = theta
        # zeta(n, theta) = sum_{i=1..n} 1/i^theta.  Computed once; n is at
        # most the row count (1M in the paper's setup).
        ranks = np.arange(1, n + 1, dtype=np.float64)
        self._zetan = float((ranks**-theta).sum())
        self._zeta2 = 1.0 + 0.5**theta
        self._alpha = 1.0 / (1.0 - theta)
        if n <= 2:
            # Degenerate domains: zeta(2) == zeta(n), so the tail branch of
            # the inverse transform is never taken and eta is irrelevant
            # (Gray's formula would divide by zero at n = 2).
            self._eta = 0.0
        else:
            self._eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (
                1.0 - self._zeta2 / self._zetan
            )

    @property
    def n(self) -> int:
        """Number of items in the domain."""
        return self._n

    @property
    def theta(self) -> float:
        """Skew parameter (0 = uniform, -> 1 = maximally skewed)."""
        return self._theta

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` zero-based item indices (hot item is index 0)."""
        # Gray's rank 1 + floor(n * (eta*u - eta + 1)**alpha), except that
        # u*zetan < 1 draws rank 1 and u*zetan < zeta(2) rank 2: the same
        # operations in the same order, in place on one float buffer.
        u = rng.random(size)
        ranks = np.multiply(u, self._eta)
        np.subtract(ranks, self._eta, out=ranks)
        np.add(ranks, 1.0, out=ranks)
        np.power(ranks, self._alpha, out=ranks)
        np.multiply(ranks, self._n, out=ranks)
        np.floor(ranks, out=ranks)
        np.add(ranks, 1.0, out=ranks)
        uz = np.multiply(u, self._zetan, out=u)
        np.putmask(ranks, uz < self._zeta2, 2.0)
        np.putmask(ranks, uz < 1.0, 1.0)
        np.clip(ranks, 1, self._n, out=ranks)
        indices = ranks.astype(np.int64)
        indices -= 1
        return indices

    def probability(self, rank: int) -> float:
        """Exact probability of drawing the ``rank``-th hottest item (1-based)."""
        if not 1 <= rank <= self._n:
            raise TraceError(f"rank {rank} outside [1, {self._n}]")
        return (rank**-self._theta) / self._zetan


class ZipfTrace(GeneratedTrace):
    """The Table 4 synthetic workload.

    Each tick draws ``updates_per_tick`` cells; the row and column of every
    update are sampled independently from Zipf distributions with the same
    skew.  As in Gray et al.'s generator (which the paper uses), rank ``r``
    maps directly to row ``r``, so the hottest rows are contiguous and
    collapse into shared atomic objects -- this is what produces the paper's
    12 ms first-tick copy-on-update peak at 64,000 updates/tick.  Pass
    ``scramble=True`` to spread the ranks through a fixed random permutation
    instead (hot rows scattered across the table).

    Parameters mirror Table 4: 1,000 ticks over 10,000,000 cells with
    1,000...256,000 updates per tick and skew 0...0.99 (defaults in bold in
    the paper: 64,000 updates/tick, skew 0.8).
    """

    def __init__(
        self,
        geometry: StateGeometry,
        updates_per_tick: int,
        skew: float = 0.8,
        num_ticks: int = 1_000,
        seed: int = 0,
        scramble: bool = False,
    ) -> None:
        super().__init__(geometry, num_ticks, seed)
        if updates_per_tick < 0:
            raise TraceError(
                f"updates_per_tick must be >= 0, got {updates_per_tick}"
            )
        self._updates_per_tick = updates_per_tick
        self._skew = skew
        self._row_dist = ZipfDistribution(geometry.rows, skew)
        self._column_dist = ZipfDistribution(geometry.columns, skew)
        if scramble:
            perm_rng = np.random.default_rng(self.seed ^ 0x5EED_FACE)
            self._row_map = perm_rng.permutation(geometry.rows)
        else:
            self._row_map = None

    @property
    def updates_per_tick(self) -> int:
        """Number of cell updates drawn per tick."""
        return self._updates_per_tick

    @property
    def skew(self) -> float:
        """Zipf skew parameter alpha."""
        return self._skew

    def _generate_tick(self, tick: int, rng: np.random.Generator) -> np.ndarray:
        rows = self._row_dist.sample(self._updates_per_tick, rng)
        if self._row_map is not None:
            rows = self._row_map[rows]
        columns = self._column_dist.sample(self._updates_per_tick, rng)
        return self._geometry.cell_index(rows, columns)
