"""Tests for the Zipf distribution and trace generator."""

import numpy as np
import pytest

from repro.config import StateGeometry
from repro.errors import TraceError
from repro.workloads.zipf import ZipfDistribution, ZipfTrace


@pytest.fixture
def geometry():
    return StateGeometry(rows=1_000, columns=10)


class TestZipfDistribution:
    def test_rejects_bad_skew(self):
        with pytest.raises(TraceError):
            ZipfDistribution(10, 1.0)
        with pytest.raises(TraceError):
            ZipfDistribution(10, -0.1)

    def test_rejects_empty_domain(self):
        with pytest.raises(TraceError):
            ZipfDistribution(0, 0.5)

    def test_samples_in_range(self):
        dist = ZipfDistribution(100, 0.8)
        rng = np.random.default_rng(0)
        samples = dist.sample(10_000, rng)
        assert samples.min() >= 0
        assert samples.max() < 100

    def test_theta_zero_is_uniform(self):
        dist = ZipfDistribution(10, 0.0)
        rng = np.random.default_rng(0)
        samples = dist.sample(100_000, rng)
        counts = np.bincount(samples, minlength=10)
        # Every item within 10% of the uniform expectation.
        assert (np.abs(counts - 10_000) < 1_000).all()

    def test_skew_concentrates_on_low_ranks(self):
        dist = ZipfDistribution(1_000, 0.9)
        rng = np.random.default_rng(0)
        samples = dist.sample(100_000, rng)
        top_ten_share = (samples < 10).mean()
        assert top_ten_share > 0.25

    def test_higher_skew_fewer_uniques(self):
        rng = np.random.default_rng(0)
        uniques = []
        for theta in (0.0, 0.5, 0.9):
            samples = ZipfDistribution(10_000, theta).sample(20_000, rng)
            uniques.append(np.unique(samples).size)
        assert uniques[0] > uniques[1] > uniques[2]

    def test_probability_matches_frequency(self):
        dist = ZipfDistribution(50, 0.8)
        rng = np.random.default_rng(1)
        samples = dist.sample(200_000, rng)
        observed = (samples == 0).mean()
        assert observed == pytest.approx(dist.probability(1), rel=0.05)

    def test_probability_rank_bounds(self):
        dist = ZipfDistribution(50, 0.8)
        with pytest.raises(TraceError):
            dist.probability(0)
        with pytest.raises(TraceError):
            dist.probability(51)

    def test_probabilities_sum_to_one(self):
        dist = ZipfDistribution(200, 0.6)
        total = sum(dist.probability(rank) for rank in range(1, 201))
        assert total == pytest.approx(1.0)

    def test_single_item_domain(self):
        dist = ZipfDistribution(1, 0.5)
        rng = np.random.default_rng(0)
        assert (dist.sample(100, rng) == 0).all()

    def test_single_item_domain_probability(self):
        assert ZipfDistribution(1, 0.5).probability(1) == pytest.approx(1.0)

    def test_two_item_domain(self):
        # n = 2 takes the degenerate branch where Gray's eta formula would
        # divide by zero; the sampler must still match exact probabilities.
        dist = ZipfDistribution(2, 0.8)
        rng = np.random.default_rng(3)
        samples = dist.sample(100_000, rng)
        assert set(np.unique(samples)) <= {0, 1}
        assert (samples == 0).mean() == pytest.approx(
            dist.probability(1), abs=0.01
        )
        assert dist.probability(1) + dist.probability(2) == pytest.approx(1.0)

    def test_theta_zero_exact_uniform_probabilities(self):
        dist = ZipfDistribution(7, 0.0)
        for rank in range(1, 8):
            assert dist.probability(rank) == pytest.approx(1.0 / 7.0)

    @pytest.mark.parametrize("n, theta", [
        (2, 0.8), (10, 0.0), (1_000, 0.99), (100_000, 0.5),
        (1_000_000, 0.8),
    ])
    def test_sample_matches_grays_expression(self, n, theta):
        """The in-place sampler draws exactly what Gray's inverse transform,
        written as one expression with ``np.where``, draws."""
        dist = ZipfDistribution(n, theta)
        u = np.random.default_rng(11).random(50_000)
        uz = u * dist._zetan
        tail = 1.0 + np.floor(n * (dist._eta * u - dist._eta + 1.0)
                              ** dist._alpha)
        ranks = np.where(uz < 1.0, 1.0,
                         np.where(uz < dist._zeta2, 2.0, tail))
        expected = np.clip(ranks, 1, n).astype(np.int64) - 1
        drawn = dist.sample(50_000, np.random.default_rng(11))
        assert drawn.dtype == expected.dtype
        assert np.array_equal(drawn, expected)


class TestZipfTrace:
    def test_tick_count_and_sizes(self, geometry):
        trace = ZipfTrace(geometry, updates_per_tick=100, num_ticks=5)
        ticks = list(trace.ticks())
        assert len(ticks) == 5
        assert all(cells.size == 100 for cells in ticks)

    def test_cells_in_range(self, geometry):
        trace = ZipfTrace(geometry, updates_per_tick=1_000, num_ticks=3)
        for cells in trace.ticks():
            assert cells.min() >= 0
            assert cells.max() < geometry.num_cells

    def test_deterministic_replay(self, geometry):
        trace = ZipfTrace(geometry, updates_per_tick=100, num_ticks=4, seed=9)
        first = [cells.copy() for cells in trace.ticks()]
        second = list(trace.ticks())
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_different_seeds_differ(self, geometry):
        a = next(iter(ZipfTrace(geometry, 100, num_ticks=1, seed=1)))
        b = next(iter(ZipfTrace(geometry, 100, num_ticks=1, seed=2)))
        assert not np.array_equal(a, b)

    def test_unscrambled_hot_rows_are_contiguous(self, geometry):
        # Without scrambling, the hottest rows are the lowest row ids, so
        # high skew concentrates updates on low cell indices.
        trace = ZipfTrace(
            geometry, updates_per_tick=5_000, skew=0.95, num_ticks=1,
            scramble=False,
        )
        cells = next(iter(trace))
        rows = cells // geometry.columns
        assert np.median(rows) < geometry.rows * 0.1

    def test_scramble_spreads_hot_rows(self, geometry):
        trace = ZipfTrace(
            geometry, updates_per_tick=5_000, skew=0.95, num_ticks=1,
            scramble=True,
        )
        cells = next(iter(trace))
        rows = cells // geometry.columns
        assert np.median(rows) > geometry.rows * 0.2

    def test_zero_updates(self, geometry):
        trace = ZipfTrace(geometry, updates_per_tick=0, num_ticks=2)
        assert all(cells.size == 0 for cells in trace.ticks())

    def test_rejects_negative_updates(self, geometry):
        with pytest.raises(TraceError):
            ZipfTrace(geometry, updates_per_tick=-1)

    def test_materialize_matches_stream(self, geometry):
        trace = ZipfTrace(geometry, updates_per_tick=50, num_ticks=3, seed=4)
        materialized = trace.materialize()
        for a, b in zip(trace.ticks(), materialized.ticks()):
            assert np.array_equal(a, b)

    def test_single_row_single_column_domain(self):
        geometry = StateGeometry(rows=1, columns=1)
        trace = ZipfTrace(geometry, updates_per_tick=10, num_ticks=3, seed=0)
        for cells in trace.ticks():
            assert (cells == 0).all()

    def test_two_row_domain(self):
        geometry = StateGeometry(rows=2, columns=2)
        trace = ZipfTrace(
            geometry, updates_per_tick=1_000, skew=0.8, num_ticks=1
        )
        cells = next(iter(trace))
        assert cells.min() >= 0
        assert cells.max() < geometry.num_cells

    def test_scramble_is_consistent_row_bijection(self, geometry):
        # Scrambling only relabels rows through one fixed permutation: the
        # same seed must produce the same per-update (row rank, column)
        # stream, with scrambled rows related to plain rows by a mapping
        # that is consistent across every tick and invertible.
        plain = ZipfTrace(
            geometry, updates_per_tick=2_000, skew=0.9, num_ticks=3,
            seed=7, scramble=False,
        )
        scrambled = ZipfTrace(
            geometry, updates_per_tick=2_000, skew=0.9, num_ticks=3,
            seed=7, scramble=True,
        )
        mapping = {}
        for a, b in zip(plain.ticks(), scrambled.ticks()):
            # Columns are untouched by the permutation.
            assert np.array_equal(
                a % geometry.columns, b % geometry.columns
            )
            for row_a, row_b in zip(a // geometry.columns,
                                    b // geometry.columns):
                assert mapping.setdefault(int(row_a), int(row_b)) == row_b
        # Injective: distinct plain rows land on distinct scrambled rows.
        assert len(set(mapping.values())) == len(mapping)

    def test_scramble_deterministic_across_instances(self, geometry):
        kwargs = dict(updates_per_tick=500, skew=0.9, num_ticks=2, seed=11,
                      scramble=True)
        first = list(ZipfTrace(geometry, **kwargs).ticks())
        second = list(ZipfTrace(geometry, **kwargs).ticks())
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
