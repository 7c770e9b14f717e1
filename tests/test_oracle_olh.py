"""Tests for the Optimal Local Hashing oracle."""

import numpy as np
import pytest

import repro.frequency_oracles.olh as olh_module
from repro.frequency_oracles import OptimalLocalHashing
from repro.frequency_oracles.base import standard_oracle_variance


class TestConfiguration:
    def test_default_bucket_count(self):
        oracle = OptimalLocalHashing(64, np.log(3.0))
        assert oracle.num_buckets == 4  # e^eps + 1 = 4

    def test_custom_bucket_count(self):
        oracle = OptimalLocalHashing(64, 1.0, num_buckets=8)
        assert oracle.num_buckets == 8

    def test_rejects_tiny_bucket_count(self):
        with pytest.raises(ValueError):
            OptimalLocalHashing(64, 1.0, num_buckets=1)

    def test_variance_matches_standard_bound_at_optimum(self):
        oracle = OptimalLocalHashing(64, 1.1)
        assert oracle.variance_per_user() == pytest.approx(standard_oracle_variance(1.1))


class TestProtocol:
    def test_reports_within_bucket_range(self, rng):
        oracle = OptimalLocalHashing(32, 1.0)
        items = rng.integers(0, 32, size=2000)
        reports = oracle.privatize(items, rng=rng)
        assert reports.buckets.min() >= 0
        assert reports.buckets.max() < oracle.num_buckets
        assert len(reports) == 2000

    def test_estimates_recover_distribution(self, rng):
        oracle = OptimalLocalHashing(16, 3.0)
        probabilities = np.concatenate([[0.4, 0.2, 0.1], np.full(13, 0.3 / 13)])
        items = rng.choice(16, size=30_000, p=probabilities)
        estimates = oracle.estimate(items, rng=rng)
        assert np.allclose(estimates[:3], probabilities[:3], atol=0.05)

    def test_aggregate_rejects_mismatched_buckets(self, rng):
        a = OptimalLocalHashing(16, 1.0, num_buckets=4)
        b = OptimalLocalHashing(16, 1.0, num_buckets=8)
        reports = a.privatize(np.zeros(10, dtype=int), rng=rng)
        with pytest.raises(ValueError):
            b.aggregate(reports, n_users=10)

    def test_simulation_unbiased(self, rng):
        oracle = OptimalLocalHashing(16, 1.1)
        counts = rng.integers(100, 1000, size=16).astype(float)
        repeats = np.array(
            [oracle.estimate_from_counts(counts, rng=rng) for _ in range(200)]
        )
        assert np.allclose(repeats.mean(axis=0), counts / counts.sum(), atol=0.02)

    def test_chunked_aggregation_matches_single_chunk(self, monkeypatch):
        items = np.arange(64).repeat(10)
        oracle = OptimalLocalHashing(64, 1.0)
        reports = oracle.privatize(items, rng=np.random.default_rng(0))
        monkeypatch.setattr(olh_module, "AGGREGATION_CHUNK", 7)
        est_chunked = oracle.aggregate(reports, n_users=len(items))
        monkeypatch.setattr(olh_module, "AGGREGATION_CHUNK", 10_000)
        est_unchunked = oracle.aggregate(reports, n_users=len(items))
        assert np.array_equal(est_chunked, est_unchunked)
