"""Tests for the hierarchical-histogram protocol (Sections 4.3-4.5)."""

import numpy as np
import pytest

from repro.core.exceptions import InvalidRangeError, ProtocolUsageError
from repro.hierarchy import HierarchicalHistogram, consistency_violation


class TestConfiguration:
    def test_naming_matches_paper(self):
        assert HierarchicalHistogram(64, 1.0, oracle="oue").name == "TreeOUECI"
        assert (
            HierarchicalHistogram(64, 1.0, oracle="hrr", consistency=False).name
            == "TreeHRR"
        )
        assert HierarchicalHistogram(64, 1.0, oracle="olh").name == "TreeOLHCI"

    def test_level_probabilities_default_uniform(self):
        protocol = HierarchicalHistogram(64, 1.0, branching=2)
        probs = protocol.level_probabilities
        assert len(probs) == 6
        assert np.allclose(probs, 1.0 / 6.0)

    def test_level_probabilities_normalised(self):
        protocol = HierarchicalHistogram(
            16, 1.0, branching=2, level_probabilities=[1, 1, 1, 1]
        )
        assert np.allclose(protocol.level_probabilities, 0.25)

    def test_level_probabilities_validated(self):
        with pytest.raises(ValueError):
            HierarchicalHistogram(16, 1.0, branching=2, level_probabilities=[0.5, 0.5])

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError):
            HierarchicalHistogram(16, 1.0, level_strategy="other")

    def test_domain_of_one_rejected(self):
        with pytest.raises(ValueError):
            HierarchicalHistogram(1, 1.0)


class TestEndToEnd:
    @pytest.mark.parametrize("oracle", ["oue", "hrr", "grr"])
    def test_range_estimates_close_to_truth(self, small_cauchy, oracle):
        protocol = HierarchicalHistogram(
            small_cauchy.domain_size, 2.0, branching=4, oracle=oracle
        )
        estimator = protocol.run(small_cauchy.items, rng=3)
        truth = small_cauchy.frequencies()
        for left, right in [(0, 63), (10, 40), (5, 5), (32, 60)]:
            expected = truth[left : right + 1].sum()
            assert estimator.range_query((left, right)) == pytest.approx(expected, abs=0.12)

    def test_simulated_matches_per_user_statistically(self, small_cauchy):
        protocol = HierarchicalHistogram(
            small_cauchy.domain_size, 1.1, branching=4, oracle="oue"
        )
        truth = small_cauchy.frequencies()[10:41].sum()
        per_user = [
            protocol.run(small_cauchy.items, rng=seed).range_query((10, 40))
            for seed in range(8)
        ]
        simulated = [
            protocol.simulate_aggregate(small_cauchy.counts(), rng=100 + seed).range_query((10, 40))
            for seed in range(8)
        ]
        assert np.mean(per_user) == pytest.approx(truth, abs=0.08)
        assert np.mean(simulated) == pytest.approx(truth, abs=0.08)

    def test_zero_users_rejected(self):
        protocol = HierarchicalHistogram(16, 1.0)
        with pytest.raises(ProtocolUsageError):
            protocol.run(np.array([], dtype=int), rng=0)
        with pytest.raises(ProtocolUsageError):
            protocol.simulate_aggregate(np.zeros(16), rng=0)

    def test_simulated_counts_length_checked(self):
        protocol = HierarchicalHistogram(16, 1.0)
        with pytest.raises(ValueError):
            protocol.simulate_aggregate(np.ones(8), rng=0)

    def test_level_user_counts_partition_population(self, small_cauchy):
        protocol = HierarchicalHistogram(
            small_cauchy.domain_size, 1.1, branching=2, oracle="hrr"
        )
        estimator = protocol.run(small_cauchy.items, rng=5)
        counts = estimator.level_user_counts
        assert counts[0] == small_cauchy.n_users
        assert counts[1:].sum() == small_cauchy.n_users

    def test_split_strategy_runs(self, small_cauchy):
        protocol = HierarchicalHistogram(
            small_cauchy.domain_size,
            1.1,
            branching=4,
            oracle="hrr",
            level_strategy="split",
        )
        estimator = protocol.simulate_aggregate(small_cauchy.counts(), rng=4)
        truth = small_cauchy.frequencies()[0:32].sum()
        assert estimator.range_query((0, 31)) == pytest.approx(truth, abs=0.2)


class TestEstimator:
    def test_consistency_enforced(self, small_cauchy):
        protocol = HierarchicalHistogram(
            small_cauchy.domain_size, 1.1, branching=4, oracle="oue", consistency=True
        )
        estimator = protocol.simulate_aggregate(small_cauchy.counts(), rng=6)
        assert estimator.is_consistent
        assert consistency_violation(estimator.level_fractions, 4) < 1e-9

    def test_inconsistent_estimator_can_be_fixed(self, small_cauchy):
        protocol = HierarchicalHistogram(
            small_cauchy.domain_size, 1.1, branching=4, oracle="oue", consistency=False
        )
        estimator = protocol.simulate_aggregate(small_cauchy.counts(), rng=6)
        assert not estimator.is_consistent
        fixed = estimator.with_consistency()
        assert fixed.is_consistent
        assert consistency_violation(fixed.level_fractions, 4) < 1e-9
        # Applying again is a no-op object-wise.
        assert fixed.with_consistency() is fixed

    def test_consistent_answers_match_leaf_sums(self, small_cauchy):
        protocol = HierarchicalHistogram(
            small_cauchy.domain_size, 1.1, branching=2, oracle="hrr", consistency=True
        )
        estimator = protocol.simulate_aggregate(small_cauchy.counts(), rng=7)
        freqs = estimator.estimated_frequencies()
        for left, right in [(0, 10), (5, 50), (33, 63)]:
            assert estimator.range_query((left, right)) == pytest.approx(
                freqs[left : right + 1].sum(), abs=1e-9
            )

    def test_range_query_bounds_checked(self, small_cauchy):
        protocol = HierarchicalHistogram(small_cauchy.domain_size, 1.1)
        estimator = protocol.simulate_aggregate(small_cauchy.counts(), rng=8)
        with pytest.raises(InvalidRangeError):
            estimator.range_query((0, small_cauchy.domain_size))

    def test_batch_queries_match_single_queries(self, small_cauchy):
        protocol = HierarchicalHistogram(small_cauchy.domain_size, 1.1, branching=4)
        estimator = protocol.simulate_aggregate(small_cauchy.counts(), rng=9)
        queries = [(0, 5), (3, 40), (20, 63)]
        batch = estimator.range_queries(queries)
        singles = [estimator.range_query(query) for query in queries]
        assert np.allclose(batch, singles)

    def test_node_value_accessor(self, small_cauchy):
        protocol = HierarchicalHistogram(small_cauchy.domain_size, 1.1, branching=4)
        estimator = protocol.simulate_aggregate(small_cauchy.counts(), rng=10)
        assert estimator.node_value(0, 0) == pytest.approx(1.0)


class TestTheory:
    def test_variance_bound_decreases_with_users(self):
        protocol = HierarchicalHistogram(1024, 1.1, branching=4)
        assert protocol.theoretical_range_variance(100, 10_000) > (
            protocol.theoretical_range_variance(100, 1_000_000)
        )

    def test_consistency_tightens_bound(self):
        loose = HierarchicalHistogram(1024, 1.1, branching=8, consistency=False)
        tight = HierarchicalHistogram(1024, 1.1, branching=8, consistency=True)
        assert tight.theoretical_range_variance(256, 10**5) < (
            loose.theoretical_range_variance(256, 10**5)
        )

    def test_split_strategy_pays_height_penalty(self):
        sample = HierarchicalHistogram(1024, 1.1, branching=2, level_strategy="sample")
        split = HierarchicalHistogram(1024, 1.1, branching=2, level_strategy="split")
        assert split.theoretical_range_variance(512, 10**5) > (
            sample.theoretical_range_variance(512, 10**5)
        )

    def test_variance_bound_validation(self):
        protocol = HierarchicalHistogram(64, 1.1)
        with pytest.raises(ValueError):
            protocol.theoretical_range_variance(0, 100)
        with pytest.raises(ValueError):
            protocol.theoretical_range_variance(10, 0)
