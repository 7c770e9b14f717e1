"""Tests for the centralized-DP baselines used in the Figure 7 comparison."""

import numpy as np
import pytest

from repro.centralized import (
    CentralizedHierarchical,
    CentralizedWavelet,
    haar_l1_sensitivity,
    laplace_mechanism,
    laplace_noise_scale,
    laplace_variance,
)
from repro.hierarchy import consistency_violation


class TestLaplacePrimitives:
    def test_noise_scale(self):
        assert laplace_noise_scale(2.0, 1.0) == pytest.approx(0.5)
        assert laplace_noise_scale(0.5, 3.0) == pytest.approx(6.0)
        with pytest.raises(ValueError):
            laplace_noise_scale(1.0, 0.0)

    def test_variance(self):
        assert laplace_variance(1.0, 1.0) == pytest.approx(2.0)
        assert laplace_variance(2.0, 1.0) == pytest.approx(0.5)

    def test_mechanism_is_unbiased(self, rng):
        values = np.array([10.0, 20.0, 30.0])
        repeats = np.array(
            [laplace_mechanism(values, 1.0, rng=rng) for _ in range(2000)]
        )
        assert np.allclose(repeats.mean(axis=0), values, atol=0.2)

    def test_mechanism_spread_matches_scale(self, rng):
        repeats = np.array(
            [laplace_mechanism(np.zeros(1), 0.5, rng=rng)[0] for _ in range(4000)]
        )
        assert repeats.var() == pytest.approx(laplace_variance(0.5), rel=0.2)


class TestCentralizedHierarchical:
    def test_estimates_close_to_truth(self, small_cauchy):
        mechanism = CentralizedHierarchical(small_cauchy.domain_size, 1.0, branching=2)
        estimator = mechanism.run(small_cauchy.counts(), rng=1)
        truth = small_cauchy.frequencies()
        # Centralized noise at N = 20k users is tiny.
        assert estimator.range_query((10, 40)) == pytest.approx(
            truth[10:41].sum(), abs=0.01
        )

    def test_consistency_applied(self, small_cauchy):
        mechanism = CentralizedHierarchical(small_cauchy.domain_size, 1.0, branching=4)
        estimator = mechanism.run(small_cauchy.counts(), rng=2)
        assert consistency_violation(estimator.level_fractions, 4) < 1e-9

    def test_without_consistency(self, small_cauchy):
        mechanism = CentralizedHierarchical(
            small_cauchy.domain_size, 1.0, branching=4, consistency=False
        )
        estimator = mechanism.run(small_cauchy.counts(), rng=3)
        assert not estimator.is_consistent

    def test_more_privacy_means_more_error(self, small_cauchy):
        counts = small_cauchy.counts()
        truth = small_cauchy.frequencies()[5:60].sum()
        errors = {}
        for epsilon in (0.05, 5.0):
            mechanism = CentralizedHierarchical(small_cauchy.domain_size, epsilon, branching=2)
            answers = [
                mechanism.run(counts, rng=seed).range_query((5, 59)) for seed in range(10)
            ]
            errors[epsilon] = np.mean([(answer - truth) ** 2 for answer in answers])
        assert errors[0.05] > errors[5.0]

    def test_per_node_noise_variance(self):
        mechanism = CentralizedHierarchical(256, 1.0, branching=2)
        assert mechanism.per_node_noise_variance(1000) == pytest.approx(
            2 * (8 / 1.0) ** 2 / 1000**2
        )

    def test_input_validation(self, small_cauchy):
        mechanism = CentralizedHierarchical(small_cauchy.domain_size, 1.0)
        with pytest.raises(ValueError):
            mechanism.run(np.ones(10), rng=0)
        with pytest.raises(ValueError):
            mechanism.run(np.zeros(small_cauchy.domain_size), rng=0)


class TestCentralizedWavelet:
    def test_sensitivity_bounded(self):
        assert haar_l1_sensitivity(2) == pytest.approx(1 / np.sqrt(2) + 1 / np.sqrt(2))
        assert haar_l1_sensitivity(1024) < 1 + np.sqrt(2) + 1

    def test_estimates_close_to_truth(self, small_cauchy):
        mechanism = CentralizedWavelet(small_cauchy.domain_size, 1.0)
        estimator = mechanism.run(small_cauchy.counts(), rng=4)
        truth = small_cauchy.frequencies()
        assert estimator.range_query((10, 40)) == pytest.approx(
            truth[10:41].sum(), abs=0.01
        )

    def test_full_range_exact(self, small_cauchy):
        mechanism = CentralizedWavelet(small_cauchy.domain_size, 0.2)
        estimator = mechanism.run(small_cauchy.counts(), rng=5)
        assert estimator.range_query((0, small_cauchy.domain_size - 1)) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_per_coefficient_noise_variance_uniform(self):
        mechanism = CentralizedWavelet(256, 1.0, allocation="uniform")
        expected = 2 * (mechanism.sensitivity / 1.0) ** 2 / 1000**2
        assert mechanism.per_coefficient_noise_variance(1000) == pytest.approx(expected)

    def test_weighted_allocation_gives_coarse_levels_less_noise(self):
        mechanism = CentralizedWavelet(256, 1.0, allocation="weighted")
        fine = mechanism.per_coefficient_noise_variance(1000, height_j=1)
        coarse = mechanism.per_coefficient_noise_variance(1000, height_j=8)
        assert coarse < fine

    def test_weighted_beats_uniform_on_long_ranges(self, small_cauchy):
        counts = small_cauchy.counts()
        truth = small_cauchy.frequencies()[5:60].sum()

        def mse(allocation):
            errors = []
            for seed in range(12):
                mechanism = CentralizedWavelet(
                    small_cauchy.domain_size, 0.1, allocation=allocation
                )
                answer = mechanism.run(counts, rng=seed).range_query((5, 59))
                errors.append((answer - truth) ** 2)
            return np.mean(errors)

        assert mse("weighted") < mse("uniform")

    def test_invalid_allocation_rejected(self):
        with pytest.raises(ValueError):
            CentralizedWavelet(256, 1.0, allocation="other")

    def test_input_validation(self, small_cauchy):
        mechanism = CentralizedWavelet(small_cauchy.domain_size, 1.0)
        with pytest.raises(ValueError):
            mechanism.run(np.ones(10), rng=0)
        with pytest.raises(ValueError):
            mechanism.run(np.zeros(small_cauchy.domain_size), rng=0)

    def test_centralized_error_much_lower_than_local(self, small_cauchy):
        """Sanity check on the central-vs-local gap (1/N^2 vs 1/N scaling)."""
        from repro.wavelet import HaarHRR

        counts = small_cauchy.counts()
        truth = small_cauchy.frequencies()[8:48].sum()
        central = CentralizedWavelet(small_cauchy.domain_size, 1.0)
        local = HaarHRR(small_cauchy.domain_size, 1.0)
        central_errors = [
            (central.run(counts, rng=seed).range_query((8, 47)) - truth) ** 2
            for seed in range(8)
        ]
        local_errors = [
            (local.simulate_aggregate(counts, rng=seed).range_query((8, 47)) - truth) ** 2
            for seed in range(8)
        ]
        assert np.mean(central_errors) < np.mean(local_errors)
