"""End-to-end integration tests reproducing the paper's qualitative claims.

These exercise the full pipeline (synthetic data -> protocol -> estimator ->
workload evaluation) at a scale that is small enough for CI but large enough
that the paper's robust qualitative conclusions (flat loses on long ranges,
consistency helps, hierarchical/wavelet methods are comparable, error drops
with epsilon and N) show up reliably with seeded randomness.
"""

import numpy as np
import pytest

from repro.analysis.metrics import mean_squared_error
from repro.data import cauchy_population, zipf_population
from repro.experiments.runner import WorkloadEvaluation, evaluate_method, make_method
from repro.flat import FlatRangeQuery
from repro.hierarchy import HierarchicalHistogram
from repro.queries.workload import RangeWorkload, all_range_workload, length_workload
from repro.wavelet import HaarHRR

DOMAIN = 256
N_USERS = 100_000
EPSILON = 1.1


def _thinned_ranges(step):
    """Every ``step``-th range of the exhaustive workload (for speed)."""
    full = all_range_workload(DOMAIN)
    return RangeWorkload(full.lefts[::step], full.rights[::step], DOMAIN)


@pytest.fixture(scope="module")
def population():
    return cauchy_population(DOMAIN, N_USERS, center_fraction=0.4, rng=99)


@pytest.fixture(scope="module")
def workload(population):
    freqs = population.frequencies()
    queries = _thinned_ranges(7)
    return WorkloadEvaluation.from_frequencies(queries, freqs)


def _mse(protocol, population, workload, seeds=(1, 2, 3)):
    errors = []
    for seed in seeds:
        estimator = protocol.simulate_aggregate(population.counts(), rng=seed)
        errors.append(
            mean_squared_error(estimator.range_queries(workload.queries), workload.truths)
        )
    return float(np.mean(errors))


class TestHeadlineComparisons:
    def test_hierarchical_and_wavelet_beat_flat_on_average(self, population, workload):
        flat = _mse(FlatRangeQuery(DOMAIN, EPSILON), population, workload)
        hh = _mse(HierarchicalHistogram(DOMAIN, EPSILON, branching=4), population, workload)
        haar = _mse(HaarHRR(DOMAIN, EPSILON), population, workload)
        assert hh < flat
        assert haar < flat

    def test_flat_wins_point_queries(self, population):
        freqs = population.frequencies()
        point_workload = WorkloadEvaluation.from_frequencies(
            length_workload(DOMAIN, 1), freqs
        )
        flat = _mse(FlatRangeQuery(DOMAIN, EPSILON), population, point_workload)
        hh2 = _mse(
            HierarchicalHistogram(DOMAIN, EPSILON, branching=2), population, point_workload
        )
        assert flat < hh2

    def test_hierarchical_and_wavelet_are_comparable(self, population, workload):
        """Paper: the regret for picking the 'wrong' method is small."""
        hh = _mse(HierarchicalHistogram(DOMAIN, EPSILON, branching=4), population, workload)
        haar = _mse(HaarHRR(DOMAIN, EPSILON), population, workload)
        ratio = max(hh, haar) / min(hh, haar)
        assert ratio < 2.5

    def test_consistency_never_hurts_much_and_usually_helps(self, population, workload):
        for branching in (4, 16):
            raw = _mse(
                HierarchicalHistogram(DOMAIN, EPSILON, branching=branching, consistency=False),
                population,
                workload,
            )
            consistent = _mse(
                HierarchicalHistogram(DOMAIN, EPSILON, branching=branching, consistency=True),
                population,
                workload,
            )
            assert consistent < raw * 1.1

    def test_wavelet_preferred_at_high_privacy(self, population, workload):
        """Paper: HaarHRR dominates for small epsilon (high privacy)."""
        haar = _mse(HaarHRR(DOMAIN, 0.2), population, workload, seeds=(1, 2, 3, 4))
        hh16 = _mse(
            HierarchicalHistogram(DOMAIN, 0.2, branching=16), population, workload, seeds=(1, 2, 3, 4)
        )
        assert haar < hh16


class TestScalingBehaviour:
    def test_error_decreases_with_population(self, workload):
        small = cauchy_population(DOMAIN, 20_000, rng=1)
        large = cauchy_population(DOMAIN, 200_000, rng=1)
        small_workload = WorkloadEvaluation.from_frequencies(
            workload.queries, small.frequencies()
        )
        large_workload = WorkloadEvaluation.from_frequencies(
            workload.queries, large.frequencies()
        )
        protocol = HierarchicalHistogram(DOMAIN, EPSILON, branching=4)
        assert _mse(protocol, large, large_workload) < _mse(protocol, small, small_workload)

    def test_error_decreases_with_epsilon(self, population, workload):
        protocol_low = HaarHRR(DOMAIN, 0.2)
        protocol_high = HaarHRR(DOMAIN, 1.4)
        assert _mse(protocol_high, population, workload) < _mse(
            protocol_low, population, workload
        )

    def test_measured_error_within_theoretical_bound(self, population):
        """Worst-case bounds from the paper hold for the measured average."""
        freqs = population.frequencies()
        length = 64
        queries = length_workload(DOMAIN, length)
        workload = WorkloadEvaluation.from_frequencies(queries, freqs)
        for protocol in (
            FlatRangeQuery(DOMAIN, EPSILON),
            HierarchicalHistogram(DOMAIN, EPSILON, branching=4),
            HaarHRR(DOMAIN, EPSILON),
        ):
            measured = _mse(protocol, population, workload)
            bound = protocol.theoretical_range_variance(length, population.n_users)
            assert measured < bound * 3.0

    def test_conclusions_hold_for_skewed_data(self):
        """The paper notes results are insensitive to the data distribution."""
        data = zipf_population(DOMAIN, N_USERS, exponent=1.2, rng=5)
        freqs = data.frequencies()
        queries = _thinned_ranges(11)
        workload = WorkloadEvaluation.from_frequencies(queries, freqs)
        flat = _mse(FlatRangeQuery(DOMAIN, EPSILON), data, workload)
        hh = _mse(HierarchicalHistogram(DOMAIN, EPSILON, branching=4), data, workload)
        assert hh < flat


class TestRunnerIntegration:
    def test_evaluate_method_agrees_with_manual_loop(self, population, workload):
        protocol = make_method("HHc4", DOMAIN, EPSILON)
        result = evaluate_method(
            protocol, population.counts(), workload, repetitions=3, rng=0
        )
        manual = _mse(HierarchicalHistogram(DOMAIN, EPSILON, branching=4), population, workload)
        assert result.mse_mean == pytest.approx(manual, rel=1.5)
        assert result.mse_std >= 0
