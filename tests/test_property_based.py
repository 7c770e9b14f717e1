"""Property-based tests (hypothesis) for the core data structures.

These check structural invariants for arbitrary inputs rather than specific
examples: B-adic decompositions tile ranges exactly, the Haar and Hadamard
transforms invert, constrained inference really enforces consistency and
preserves exact trees, and estimators stay internally consistent.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.types import RangeSpec, is_power_of, next_power_of
from repro.frequency_oracles.hadamard import fwht, hadamard_matrix, ifwht
from repro.hierarchy.badic import badic_decomposition, decomposition_size_bound, is_badic
from repro.core.postprocess import consistency_violation, tree_enforce_consistency
from repro.hierarchy.tree import DomainTree
from repro.wavelet.haar import (
    evaluate_range_from_coefficients,
    haar_transform,
    inverse_haar_transform,
)

# Keep hypothesis deadlines generous: numpy work inside properties can be
# slower on loaded CI machines.
COMMON_SETTINGS = settings(max_examples=60, deadline=None)


class TestPowerProperties:
    @given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=2, max_value=16))
    @COMMON_SETTINGS
    def test_next_power_is_power_and_bounds_value(self, value, base):
        power = next_power_of(base, value)
        assert power >= value
        assert is_power_of(base, power)
        # Minimality: the next smaller power of the base is below the value.
        if power > 1:
            assert power // base < value


class TestBAdicProperties:
    @given(
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=0, max_value=4000),
        st.integers(min_value=0, max_value=4000),
    )
    @COMMON_SETTINGS
    def test_decomposition_tiles_range_exactly(self, branching, a, b):
        left, right = min(a, b), max(a, b)
        blocks = badic_decomposition(left, right, branching)
        # Blocks are disjoint, consecutive and cover [left, right] exactly.
        position = left
        for block in blocks:
            assert block.start == position
            assert is_badic(block.start, block.length, branching)
            position = block.end + 1
        assert position == right + 1

    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=3000),
    )
    @COMMON_SETTINGS
    def test_block_count_within_fact3_bound(self, branching, length):
        blocks = badic_decomposition(0, length - 1, branching)
        assert len(blocks) <= decomposition_size_bound(length, branching)


class TestTransformProperties:
    @given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=2**30))
    @COMMON_SETTINGS
    def test_fwht_involution(self, log_size, seed):
        size = 2**log_size
        vector = np.random.default_rng(seed).normal(size=size)
        assert np.allclose(ifwht(fwht(vector)), vector)

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**30))
    @COMMON_SETTINGS
    def test_haar_roundtrip(self, log_size, seed):
        size = 2**log_size
        vector = np.random.default_rng(seed).random(size=size)
        assert np.allclose(inverse_haar_transform(haar_transform(vector)), vector)

    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=2**30),
        st.data(),
    )
    @COMMON_SETTINGS
    def test_haar_range_evaluation_matches_direct_sum(self, log_size, seed, data):
        size = 2**log_size
        vector = np.random.default_rng(seed).random(size=size)
        left = data.draw(st.integers(min_value=0, max_value=size - 1))
        right = data.draw(st.integers(min_value=left, max_value=size - 1))
        coefficients = haar_transform(vector)
        assert evaluate_range_from_coefficients(coefficients, left, right) == pytest.approx(
            vector[left : right + 1].sum()
        )

    @given(st.integers(min_value=1, max_value=5))
    @COMMON_SETTINGS
    def test_hadamard_matrix_is_orthogonal(self, log_size):
        size = 2**log_size
        matrix = hadamard_matrix(size)
        assert np.allclose(matrix @ matrix, size * np.eye(size))


class TestConsistencyProperties:
    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=0, max_value=2**30),
    )
    @COMMON_SETTINGS
    def test_constrained_inference_enforces_consistency(self, branching, height, seed):
        rng = np.random.default_rng(seed)
        levels = [
            rng.normal(0.5, 0.2, size=branching**depth) for depth in range(height + 1)
        ]
        adjusted = tree_enforce_consistency(levels, branching, root_value=1.0)
        assert consistency_violation(adjusted, branching) < 1e-8
        assert adjusted[0][0] == pytest.approx(1.0)

    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=0, max_value=2**30),
    )
    @COMMON_SETTINGS
    def test_exact_trees_are_fixed_points(self, branching, height, seed):
        rng = np.random.default_rng(seed)
        domain = branching**height
        counts = rng.integers(1, 100, size=domain).astype(float)
        tree = DomainTree(domain, branching)
        levels = [
            tree.level_histogram(counts, level) / counts.sum()
            for level in range(tree.num_levels)
        ]
        adjusted = tree_enforce_consistency(levels, branching, root_value=1.0)
        for before, after in zip(levels, adjusted):
            assert np.allclose(before, after, atol=1e-9)


class TestTreeProperties:
    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=2, max_value=300),
        st.data(),
    )
    @COMMON_SETTINGS
    def test_decompose_range_covers_requested_items(self, branching, domain, data):
        tree = DomainTree(domain, branching)
        left = data.draw(st.integers(min_value=0, max_value=domain - 1))
        right = data.draw(st.integers(min_value=left, max_value=domain - 1))
        nodes = tree.decompose_range(left, right)
        covered = []
        for node in nodes:
            interval = tree.node_interval(node)
            covered.extend(range(interval.start, interval.end + 1))
        assert covered == list(range(left, right + 1))

    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=2, max_value=200),
        st.integers(min_value=0, max_value=2**30),
    )
    @COMMON_SETTINGS
    def test_level_histograms_preserve_mass(self, branching, domain, seed):
        tree = DomainTree(domain, branching)
        counts = np.random.default_rng(seed).integers(0, 50, size=domain).astype(float)
        for level in range(tree.num_levels):
            assert tree.level_histogram(counts, level).sum() == pytest.approx(counts.sum())


class TestRangeSpecProperties:
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
    @COMMON_SETTINGS
    def test_length_positive(self, a, b):
        assume(a <= b)
        assert RangeSpec(a, b).length == b - a + 1


class TestEstimatorConsistencyProperties:
    @given(st.integers(min_value=0, max_value=2**30), st.data())
    @settings(max_examples=15, deadline=None)
    def test_hh_consistent_estimator_is_decomposition_invariant(self, seed, data):
        """After CI, leaf sums and B-adic decomposition answers agree."""
        from repro.hierarchy import HierarchicalHistogram

        rng = np.random.default_rng(seed)
        domain = 32
        counts = rng.integers(5, 200, size=domain).astype(float)
        protocol = HierarchicalHistogram(domain, 1.0, branching=2, oracle="hrr")
        estimator = protocol.simulate_aggregate(counts, rng=rng)
        left = data.draw(st.integers(min_value=0, max_value=domain - 1))
        right = data.draw(st.integers(min_value=left, max_value=domain - 1))
        freqs = estimator.estimated_frequencies()
        assert estimator.range_query((left, right)) == pytest.approx(
            freqs[left : right + 1].sum(), abs=1e-9
        )
