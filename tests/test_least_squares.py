"""Tests for the explicit least-squares consistency (Lemma 4.6 machinery)."""

import numpy as np
import pytest

from repro.core.postprocess import tree_mean_consistency, tree_weighted_averaging
from repro.hierarchy.least_squares import (
    design_matrix,
    flatten_levels,
    least_squares_leaves,
    least_squares_levels,
    range_query_variance_factor,
)
from repro.hierarchy.tree import DomainTree


def _random_levels(tree, rng, noise=0.1):
    return [
        rng.normal(0.3, noise, size=tree.level_size(level))
        for level in range(tree.num_levels)
    ]


class TestDesignMatrix:
    def test_shape_and_row_sums(self):
        tree = DomainTree(8, 2)
        matrix = design_matrix(tree)
        # 1 + 2 + 4 + 8 nodes, 8 leaves.
        assert matrix.shape == (15, 8)
        assert matrix[0].sum() == 8  # root covers every leaf
        assert matrix[-1].sum() == 1  # last leaf node covers one leaf

    def test_single_level_matches_lemma_example(self):
        """For a one-level tree H = [1_D; I_D] as in the Lemma 4.6 proof."""
        tree = DomainTree(4, 4)
        matrix = design_matrix(tree)
        assert np.allclose(matrix[0], np.ones(4))
        assert np.allclose(matrix[1:], np.eye(4))

    def test_flatten_levels_order(self):
        levels = [np.array([1.0]), np.array([2.0, 3.0]), np.array([4.0, 5.0, 6.0, 7.0])]
        assert list(flatten_levels(levels)) == [1, 2, 3, 4, 5, 6, 7]


class TestEquivalenceWithTwoStage:
    @pytest.mark.parametrize("branching, height", [(2, 3), (2, 4), (4, 2), (3, 3)])
    def test_matches_hay_two_stage(self, branching, height):
        """The linear-time two-stage algorithm computes the exact OLS solution."""
        rng = np.random.default_rng(height * 10 + branching)
        tree = DomainTree(branching**height, branching)
        levels = _random_levels(tree, rng)
        two_stage = tree_mean_consistency(
            tree_weighted_averaging(levels, branching), branching, root_value=None
        )
        ols_leaves = least_squares_leaves(tree, levels)
        assert np.allclose(two_stage[-1], ols_leaves, atol=1e-10)

    def test_levels_are_consistent(self):
        rng = np.random.default_rng(1)
        tree = DomainTree(16, 2)
        levels = least_squares_levels(tree, _random_levels(tree, rng))
        for depth in range(len(levels) - 1):
            child_sums = levels[depth + 1].reshape(-1, 2).sum(axis=1)
            assert np.allclose(levels[depth], child_sums)

    def test_wrong_observation_count_rejected(self):
        tree = DomainTree(8, 2)
        with pytest.raises(ValueError):
            least_squares_leaves(tree, [np.array([1.0]), np.array([0.5, 0.5])])


class TestVarianceFactors:
    def test_point_query_factor_single_level(self):
        """Lemma 4.6: a point query has factor B/(B+1) in a one-level tree."""
        for branching in (2, 4, 8):
            tree = DomainTree(branching, branching)
            factor = range_query_variance_factor(tree, 0, 0)
            assert factor == pytest.approx(branching / (branching + 1))

    def test_full_range_factor_single_level(self):
        """The whole-domain query also has factor B/(B+1)."""
        branching = 4
        tree = DomainTree(branching, branching)
        factor = range_query_variance_factor(tree, 0, branching - 1)
        assert factor == pytest.approx(branching / (branching + 1))

    def test_worst_range_factor_bounded_by_lemma(self):
        """Any single-level range's factor is at most (B+1)/4."""
        branching = 8
        tree = DomainTree(branching, branching)
        worst = max(
            range_query_variance_factor(tree, 0, right) for right in range(branching)
        )
        assert worst <= (branching + 1) / 4 + 1e-9

    def test_multi_level_point_query_below_single_node_variance(self):
        """Post-inference variance of a leaf is below the raw V_F (factor < 1)."""
        tree = DomainTree(16, 2)
        assert range_query_variance_factor(tree, 5, 5) < 1.0

    def test_invalid_range_rejected(self):
        tree = DomainTree(8, 2)
        with pytest.raises(ValueError):
            range_query_variance_factor(tree, 5, 3)
        with pytest.raises(ValueError):
            range_query_variance_factor(tree, 0, 8)
