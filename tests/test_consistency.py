"""Tests for the constrained-inference post-processing (Section 4.5)."""

import numpy as np
import pytest

from repro.core.postprocess import (
    consistency_violation,
    tree_enforce_consistency,
    tree_mean_consistency,
    tree_weighted_averaging,
    variance_reduction_factor,
)
from repro.hierarchy.tree import DomainTree


def _exact_levels(counts, branching):
    """Per-level exact fractions of a leaf histogram."""
    tree = DomainTree(len(counts), branching)
    total = counts.sum()
    return [tree.level_histogram(counts, level) / total for level in range(tree.num_levels)]


class TestExactInputs:
    def test_exact_tree_is_untouched(self):
        counts = np.array([5.0, 3.0, 8.0, 4.0, 1.0, 9.0, 2.0, 8.0])
        levels = _exact_levels(counts, 2)
        adjusted = tree_enforce_consistency(levels, 2, root_value=1.0)
        for before, after in zip(levels, adjusted):
            assert np.allclose(before, after)

    def test_violation_zero_for_exact_tree(self):
        counts = np.array([5.0, 3.0, 8.0, 4.0])
        levels = _exact_levels(counts, 2)
        assert consistency_violation(levels, 2) == pytest.approx(0.0, abs=1e-12)


class TestNoisyInputs:
    def _noisy_levels(self, branching, domain, seed, noise=0.01):
        rng = np.random.default_rng(seed)
        counts = rng.integers(10, 100, size=domain).astype(float)
        levels = _exact_levels(counts, branching)
        noisy = [level + rng.normal(0, noise, size=len(level)) for level in levels]
        noisy[0] = np.array([1.0])
        return counts, levels, noisy

    @pytest.mark.parametrize("branching", [2, 4, 8])
    def test_consistency_holds_after_postprocessing(self, branching):
        _, _, noisy = self._noisy_levels(branching, branching**3, seed=1)
        adjusted = tree_enforce_consistency(noisy, branching, root_value=1.0)
        assert consistency_violation(adjusted, branching) < 1e-9

    def test_root_pinned_to_one(self):
        _, _, noisy = self._noisy_levels(2, 16, seed=2)
        adjusted = tree_enforce_consistency(noisy, 2, root_value=1.0)
        assert adjusted[0][0] == pytest.approx(1.0)
        assert adjusted[-1].sum() == pytest.approx(1.0)

    def test_postprocessing_reduces_leaf_error(self):
        """Averaged over many trials, CI reduces the mean squared leaf error."""
        rng = np.random.default_rng(3)
        branching, domain, noise = 4, 64, 0.02
        raw_errors, adjusted_errors = [], []
        counts = rng.integers(10, 100, size=domain).astype(float)
        exact = _exact_levels(counts, branching)
        for _ in range(40):
            noisy = [
                level + rng.normal(0, noise, size=len(level)) for level in exact
            ]
            noisy[0] = np.array([1.0])
            adjusted = tree_enforce_consistency(noisy, branching, root_value=1.0)
            raw_errors.append(np.mean((noisy[-1] - exact[-1]) ** 2))
            adjusted_errors.append(np.mean((adjusted[-1] - exact[-1]) ** 2))
        assert np.mean(adjusted_errors) < np.mean(raw_errors)

    def test_stage_functions_compose(self):
        _, _, noisy = self._noisy_levels(2, 16, seed=4)
        averaged = tree_weighted_averaging(noisy, 2)
        final = tree_mean_consistency(averaged, 2, root_value=1.0)
        direct = tree_enforce_consistency(noisy, 2, root_value=1.0)
        for a, b in zip(final, direct):
            assert np.allclose(a, b)

    def test_mean_consistency_without_root_pin(self):
        _, _, noisy = self._noisy_levels(2, 8, seed=5)
        adjusted = tree_mean_consistency(noisy, 2, root_value=None)
        assert consistency_violation(adjusted, 2) < 1e-9


class TestValidation:
    def test_wrong_level_sizes_rejected(self):
        with pytest.raises(ValueError):
            tree_enforce_consistency([np.array([1.0]), np.array([0.5, 0.3, 0.2])], 2)

    def test_empty_levels_rejected(self):
        with pytest.raises(ValueError):
            tree_enforce_consistency([], 2)

    def test_bad_branching_rejected(self):
        with pytest.raises(ValueError):
            tree_enforce_consistency([np.array([1.0])], 1)

    def test_variance_reduction_factor(self):
        assert variance_reduction_factor(2) == pytest.approx(2 / 3)
        assert variance_reduction_factor(8) == pytest.approx(8 / 9)
        with pytest.raises(ValueError):
            variance_reduction_factor(1)


def test_hierarchy_reexports_the_postprocess_helpers():
    from repro.hierarchy import consistency_violation as exported_violation
    from repro.hierarchy import variance_reduction_factor as exported_factor

    assert exported_violation is consistency_violation
    assert exported_factor is variance_reduction_factor
