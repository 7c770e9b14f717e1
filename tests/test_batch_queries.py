"""Batch query engine: vectorised answers must match the per-query paths.

The batch kernels (`range_queries_batch`, `prefix_queries`,
`quantile_queries_batch`, `rectangle_queries`) answer whole workloads with
pure NumPy; these tests pin them, property-based, to the seed per-query
semantics for every protocol:

* the vectorised canonical B-adic decomposition selects exactly the node
  set of ``DomainTree.decompose_range`` (answers agree up to float-sum
  reordering, asserted at 1e-9 absolute as per the acceptance criteria);
* the Haar coefficient batch path matches the per-query coefficient path
  and the exact prefix-sum path;
* quantile batches equal the per-phi searches exactly;
* every end-to-end protocol (flat / HH with both level strategies /
  HaarHRR / 2-D grids) answers random workloads bit-identically per-query
  and batched, including edge ranges (full domain, single item, boundaries).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import InvalidRangeError
from repro.core.types import RangeSpec
from repro.flat import FlatRangeQuery
from repro.hierarchy import HierarchicalHistogram
from repro.hierarchy.hh import HierarchicalEstimator
from repro.hierarchy.tree import DomainTree
from repro.multidim import HierarchicalGrid2D
from repro.queries.workload import (
    RangeWorkload,
    all_range_workload,
    geometric_lengths,
    length_workload,
    prefix_workload,
    random_range_workload,
    sampled_range_workload,
    true_answers,
)
from repro.wavelet import HaarHRR
from repro.wavelet.haar import (
    evaluate_range_from_coefficients,
    evaluate_ranges_from_coefficients,
    haar_transform,
)

COMMON_SETTINGS = settings(max_examples=40, deadline=None)

TOLERANCE = 1e-9


def _edge_workload(domain_size: int) -> RangeWorkload:
    """Full domain, single items and boundary-hugging ranges."""
    pairs = [
        (0, domain_size - 1),
        (0, 0),
        (domain_size - 1, domain_size - 1),
        (0, domain_size // 2),
        (domain_size // 2, domain_size - 1),
    ]
    if domain_size > 2:
        pairs.append((1, domain_size - 2))
    arr = np.asarray(pairs, dtype=np.int64)
    return RangeWorkload(arr[:, 0], arr[:, 1], domain_size)


def _random_plus_edges(domain_size: int, num_queries: int, seed: int) -> RangeWorkload:
    rng = np.random.default_rng(seed)
    random_part = random_range_workload(domain_size, num_queries, rng)
    edges = _edge_workload(domain_size)
    return RangeWorkload(
        np.concatenate([random_part.lefts, edges.lefts]),
        np.concatenate([random_part.rights, edges.rights]),
        domain_size,
    )


# --------------------------------------------------------------------- #
# the vectorised canonical decomposition itself
# --------------------------------------------------------------------- #
class TestBatchDecomposition:
    @given(
        st.integers(min_value=2, max_value=7),
        st.integers(min_value=2, max_value=400),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @COMMON_SETTINGS
    def test_batch_runs_select_decompose_range_node_sets(
        self, branching, domain_size, seed
    ):
        tree = DomainTree(domain_size, branching)
        workload = _random_plus_edges(domain_size, 30, seed)
        runs = tree.decompose_ranges_batch(workload.lefts, workload.rights)
        for query_index in range(len(workload)):
            selected = set()
            for level, (left_lo, left_hi, right_lo, right_hi) in enumerate(runs):
                for lo, hi in (
                    (left_lo[query_index], left_hi[query_index]),
                    (right_lo[query_index], right_hi[query_index]),
                ):
                    for index in range(int(lo), int(hi) + 1):
                        selected.add((level, index))
            expected = {
                (node.level, node.index)
                for node in tree.decompose_range(
                    int(workload.lefts[query_index]),
                    int(workload.rights[query_index]),
                )
            }
            assert selected == expected

    def test_full_padded_domain_decomposes_to_root(self):
        tree = DomainTree(16, 2)
        runs = tree.decompose_ranges_batch(np.array([0]), np.array([15]))
        root_left_lo, root_left_hi = runs[0][0], runs[0][1]
        assert root_left_lo[0] == 0 and root_left_hi[0] == 0
        for level in range(1, tree.num_levels):
            left_lo, left_hi, right_lo, right_hi = runs[level]
            assert left_hi[0] < left_lo[0] and right_hi[0] < right_lo[0]


# --------------------------------------------------------------------- #
# hierarchical estimators (both consistency states, synthetic values)
# --------------------------------------------------------------------- #
class TestHierarchicalBatch:
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=2, max_value=300),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @COMMON_SETTINGS
    def test_inconsistent_batch_matches_per_query_decomposition(
        self, branching, domain_size, seed
    ):
        rng = np.random.default_rng(seed)
        tree = DomainTree(domain_size, branching)
        levels = [
            rng.standard_normal(tree.level_size(level))
            for level in range(tree.num_levels)
        ]
        estimator = HierarchicalEstimator(tree, levels, consistent=False)
        workload = _random_plus_edges(domain_size, 40, seed)
        batch = estimator.range_queries_batch(workload.lefts, workload.rights)
        for query_index in range(len(workload)):
            nodes = tree.decompose_range(
                int(workload.lefts[query_index]), int(workload.rights[query_index])
            )
            seed_answer = float(
                sum(levels[node.level][node.index] for node in nodes)
            )
            assert batch[query_index] == pytest.approx(seed_answer, abs=TOLERANCE)

    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=2, max_value=200),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @COMMON_SETTINGS
    def test_consistent_batch_matches_per_query(self, branching, domain_size, seed):
        rng = np.random.default_rng(seed)
        tree = DomainTree(domain_size, branching)
        levels = [
            rng.standard_normal(tree.level_size(level))
            for level in range(tree.num_levels)
        ]
        estimator = HierarchicalEstimator(
            tree, levels, consistent=False
        ).with_consistency()
        workload = _random_plus_edges(domain_size, 30, seed)
        batch = estimator.range_queries_batch(workload.lefts, workload.rights)
        per_query = np.array([estimator.range_query(query) for query in workload])
        np.testing.assert_allclose(batch, per_query, atol=TOLERANCE)


# --------------------------------------------------------------------- #
# Haar coefficient path
# --------------------------------------------------------------------- #
class TestHaarBatch:
    @given(
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @COMMON_SETTINGS
    def test_coefficient_batch_matches_per_query_and_exact(self, log_domain, seed):
        domain_size = 2**log_domain
        rng = np.random.default_rng(seed)
        vector = rng.standard_normal(domain_size)
        coefficients = haar_transform(vector)
        workload = _random_plus_edges(domain_size, 40, seed)
        batch = evaluate_ranges_from_coefficients(
            coefficients, workload.lefts, workload.rights
        )
        prefix = np.concatenate(([0.0], np.cumsum(vector)))
        for query_index in range(len(workload)):
            left = int(workload.lefts[query_index])
            right = int(workload.rights[query_index])
            per_query = evaluate_range_from_coefficients(coefficients, left, right)
            assert batch[query_index] == pytest.approx(per_query, abs=TOLERANCE)
            assert batch[query_index] == pytest.approx(
                prefix[right + 1] - prefix[left], abs=1e-8
            )


# --------------------------------------------------------------------- #
# end-to-end protocols: batch == per-query on real estimators
# --------------------------------------------------------------------- #
def _protocol_estimators(small_cauchy):
    """One finalized estimator per protocol family the paper studies."""
    counts = small_cauchy.counts()
    domain_size = len(counts)
    protocols = [
        FlatRangeQuery(domain_size, 1.1, oracle="oue"),
        FlatRangeQuery(domain_size, 1.1, oracle="olh"),
        FlatRangeQuery(domain_size, 1.1, oracle="hrr"),
        HierarchicalHistogram(domain_size, 1.1, branching=4, oracle="oue", consistency=False),
        HierarchicalHistogram(domain_size, 1.1, branching=4, oracle="oue", consistency=True),
        HierarchicalHistogram(
            domain_size, 1.1, branching=4, oracle="oue",
            consistency=False, level_strategy="split",
        ),
        HierarchicalHistogram(domain_size, 1.1, branching=2, oracle="olh", consistency=True),
        HaarHRR(domain_size, 1.1),
    ]
    rng = np.random.default_rng(99)
    return [
        (protocol, protocol.simulate_aggregate(counts, rng=rng)) for protocol in protocols
    ]


class TestProtocolBatchEquivalence:
    def test_batch_matches_per_query_for_every_protocol(self, small_cauchy):
        domain_size = len(small_cauchy.counts())
        workload = _random_plus_edges(domain_size, 60, seed=3)
        for protocol, estimator in _protocol_estimators(small_cauchy):
            batch = estimator.range_queries_batch(workload.lefts, workload.rights)
            per_query = np.array(
                [estimator.range_query(query) for query in workload]
            )
            # Exact: the query front-end answers through the batch kernel
            # and promises the per-query answers bit for bit.
            np.testing.assert_array_equal(
                batch, per_query, err_msg=f"batch != per-query for {protocol.name}"
            )
            # Every accepted workload form dispatches to the same kernel.
            np.testing.assert_array_equal(batch, estimator.range_queries(workload))
            np.testing.assert_array_equal(
                batch, estimator.range_queries((workload.lefts, workload.rights))
            )
            np.testing.assert_array_equal(
                batch,
                estimator.range_queries(
                    np.stack([workload.lefts, workload.rights], axis=1)
                ),
            )
            np.testing.assert_array_equal(
                batch, estimator.range_queries(workload.as_specs())
            )

    def test_prefix_batch_matches_per_query(self, small_cauchy):
        domain_size = len(small_cauchy.counts())
        endpoints = np.array([0, 1, domain_size // 2, domain_size - 1])
        for protocol, estimator in _protocol_estimators(small_cauchy):
            batch = estimator.prefix_queries(endpoints)
            per_query = np.array(
                [estimator.prefix_query(int(endpoint)) for endpoint in endpoints]
            )
            np.testing.assert_allclose(batch, per_query, atol=TOLERANCE)

    def test_quantile_batch_matches_per_phi_exactly(self, small_cauchy):
        phis = np.linspace(0.0, 1.0, 23)
        for protocol, estimator in _protocol_estimators(small_cauchy):
            batch = estimator.quantile_queries_batch(phis)
            per_phi = [estimator.quantile_query(float(phi)) for phi in phis]
            assert batch.tolist() == per_phi
            assert estimator.quantile_queries(phis) == per_phi

    def test_haar_coefficient_batch_on_estimator(self, small_cauchy):
        counts = small_cauchy.counts()
        domain_size = len(counts)
        estimator = HaarHRR(domain_size, 1.1).simulate_aggregate(
            counts, rng=np.random.default_rng(5)
        )
        workload = _random_plus_edges(domain_size, 50, seed=11)
        batch = estimator.range_queries_from_coefficients(
            workload.lefts, workload.rights
        )
        per_query = np.array(
            [estimator.range_query_from_coefficients(query) for query in workload]
        )
        np.testing.assert_allclose(batch, per_query, atol=TOLERANCE)
        # The coefficient path and the prefix-sum path agree (exact
        # invertibility of the Haar representation).
        np.testing.assert_allclose(
            batch,
            estimator.range_queries_batch(workload.lefts, workload.rights),
            atol=1e-8,
        )


def _seed_rectangle_answer(estimator, x_range, y_range) -> float:
    """The seed per-query algorithm, reimplemented as an independent oracle:
    sum the grid cells indexed by the Cartesian product of the per-axis
    canonical decompositions, expanding root nodes to their level-1
    children."""
    tree_x, tree_y = estimator._tree_x, estimator._tree_y
    nodes_x = tree_x.decompose_range(*x_range)
    nodes_y = tree_y.decompose_range(*y_range)
    answer = 0.0
    for node_x in nodes_x:
        for node_y in nodes_y:
            level_x, level_y = max(node_x.level, 1), max(node_y.level, 1)
            grid = estimator.grid(level_x, level_y)
            xs = range(tree_x.level_size(1)) if node_x.level == 0 else [node_x.index]
            ys = range(tree_y.level_size(1)) if node_y.level == 0 else [node_y.index]
            for index_x in xs:
                for index_y in ys:
                    answer += float(grid[index_x, index_y])
    return answer


class TestGrid2DBatch:
    def test_rectangle_batch_matches_per_query(self):
        rng = np.random.default_rng(21)
        protocol = HierarchicalGrid2D(16, 32, epsilon=2.0, branching=2, oracle="hrr")
        items_x = rng.integers(0, 16, size=4000)
        items_y = rng.integers(0, 32, size=4000)
        estimator = protocol.run(items_x, items_y, rng=rng)
        endpoints = rng.integers(0, [16, 16, 32, 32], size=(40, 4))
        x_lefts = np.minimum(endpoints[:, 0], endpoints[:, 1])
        x_rights = np.maximum(endpoints[:, 0], endpoints[:, 1])
        y_lefts = np.minimum(endpoints[:, 2], endpoints[:, 3])
        y_rights = np.maximum(endpoints[:, 2], endpoints[:, 3])
        # Edge rectangles: full plane, single cell, full rows/columns.
        x_lefts = np.concatenate([x_lefts, [0, 0, 0, 5]])
        x_rights = np.concatenate([x_rights, [15, 0, 15, 5]])
        y_lefts = np.concatenate([y_lefts, [0, 0, 7, 0]])
        y_rights = np.concatenate([y_rights, [31, 0, 7, 31]])
        batch = estimator.rectangle_queries(x_lefts, x_rights, y_lefts, y_rights)
        for query_index in range(len(x_lefts)):
            x_range = (int(x_lefts[query_index]), int(x_rights[query_index]))
            y_range = (int(y_lefts[query_index]), int(y_rights[query_index]))
            # Independent oracle: the seed per-query algorithm over the
            # decomposition node products (rectangle_query itself is now a
            # wrapper over the batch kernel, so it cannot serve as one).
            seed_answer = _seed_rectangle_answer(estimator, x_range, y_range)
            assert batch[query_index] == pytest.approx(seed_answer, abs=TOLERANCE)
            assert estimator.rectangle_query(x_range, y_range) == pytest.approx(
                seed_answer, abs=TOLERANCE
            )
            assert batch[query_index] == estimator.rectangle_query(x_range, y_range)

    def test_rectangle_batch_validation(self):
        rng = np.random.default_rng(2)
        protocol = HierarchicalGrid2D(8, 8, epsilon=2.0)
        estimator = protocol.run(
            rng.integers(0, 8, size=500), rng.integers(0, 8, size=500), rng=rng
        )
        with pytest.raises(InvalidRangeError):
            estimator.rectangle_queries(
                np.array([4]), np.array([2]), np.array([0]), np.array([1])
            )
        with pytest.raises(InvalidRangeError):
            estimator.rectangle_queries(
                np.array([0]), np.array([8]), np.array([0]), np.array([1])
            )


# --------------------------------------------------------------------- #
# workload layer
# --------------------------------------------------------------------- #
class TestRangeWorkload:
    def test_array_generators_match_spec_generators(self):
        domain_size = 37
        assert all_range_workload(domain_size).as_specs() == [
            spec for spec in all_range_workload(domain_size)
        ]
        # Reference specs enumerated query by query, in generator order.
        workload = all_range_workload(domain_size, min_length=3)
        assert workload.as_specs() == [
            RangeSpec(left, right)
            for left in range(domain_size)
            for right in range(left + 2, domain_size)
        ]
        assert prefix_workload(domain_size).as_specs() == [
            RangeSpec(0, right) for right in range(domain_size)
        ]
        sampled = sampled_range_workload(domain_size, 7)
        starts = np.unique(np.linspace(0, domain_size - 1, num=7, dtype=np.int64))
        assert sampled.as_specs() == [
            RangeSpec(int(left), int(left) + length - 1)
            for left in starts
            for length in geometric_lengths(domain_size)
            if left + length - 1 < domain_size
        ]
        lengths = length_workload(domain_size, 5)
        assert np.all(lengths.lengths == 5)
        assert len(lengths) == domain_size - 5 + 1

    def test_one_shot_validation(self):
        with pytest.raises(InvalidRangeError):
            RangeWorkload(np.array([3]), np.array([1]))
        with pytest.raises(InvalidRangeError):
            RangeWorkload(np.array([-1]), np.array([1]))
        with pytest.raises(InvalidRangeError):
            RangeWorkload(np.array([0]), np.array([10]), domain_size=10)
        with pytest.raises(InvalidRangeError):
            RangeWorkload(np.array([0, 1]), np.array([1]))

    def test_true_answers_accepts_both_forms(self):
        rng = np.random.default_rng(0)
        frequencies = rng.random(32)
        frequencies /= frequencies.sum()
        workload = random_range_workload(32, 100, rng)
        via_arrays = true_answers(workload, frequencies)
        via_specs = true_answers(workload.as_specs(), frequencies)
        np.testing.assert_array_equal(via_arrays, via_specs)
        brute = np.array(
            [
                frequencies[left : right + 1].sum()
                for left, right in zip(workload.lefts, workload.rights)
            ]
        )
        np.testing.assert_allclose(via_arrays, brute, atol=1e-12)

    def test_group_indices_by_length(self):
        workload = RangeWorkload(np.array([0, 2, 1]), np.array([1, 3, 1]))
        groups = workload.group_indices_by_length()
        assert sorted(groups) == [1, 2]
        np.testing.assert_array_equal(groups[2], [0, 1])
        np.testing.assert_array_equal(groups[1], [2])

    def test_empty_workload(self, small_cauchy):
        domain_size = len(small_cauchy.counts())
        estimator = FlatRangeQuery(domain_size, 1.1).simulate_aggregate(
            small_cauchy.counts(), rng=np.random.default_rng(1)
        )
        empty = RangeWorkload(np.zeros(0, np.int64), np.zeros(0, np.int64))
        assert estimator.range_queries(empty).shape == (0,)
        assert estimator.range_queries([]).shape == (0,)

    def test_batch_validation_on_estimator(self, small_cauchy):
        domain_size = len(small_cauchy.counts())
        estimator = FlatRangeQuery(domain_size, 1.1).simulate_aggregate(
            small_cauchy.counts(), rng=np.random.default_rng(1)
        )
        with pytest.raises(InvalidRangeError):
            estimator.range_queries_batch(np.array([0]), np.array([domain_size]))
        with pytest.raises(InvalidRangeError):
            estimator.range_queries_batch(np.array([5]), np.array([2]))
        with pytest.raises(InvalidRangeError):
            estimator.range_queries_batch(np.array([-2]), np.array([2]))

    def test_quantile_rejects_nan_and_out_of_range(self, small_cauchy):
        domain_size = len(small_cauchy.counts())
        estimator = FlatRangeQuery(domain_size, 1.1).simulate_aggregate(
            small_cauchy.counts(), rng=np.random.default_rng(1)
        )
        for bad in (float("nan"), -0.1, 1.1):
            with pytest.raises(ValueError):
                estimator.quantile_query(bad)
            with pytest.raises(ValueError):
                estimator.quantile_queries_batch([0.5, bad])

    def test_malformed_query_tuples_fail_loudly(self, small_cauchy):
        domain_size = len(small_cauchy.counts())
        estimator = FlatRangeQuery(domain_size, 1.1).simulate_aggregate(
            small_cauchy.counts(), rng=np.random.default_rng(1)
        )
        # A (lefts, rights) pair of *lists* is not silently reinterpreted
        # as two individual 2-element queries: the 3-element entries fail
        # strict unpacking instead of being truncated.
        with pytest.raises(ValueError):
            estimator.range_queries(([0, 5, 7], [3, 6, 9]))


# --------------------------------------------------------------------- #
# process-parallel repetitions (satellite: runner workers)
# --------------------------------------------------------------------- #
class TestParallelEvaluateMethod:
    def test_parallel_repetitions_identical_to_serial(self, small_cauchy):
        from repro.experiments.runner import (
            WorkloadEvaluation,
            evaluate_method,
            make_method,
        )

        counts = small_cauchy.counts()
        domain_size = len(counts)
        frequencies = counts / counts.sum()
        workload = WorkloadEvaluation.from_frequencies(
            random_range_workload(domain_size, 50, np.random.default_rng(4)),
            frequencies,
        )
        protocol = make_method("HHc4", domain_size, 1.1)
        serial = evaluate_method(protocol, counts, workload, repetitions=3, rng=11)
        parallel = evaluate_method(
            protocol, counts, workload, repetitions=3, rng=11, workers=2
        )
        assert serial == parallel

    def test_workers_validation(self, small_cauchy):
        from repro.experiments.runner import (
            WorkloadEvaluation,
            evaluate_method,
            make_method,
        )

        counts = small_cauchy.counts()
        domain_size = len(counts)
        workload = WorkloadEvaluation.from_frequencies(
            prefix_workload(domain_size), counts / counts.sum()
        )
        protocol = make_method("FlatOUE", domain_size, 1.1)
        with pytest.raises(ValueError):
            evaluate_method(protocol, counts, workload, repetitions=1, workers=0)
