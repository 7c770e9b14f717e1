"""Tests for the range-query workload generators."""

import numpy as np
import pytest

from repro.core.exceptions import InvalidRangeError
from repro.core.types import RangeSpec
from repro.queries.workload import (
    RangeWorkload,
    all_range_workload,
    geometric_lengths,
    length_workload,
    prefix_workload,
    sampled_range_workload,
    true_answers,
)


class TestAllRangeQueries:
    def test_counts(self):
        queries = all_range_workload(5)
        # D*(D+1)/2 closed ranges including points.
        assert len(queries) == 15

    def test_min_length_filter(self):
        queries = all_range_workload(5, min_length=2)
        assert len(queries) == 10
        assert all(query.length >= 2 for query in queries)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            all_range_workload(0)
        with pytest.raises(ValueError):
            all_range_workload(5, min_length=0)


class TestQueriesOfLength:
    def test_count_matches_formula(self):
        assert len(length_workload(100, 7)) == 94
        assert len(length_workload(100, 100)) == 1

    def test_all_have_requested_length(self):
        assert all(query.length == 9 for query in length_workload(64, 9))

    def test_invalid_length(self):
        with pytest.raises(InvalidRangeError):
            length_workload(10, 11)
        with pytest.raises(InvalidRangeError):
            length_workload(10, 0)


class TestSampledQueries:
    def test_queries_stay_in_domain(self):
        queries = sampled_range_workload(1000, 10)
        assert all(0 <= q.left <= q.right < 1000 for q in queries)

    def test_start_points_are_spread(self):
        queries = sampled_range_workload(1000, 5, lengths=[1])
        starts = sorted({q.left for q in queries})
        assert starts[0] == 0 and starts[-1] == 999
        assert len(starts) == 5

    def test_explicit_lengths(self):
        queries = sampled_range_workload(100, 3, lengths=[10, 50])
        assert {q.length for q in queries} <= {10, 50}

    def test_validation(self):
        with pytest.raises(ValueError):
            sampled_range_workload(0, 5)
        with pytest.raises(ValueError):
            sampled_range_workload(10, 0)


class TestHelpers:
    def test_geometric_lengths(self):
        lengths = geometric_lengths(64)
        assert lengths[0] == 1
        assert lengths[-1] == 63
        assert all(lengths[i] < lengths[i + 1] for i in range(len(lengths) - 1))

    def test_prefix_queries(self):
        queries = prefix_workload(8).as_specs()
        assert len(queries) == 8
        assert all(q.left == 0 for q in queries)
        assert queries[-1].right == 7

    def test_group_indices_by_length(self):
        queries = [RangeSpec(0, 0), RangeSpec(1, 1), RangeSpec(0, 3)]
        grouped = RangeWorkload.from_queries(queries).group_indices_by_length()
        assert len(grouped[1]) == 2
        assert len(grouped[4]) == 1

    def test_true_answers(self):
        freqs = np.array([0.1, 0.2, 0.3, 0.4])
        queries = [RangeSpec(0, 1), RangeSpec(2, 3), RangeSpec(0, 3)]
        answers = true_answers(queries, freqs)
        assert np.allclose(answers, [0.3, 0.7, 1.0])

    def test_true_answers_bounds_check(self):
        with pytest.raises(InvalidRangeError):
            true_answers([RangeSpec(0, 4)], np.ones(4) / 4)

    def test_true_answers_empty(self):
        assert len(true_answers([], np.ones(4) / 4)) == 0
