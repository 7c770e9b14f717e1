"""Query workloads, derived queries (prefix, CDF, quantiles) and the query front-end."""

from repro.queries.prefix import (
    estimated_cdf,
    monotone_cdf,
    prefix_answers,
    prefix_variance_reduction_factor,
)
from repro.queries.quantile import (
    QuantileEvaluation,
    deciles,
    estimate_quantile,
    evaluate_quantiles,
    quantile_by_binary_search,
    quantile_rank,
    true_quantile,
)
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

__all__ = [
    "RangeWorkload",
    "all_range_workload",
    "length_workload",
    "prefix_workload",
    "random_range_workload",
    "sampled_range_workload",
    "estimated_cdf",
    "monotone_cdf",
    "prefix_answers",
    "prefix_variance_reduction_factor",
    "QuantileEvaluation",
    "deciles",
    "estimate_quantile",
    "evaluate_quantiles",
    "quantile_by_binary_search",
    "quantile_rank",
    "true_quantile",
    "geometric_lengths",
    "true_answers",
]
