#!/usr/bin/env python3
"""Compare all of the paper's methods on one dataset, like a mini Figure 4.

Runs the flat baseline, hierarchical histograms over several branching
factors (with and without consistency) and HaarHRR on a single synthetic
population, and prints the mean squared error over range queries of a few
representative lengths.  A compact, runnable version of the exploration the
paper performs in Figure 4 before settling on its recommendations.

Run with:  python examples/method_comparison.py
"""

from __future__ import annotations

import numpy as np

from repro import FlatRangeQuery, HaarHRR, HierarchicalHistogram
from repro.analysis.metrics import mean_squared_error
from repro.data import cauchy_population
from repro.queries.workload import length_workload, true_answers

DOMAIN_SIZE = 512
N_USERS = 150_000
EPSILON = 1.1
RANGE_LENGTHS = (1, 16, 128, 448)
REPETITIONS = 3


def build_methods():
    methods = [FlatRangeQuery(DOMAIN_SIZE, EPSILON), HaarHRR(DOMAIN_SIZE, EPSILON)]
    for branching in (2, 4, 16):
        for consistency in (False, True):
            methods.append(
                HierarchicalHistogram(
                    DOMAIN_SIZE,
                    EPSILON,
                    branching=branching,
                    oracle="oue",
                    consistency=consistency,
                )
            )
    return methods


def main() -> None:
    population = cauchy_population(DOMAIN_SIZE, N_USERS, center_fraction=0.4, rng=3)
    counts = population.counts()
    frequencies = population.frequencies()

    workloads = {
        length: length_workload(DOMAIN_SIZE, length) for length in RANGE_LENGTHS
    }
    truths = {
        length: true_answers(queries, frequencies) for length, queries in workloads.items()
    }

    methods = build_methods()
    labels = []
    for method in methods:
        label = method.name
        if isinstance(method, HierarchicalHistogram):
            label = f"{method.name}(B={method.branching})"
        labels.append(label)

    print(f"D={DOMAIN_SIZE}, N={N_USERS:,}, epsilon={EPSILON}; MSE x1000 per range length")
    header = f"{'method':>22}" + "".join(f"  r={length:<6}" for length in RANGE_LENGTHS)
    print(header)
    print("-" * len(header))
    for method, label in zip(methods, labels):
        row = f"{label:>22}"
        for length in RANGE_LENGTHS:
            errors = []
            for seed in range(REPETITIONS):
                estimator = method.simulate_aggregate(counts, rng=1000 + seed)
                estimates = estimator.range_queries(workloads[length])
                errors.append(mean_squared_error(estimates, truths[length]))
            row += f"  {np.mean(errors) * 1000:8.3f}"
        print(row)

    print()
    print("Expected pattern (paper, Figure 4): the flat method is competitive only")
    print("at r=1; consistent HH and HaarHRR win for longer ranges, and the CI")
    print("variants always improve on their inconsistent counterparts.")


if __name__ == "__main__":
    main()
