#!/usr/bin/env python3
"""Query-answering throughput: batch kernels versus the per-query APIs.

For each protocol the paper studies this script builds one estimator per
domain size, answers random range workloads of growing size both ways --

* *per-query*: the original single-query APIs in a Python loop
  (``range_query`` / ``range_query_from_coefficients`` /
  ``quantile_query``), plus the seed's explicit per-query node
  decomposition for the inconsistent hierarchical estimator;
* *batch*: the vectorised kernels (``range_queries_batch``,
  ``range_queries_from_coefficients``, ``quantile_queries_batch``)

-- and reports queries/sec for both, in the one benchmark shape
``benchmarks/gate.py`` checks; ``BENCH_queries.json`` at the repo root is
the committed baseline.

Run with:  python benchmarks/bench_queries.py [--preset smoke|default] --output RUN.json
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path
from typing import Callable, Dict

import numpy as np

from repro import __version__
from repro.experiments.runner import cauchy_counts
from repro.flat import FlatRangeQuery
from repro.hierarchy import HierarchicalHistogram
from repro.queries.workload import random_range_workload
from repro.wavelet import HaarHRR

PRESETS = {
    # (domain sizes, workload sizes, per-query cap): the per-query loops are
    # measured on at most `cap` queries and extrapolated linearly, so the
    # large workload points stay affordable.
    "smoke": {"domains": [2**10], "workloads": [200, 2_000], "per_query_cap": 500},
    "default": {
        "domains": [2**10, 2**16],
        "workloads": [1_000, 10_000, 100_000],
        "per_query_cap": 4_000,
    },
}

EPSILON = 1.1
N_USERS = 200_000


def _time_best(func: Callable[[], object], repeats: int = 3) -> float:
    """Best wall time of ``func`` in seconds, over ``repeats`` calls and 0.1 s.

    A sub-millisecond batch call gets many samples, so a few milliseconds
    of CPU taken by a neighbour on a shared machine cannot set its time.
    """
    best = float("inf")
    deadline = time.perf_counter() + 0.1
    calls = 0
    while calls < repeats or time.perf_counter() < deadline:
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
        calls += 1
    return best


def _build_estimators(domain_size: int, rng: np.random.Generator) -> Dict[str, object]:
    counts = cauchy_counts(domain_size, N_USERS, 0.4, rng=rng)
    methods = {
        "FlatOUE": FlatRangeQuery(domain_size, EPSILON, oracle="oue"),
        "TreeOUE": HierarchicalHistogram(
            domain_size, EPSILON, branching=4, oracle="oue", consistency=False
        ),
        "TreeOUECI": HierarchicalHistogram(
            domain_size, EPSILON, branching=4, oracle="oue", consistency=True
        ),
        "HaarHRR": HaarHRR(domain_size, EPSILON),
    }
    return {
        name: protocol.simulate_aggregate(counts, rng=rng)
        for name, protocol in methods.items()
    }


def _per_query_runner(method: str, estimator) -> Callable[[np.ndarray, np.ndarray], None]:
    """The honest per-query baseline for one method."""
    if method == "TreeOUE":
        # The seed path: per-query canonical decomposition into node
        # objects, summed in Python.
        tree = estimator.tree
        levels = [np.asarray(level) for level in estimator.level_fractions]

        def run(lefts: np.ndarray, rights: np.ndarray) -> None:
            for left, right in zip(lefts.tolist(), rights.tolist()):
                nodes = tree.decompose_range(left, right)
                sum(levels[node.level][node.index] for node in nodes)

        return run
    if method == "HaarHRR":

        def run(lefts: np.ndarray, rights: np.ndarray) -> None:
            for left, right in zip(lefts.tolist(), rights.tolist()):
                estimator.range_query_from_coefficients((left, right))

        return run

    def run(lefts: np.ndarray, rights: np.ndarray) -> None:
        for left, right in zip(lefts.tolist(), rights.tolist()):
            estimator.range_query((left, right))

    return run


def _batch_runner(method: str, estimator) -> Callable[[np.ndarray, np.ndarray], None]:
    if method == "HaarHRR":
        return lambda lefts, rights: estimator.range_queries_from_coefficients(
            lefts, rights
        )
    return lambda lefts, rights: estimator.range_queries_batch(lefts, rights)


def _row_metrics(row: str, batch_qps: float, speedup: float) -> Dict[str, dict]:
    """One workload row's metrics.

    Only the batch/per-query *speedup* is gated: it is a same-machine
    ratio, so it transfers across runner generations where raw
    queries/sec does not.  A batch kernel must never lose to the loop.
    """
    return {
        f"{row}.batch_qps": {"value": batch_qps, "unit": "queries/s", "better": "higher"},
        f"{row}.speedup": {
            "value": speedup, "unit": "x", "better": "higher", "bound": 0.3, "limit": 1.0,
        },
    }


def bench_ranges(preset: dict, rng: np.random.Generator) -> Dict[str, dict]:
    results: Dict[str, dict] = {}
    for domain_size in preset["domains"]:
        estimators = _build_estimators(domain_size, rng)
        for num_queries in preset["workloads"]:
            workload = random_range_workload(domain_size, num_queries, rng)
            for method, estimator in estimators.items():
                batch = _batch_runner(method, estimator)
                batch(workload.lefts, workload.rights)  # warm caches once
                batch_seconds = _time_best(
                    lambda: batch(workload.lefts, workload.rights)
                )
                cap = min(num_queries, preset["per_query_cap"])
                per_query = _per_query_runner(method, estimator)
                per_query_seconds = _time_best(
                    lambda: per_query(workload.lefts[:cap], workload.rights[:cap])
                ) * (num_queries / max(cap, 1))
                results.update(
                    _row_metrics(
                        f"range.{method}.D{domain_size}.Q{num_queries}",
                        num_queries / batch_seconds,
                        per_query_seconds / batch_seconds,
                    )
                )
                print(
                    f"  {method:>9}  D={domain_size:>6}  Q={num_queries:>7,}  "
                    f"per-query {num_queries / per_query_seconds:>12,.0f} q/s  "
                    f"batch {num_queries / batch_seconds:>14,.0f} q/s  "
                    f"({per_query_seconds / batch_seconds:,.0f}x)"
                )
    return results


def bench_quantiles(preset: dict, rng: np.random.Generator) -> Dict[str, dict]:
    results: Dict[str, dict] = {}
    domain_size = max(preset["domains"])
    counts = cauchy_counts(domain_size, N_USERS, 0.4, rng=rng)
    estimator = HierarchicalHistogram(
        domain_size, EPSILON, branching=4, oracle="oue", consistency=True
    ).simulate_aggregate(counts, rng=rng)
    for num_queries in preset["workloads"]:
        phis = rng.random(num_queries)
        estimator.quantile_queries_batch(phis)  # warm the monotone-cdf cache
        batch_seconds = _time_best(lambda: estimator.quantile_queries_batch(phis))
        cap = min(num_queries, preset["per_query_cap"])

        def per_phi() -> None:
            for phi in phis[:cap].tolist():
                estimator.quantile_query(phi)

        per_query_seconds = _time_best(per_phi) * (num_queries / max(cap, 1))
        results.update(
            _row_metrics(
                f"quantile.TreeOUECI.D{domain_size}.Q{num_queries}",
                num_queries / batch_seconds,
                per_query_seconds / batch_seconds,
            )
        )
        print(
            f"  quantiles  D={domain_size:>6}  Q={num_queries:>7,}  "
            f"per-query {num_queries / per_query_seconds:>12,.0f} q/s  "
            f"batch {num_queries / batch_seconds:>14,.0f} q/s  "
            f"({per_query_seconds / batch_seconds:,.0f}x)"
        )
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", choices=sorted(PRESETS), default="default")
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args()
    preset = PRESETS[args.preset]
    rng = np.random.default_rng(0)

    print(f"Batch query engine benchmark (preset={args.preset})")
    print("range workloads:")
    metrics = bench_ranges(preset, rng)
    print("quantile workloads:")
    metrics.update(bench_quantiles(preset, rng))

    payload = {
        "bench": "queries",
        "preset": args.preset,
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        # per-query loops the original single-query APIs (the seed
        # decomposition path for TreeOUE, the coefficient path for
        # HaarHRR); batch uses the vectorised kernels on the same
        # workload.  Per-query loops over large workloads are measured on
        # a capped prefix and extrapolated linearly.
        "config": {"epsilon": EPSILON, "n_users": N_USERS, **preset},
        "metrics": metrics,
    }
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
