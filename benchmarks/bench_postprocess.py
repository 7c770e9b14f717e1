#!/usr/bin/env python3
"""Post-processing pipeline costs: every processor timed at ``D = 2^16``.

The unified post-processing subsystem (:mod:`repro.core.postprocess`) runs
at estimate-assembly time, so its processors sit on the query-freshness
path of the service facade -- they must stay O(D * h) array kernels, never
per-node Python loops.  This script times each registry processor on
realistic estimate shapes:

* ``clip`` / ``norm_sub`` / ``monotone_cdf`` on a noisy frequency vector;
* the two-stage ``consistency`` pipeline on the per-level values of a
  B=4 domain tree over the same domain;
* ``haar_threshold`` on a full set of Haar detail coefficients;
* ``grid_consistency`` on the level-pair grids of a 2-D hierarchy whose
  finest grid has ``D`` cells;
* ``least_squares`` at its supported small-domain scale (it materialises
  the node-by-leaf design matrix, so it is deliberately *not* an O(D * h)
  kernel -- the two-stage pipeline is the large-domain equivalent).

Results are written in the one benchmark shape ``benchmarks/gate.py``
checks; ``BENCH_postprocess.json`` at the repo root is the committed
baseline.

Run with:  python benchmarks/bench_postprocess.py [--preset smoke|default] --output RUN.json
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import time
from pathlib import Path
from typing import Callable

import numpy as np

from repro import __version__
from repro.core.postprocess import (
    FREQUENCIES,
    GRID,
    HAAR,
    TREE,
    PostContext,
    make_pipeline,
)
from repro.hierarchy.tree import DomainTree
from repro.wavelet.haar import HaarCoefficients

PRESETS = {
    "smoke": {"domain": 2**10, "grid_axis": 2**5, "repeats": 3},
    "default": {"domain": 2**16, "grid_axis": 2**8, "repeats": 5},
}

#: Domain used for the explicit least-squares processor (design-matrix
#: based, documented as small-domain only).
LEAST_SQUARES_DOMAIN = 2**8

NOISE_SCALE = 5e-4


def _time_best(func: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``func`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def _noisy_frequencies(domain: int, rng: np.random.Generator) -> np.ndarray:
    true = rng.dirichlet(np.full(domain, 0.3))
    return true + rng.normal(0.0, NOISE_SCALE, size=domain)


def _noisy_tree_levels(domain: int, branching: int, rng: np.random.Generator):
    tree = DomainTree(domain, branching)
    counts = rng.integers(0, 100, size=domain).astype(np.float64)
    counts /= counts.sum()
    padded = np.zeros(tree.padded_size)
    padded[:domain] = counts
    levels = [
        tree.level_histogram(padded, level) + rng.normal(0.0, NOISE_SCALE, tree.level_size(level))
        for level in range(tree.num_levels)
    ]
    levels[0] = np.array([1.0])
    return tree, levels


def _noisy_haar(domain: int, rng: np.random.Generator) -> HaarCoefficients:
    height = int(np.log2(domain))
    details = [rng.normal(0.0, NOISE_SCALE, size=domain // 2**j) for j in range(1, height + 1)]
    return HaarCoefficients(smooth=1.0 / np.sqrt(domain), details=details)


def _noisy_grids(axis: int, rng: np.random.Generator):
    tree = DomainTree(axis, 2)
    return {
        (lx, ly): rng.normal(
            1.0 / (tree.level_size(lx) * tree.level_size(ly)),
            NOISE_SCALE,
            size=(tree.level_size(lx), tree.level_size(ly)),
        )
        for lx in range(1, tree.height + 1)
        for ly in range(1, tree.height + 1)
    }


def run(preset: str, output: Path) -> dict:
    config = PRESETS[preset]
    domain = config["domain"]
    grid_axis = config["grid_axis"]
    repeats = config["repeats"]
    rng = np.random.default_rng(7)

    print(f"timing post-processors at D={domain} (preset {preset!r})")
    metrics = {}

    def record(processor: str, kind: str, size: int, func: Callable[[], object]) -> None:
        seconds = _time_best(func, repeats)
        # Every kernel must stay O(ms): no per-node Python loops.
        metrics[f"{processor}.ms"] = {
            "value": seconds * 1e3,
            "unit": "ms",
            "better": "lower",
            "limit": 1000.0,
        }
        print(f"  {processor:>16} ({kind:>11}, D={size:>6}): {seconds * 1e3:8.3f} ms")

    frequencies = _noisy_frequencies(domain, rng)
    freq_context = PostContext(kind=FREQUENCIES, n_users=domain * 10)
    for token in ("clip", "norm_sub", "monotone_cdf"):
        pipeline = make_pipeline(token)
        record(
            token,
            FREQUENCIES,
            domain,
            lambda pipeline=pipeline: pipeline.apply(frequencies, freq_context),
        )

    tree, levels = _noisy_tree_levels(domain, 4, rng)
    tree_context = PostContext(kind=TREE, branching=4, tree=tree)
    consistency = make_pipeline("consistency")
    record("consistency", TREE, domain, lambda: consistency.apply(levels, tree_context))

    small_tree, small_levels = _noisy_tree_levels(LEAST_SQUARES_DOMAIN, 4, rng)
    small_context = PostContext(kind=TREE, branching=4, tree=small_tree)
    least_squares = make_pipeline("least_squares")
    record(
        "least_squares",
        TREE,
        LEAST_SQUARES_DOMAIN,
        lambda: least_squares.apply(small_levels, small_context),
    )

    coefficients = _noisy_haar(domain, rng)
    haar_context = PostContext(
        kind=HAAR,
        noise_variances={j + 1: NOISE_SCALE**2 for j in range(coefficients.height)},
    )
    haar_threshold = make_pipeline("haar_threshold")
    record(
        "haar_threshold",
        HAAR,
        domain,
        lambda: haar_threshold.apply(coefficients, haar_context),
    )

    grids = _noisy_grids(grid_axis, rng)
    grid_context = PostContext(kind=GRID)
    grid_consistency = make_pipeline("grid_consistency")
    record(
        "grid_consistency",
        GRID,
        grid_axis * grid_axis,
        lambda: grid_consistency.apply(grids, grid_context),
    )

    # Individual kernels are sub-millisecond and jittery, so the relative
    # gate is on their geometric mean: one noisy sample cannot fail it.
    logs = [math.log(metric["value"]) for metric in metrics.values()]
    geomean = math.exp(sum(logs) / len(logs))
    print(f"  geometric mean: {geomean:.3f} ms")
    document = {
        "bench": "postprocess",
        "preset": preset,
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "config": {
            "domain_size": domain,
            "grid_cells": grid_axis * grid_axis,
            "least_squares_domain": LEAST_SQUARES_DOMAIN,
            "repeats": repeats,
        },
        "metrics": {
            **metrics,
            "geomean.ms": {"value": geomean, "unit": "ms", "better": "lower", "bound": 0.3},
        },
    }
    output.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")
    return document


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", choices=sorted(PRESETS), default="default")
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args()
    run(args.preset, args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
