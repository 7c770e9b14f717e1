#!/usr/bin/env python3
"""Sliding-window estimates from an epoch-aware aggregation service.

A long-running LDP aggregation service does not see one static population:
traffic arrives continuously and the underlying distribution drifts.  The
:class:`repro.engine.Engine` façade models this directly:

1. each *epoch* (here: a "day" of traffic) is absorbed into its own
   mergeable accumulator shard -- historical epochs are never touched;
2. with ``store_dir=`` the service is durable: each sealed day spills to
   its own memory-mapped segment file, and the engine restarts from the
   store's manifest alone, bit-identically;
3. queries are answered over *windows* of epochs -- all-time, or a
   sliding ``last(k)`` -- by merging exactly the selected shards, read
   from disk.

The population drifts upward over the week, so the sliding window tracks
the current median while the all-time estimate lags behind it.

Run with:  python examples/engine_windows.py
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from repro.data import cauchy_population
from repro.engine import Engine, last

DOMAIN_SIZE = 1024
USERS_PER_DAY = 40_000
N_DAYS = 7
EPSILON = 1.1


def daily_items(day: int, rng: np.random.Generator) -> np.ndarray:
    """One day of traffic; the population center drifts right over time."""
    center = 0.25 + 0.06 * day  # fraction of the domain
    return cauchy_population(
        domain_size=DOMAIN_SIZE,
        n_users=USERS_PER_DAY,
        center_fraction=center,
        rng=rng,
    ).items


def main() -> None:
    rng = np.random.default_rng(0)
    store_dir = os.path.join(tempfile.mkdtemp(), "epochstore")
    engine = Engine.open(
        "hh", domain_size=DOMAIN_SIZE, epsilon=EPSILON, branching=4,
        store_dir=store_dir,
    )

    # --- the service absorbs one epoch per day and seals it ------------ #
    true_medians = []
    for day in range(N_DAYS):
        items = daily_items(day, rng)
        true_medians.append(int(np.median(items)))
        engine.session(epoch=day).absorb(items, rng=rng)
        engine.seal_epoch(day)  # spill to its own segment, evict from RAM
    engine.checkpoint()  # incremental: manifest only, nothing is dirty
    print(f"service state: {engine.describe()}")
    print(f"epoch store: {len(engine.sealed_epochs)} sealed segments, "
          f"{engine.store.total_bytes():,} bytes in {store_dir}")

    # --- durability: forget everything, restore from the manifest ------ #
    engine = Engine.restore(store_dir)  # lazy: no segment is read yet
    print(f"restored:      {engine.describe()}")

    # --- windowed queries: sliding window vs all-time ------------------ #
    print()
    print(f"{'day':>4} {'true median':>12} {'last-2 window':>14} {'all-time':>9}")
    for day in range(1, N_DAYS):
        window = [epoch for epoch in range(max(0, day - 1), day + 1)]
        sliding = engine.estimator(window=window)
        alltime = engine.estimator(window=range(day + 1))
        print(
            f"{day:>4} {true_medians[day]:>12} "
            f"{sliding.quantile_query(0.5):>14} "
            f"{alltime.quantile_query(0.5):>9}"
        )

    # ``last(k)`` resolves against whatever epochs exist right now.
    recent = engine.estimator(window=last(2))
    print()
    print(
        "current last-2-day median estimate:",
        recent.quantile_query(0.5),
        f"(true median of day {N_DAYS - 1}: {true_medians[-1]})",
    )
    print(
        "reports per window:",
        {
            "last(2)": engine.n_reports(last(2)),
            "all": engine.n_reports(),
        },
    )


if __name__ == "__main__":
    main()
