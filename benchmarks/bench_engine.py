#!/usr/bin/env python3
"""Engine façade costs: checkpoint size, restore latency, windowed queries.

The epoch-aware :class:`repro.engine.Engine` adds a management layer on
top of the streaming accumulators; this script measures what that layer
costs so the service-shaped deployment can be sized:

* **checkpoint size** -- on-disk bytes of the epoch-store segments as a
  function of the epoch count (each epoch is an independent accumulator
  shard);
* **checkpoint/restore latency** -- a full ``checkpoint()`` of every
  in-RAM epoch into a fresh epoch store, and ``Engine.restore(dir)`` plus
  a ``load_state`` of every epoch (a one-segment vector gather; SHE
  decodes its packed state);
* **window materialisation** -- how fast ``engine.estimator(window=...)``
  lazily merges a window of epochs and finalizes (windows/sec);
* **windowed-query throughput** -- end-to-end queries/sec for a random
  range workload answered through a freshly materialised window.

Results are written to ``BENCH_engine.json`` at the repo root so the
performance trajectory is tracked in-tree.

Run with:  python benchmarks/bench_engine.py [--preset smoke|default]
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import tempfile
import time
from pathlib import Path
from typing import Callable

import numpy as np

from repro import __version__
from repro.engine import Engine, last
from repro.queries.workload import random_range_workload

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_engine.json"

PRESETS = {
    "smoke": {
        "domain": 2**8,
        "epochs": 4,
        "users_per_epoch": 5_000,
        "workload": 2_000,
        "repeats": 3,
    },
    "default": {
        "domain": 2**10,
        "epochs": 8,
        "users_per_epoch": 25_000,
        "workload": 10_000,
        "repeats": 5,
    },
}

EPSILON = 1.1


def _time_best(func: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``func`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def _build_engine(domain: int, epochs: int, users_per_epoch: int) -> Engine:
    engine = Engine.open("hh", domain_size=domain, epsilon=EPSILON, branching=4)
    rng = np.random.default_rng(0)
    for epoch in range(epochs):
        items = rng.integers(0, domain, size=users_per_epoch)
        engine.session(epoch=epoch).absorb(items, rng=rng)
    return engine


def _checkpoint_into_fresh_store(engine: Engine, store_dir: str) -> float:
    """Seconds for one full ``checkpoint()`` of ``engine``'s epochs into a new store."""
    stored = Engine.open(engine.spec(), store_dir=store_dir)
    for epoch in engine.epochs:
        stored.adopt_state(engine.session(epoch=epoch).snapshot(), epoch=epoch)
    start = time.perf_counter()
    stored.checkpoint()
    seconds = time.perf_counter() - start
    stored.store.close()
    return seconds


def _restore_every_epoch(store_dir: str) -> Engine:
    """``Engine.restore`` plus a full load of every stored epoch's state."""
    restored = Engine.restore(store_dir)
    for epoch in restored.epochs:
        restored.store.load_state(epoch)
    return restored


def run(preset: str, output: Path) -> dict:
    config = PRESETS[preset]
    domain = config["domain"]
    epochs = config["epochs"]
    users = config["users_per_epoch"]
    repeats = config["repeats"]

    print(
        f"building engine: D={domain}, {epochs} epochs x {users:,} users "
        f"(preset {preset!r})"
    )
    engine = _build_engine(domain, epochs, users)

    workload = random_range_workload(domain, config["workload"], np.random.default_rng(3))
    windows = {
        "all": "all",
        "last_2": last(2),
        f"last_{max(2, epochs // 2)}": last(max(2, epochs // 2)),
    }
    results = []
    for label, window in windows.items():
        materialize_seconds = _time_best(
            lambda window=window: engine.estimator(window), repeats
        )

        def query_window(window=window):
            estimator = engine.estimator(window)
            estimator.range_queries(workload)

        query_seconds = _time_best(query_window, repeats)
        results.append(
            {
                "window": label,
                "epochs_in_window": len(engine.epochs)
                if window == "all"
                else min(window.k, len(engine.epochs)),
                "materialize_ms": materialize_seconds * 1e3,
                "windows_per_sec": 1.0 / materialize_seconds,
                "queries_per_sec": len(workload) / query_seconds,
            }
        )
        print(
            f"  window {label:>8}: materialise {materialize_seconds * 1e3:8.2f} ms, "
            f"{len(workload) / query_seconds:12,.0f} queries/sec end-to-end"
        )

    # Timed after the window rows, so the store's fsync'd writes cannot
    # slow the in-RAM rows down.
    workdir = Path(tempfile.mkdtemp(prefix="bench_engine_"))
    try:
        checkpoint_seconds = min(
            _checkpoint_into_fresh_store(engine, str(workdir / f"store_{repeat}"))
            for repeat in range(repeats)
        )
        store_dir = str(workdir / "store_0")
        restore_seconds = _time_best(lambda: _restore_every_epoch(store_dir), repeats)
        restored = _restore_every_epoch(store_dir)
        assert restored.epochs == engine.epochs
        assert restored.n_reports() == epochs * users
        size = restored.store.total_bytes()
        restored.store.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    document = {
        "version": __version__,
        "preset": preset,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "config": {
            "domain_size": domain,
            "epochs": epochs,
            "users_per_epoch": users,
            "epsilon": EPSILON,
            "workload_queries": config["workload"],
        },
        "checkpoint": {
            "bytes": size,
            "bytes_per_epoch": size / epochs,
            "checkpoint_ms": checkpoint_seconds * 1e3,
            "restore_ms": restore_seconds * 1e3,
        },
        "results": results,
    }
    output.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(
        f"checkpoint: {size:,} bytes ({size / epochs:,.0f}/epoch), "
        f"write {checkpoint_seconds * 1e3:.2f} ms, restore "
        f"{restore_seconds * 1e3:.2f} ms"
    )
    print(f"wrote {output}")
    return document


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", choices=sorted(PRESETS), default="default")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args()
    run(args.preset, args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
