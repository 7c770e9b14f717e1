#!/usr/bin/env python3
"""Out-of-core epoch store costs: spill, pushdown queries, checkpoints.

The :class:`repro.engine.store.EpochStore` lets an engine hold epoch
histories far larger than RAM: sealed epochs live in per-epoch mmap
segments, checkpoints rewrite only dirty segments, and windowed queries
over sealed epochs run via integer-vector pushdown.  This script sizes
that trade against the in-RAM engine:

* **build/seal rate** -- epochs/sec for ingest-then-seal, timed after an
  untimed warm-up build of the same store (a cold first build reads
  slower), plus the process peak RSS after sealing every epoch (the
  O(window) claim);
* **windowed query** -- ``estimator(last(k))`` against sealed segments
  vs the same window held fully in RAM (target: within 2x);
* **wide windowed query** -- ``last:{window_wide}`` answered through the
  power-of-two aggregate hierarchy vs the naive per-epoch pushdown sum
  (``use_aggregates=False``); target: >= 3x at the default preset, with
  a bit-identity check between the two plans;
* **incremental vs monolithic checkpoint** -- with ~1% of epochs dirty,
  ``checkpoint()`` should beat the pre-store deployment, which packs
  every in-RAM epoch into one file (:func:`_monolithic_checkpoint`), by
  >= 4x at the default preset;
* **restore** -- manifest-only restart latency, plus a bit-identity
  check of the windowed answer across the restart.

Results are written in the one benchmark shape ``benchmarks/gate.py``
checks; ``BENCH_store.json`` at the repo root is the committed baseline.

Run with:  python benchmarks/bench_store.py [--preset smoke|default] --output RUN.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import tempfile
import time
from pathlib import Path
from typing import Callable

import numpy as np

from repro import __version__
from repro.core.serialization import pack_blob, pack_child
from repro.engine import Engine, last

PRESETS = {
    "smoke": {
        "domain": 2**8,
        "epochs": 64,
        "users_per_epoch": 100,
        "window": 7,
        "window_wide": 16,
        "repeats": 3,
        "sample_seconds": 0.0,
    },
    "default": {
        "domain": 2**8,
        "epochs": 1024,
        "users_per_epoch": 200,
        "window": 7,
        "window_wide": 64,
        "repeats": 5,
        "sample_seconds": 1.0,
    },
}

EPSILON = 1.1

#: Timed checkpoint pairs, one monolithic and one incremental each.  An
#: incremental checkpoint takes tens of milliseconds, and on a shared machine
#: a best of five can land entirely in a slow second; sixty pairs span
#: several seconds.
CHECKPOINT_REPEATS = 60


def _time_best(func: Callable[[], object], repeats: int, seconds: float = 0.0) -> float:
    """Best wall time of ``func`` in seconds, over ``repeats`` calls and ``seconds``.

    A shared machine has slow spells of a second or two in which every call
    runs about half as fast, so a sub-millisecond query timed over a few
    milliseconds can land entirely inside one.
    """
    best = float("inf")
    deadline = time.perf_counter() + seconds
    calls = 0
    while calls < repeats or time.perf_counter() < deadline:
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
        calls += 1
    return best


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _epoch_items(domain: int, users: int, epoch: int) -> np.ndarray:
    return np.random.default_rng(epoch).integers(0, domain, size=users)


def _build(store_dir: str, domain: int, epochs: int, users: int) -> Engine:
    """Ingest and seal ``epochs`` epochs of ``users`` reports into a fresh store."""
    engine = Engine.open(
        "hh", domain_size=domain, epsilon=EPSILON, branching=4, store_dir=store_dir,
    )
    for epoch in range(epochs):
        engine.session(epoch=epoch).absorb(
            _epoch_items(domain, users, epoch),
            rng=np.random.default_rng(10_000 + epoch),
        )
        engine.seal_epoch(epoch)
    return engine


def _monolithic_checkpoint(engine: Engine, path: str) -> None:
    """The pre-store baseline: every in-RAM epoch packed into one file.

    The same work as the monolithic checkpoint envelope of repro 1.10.0:
    each epoch's state is packed and nested in one blob, which replaces
    the file atomically.
    """
    keys = list(engine.live_epochs)
    blob = pack_blob(
        {"epochs": keys},
        {
            f"epoch_{key}": pack_child(engine.session(epoch=key).server.to_bytes())
            for key in keys
        },
    )
    temp_path = f"{path}.tmp"
    with open(temp_path, "wb") as handle:
        handle.write(blob)
    os.replace(temp_path, path)


def run(preset: str, output: Path) -> dict:
    config = PRESETS[preset]
    domain = config["domain"]
    epochs = config["epochs"]
    users = config["users_per_epoch"]
    window = config["window"]
    window_wide = config["window_wide"]
    repeats = config["repeats"]
    sample_seconds = config["sample_seconds"]

    workdir = Path(tempfile.mkdtemp(prefix="bench_store_"))
    store_dir = str(workdir / "store")
    try:
        print(
            f"building store: D={domain}, {epochs} epochs x {users} users, "
            f"window last:{window} (preset {preset!r})"
        )
        rss_before = _max_rss_mb()
        warm_dir = str(workdir / "warm-up")
        _build(warm_dir, domain, epochs, users).store.close()
        shutil.rmtree(warm_dir)
        build_start = time.perf_counter()
        engine = _build(store_dir, domain, epochs, users)
        build_seconds = time.perf_counter() - build_start
        assert list(engine.live_epochs) == [], "sealing must evict the epoch"
        print(
            f"  sealed {epochs} epochs in {build_seconds:.2f} s "
            f"({epochs / build_seconds:,.0f} epochs/sec), "
            f"{engine.store.total_bytes() / 1e6:.1f} MB on disk"
        )

        # The in-RAM comparator holds only the queried window, so its own
        # footprint stays negligible next to the 1000-epoch store; peak
        # RSS captured here is the O(window) number.
        in_ram = Engine.open("hh", domain_size=domain, epsilon=EPSILON, branching=4)
        for epoch in range(epochs - window, epochs):
            in_ram.session(epoch=epoch).absorb(
                _epoch_items(domain, users, epoch),
                rng=np.random.default_rng(10_000 + epoch),
            )

        store_answer = engine.estimator(last(window)).estimated_frequencies()
        ram_answer = in_ram.estimator("all").estimated_frequencies()
        bit_identical = bool(np.array_equal(store_answer, ram_answer))
        assert bit_identical, "store-backed window drifted from the in-RAM merge"

        store_seconds = _time_best(
            lambda: engine.estimator(last(window)), repeats, sample_seconds
        )
        ram_seconds = _time_best(
            lambda: in_ram.estimator("all"), repeats, sample_seconds
        )
        ratio = store_seconds / ram_seconds
        print(
            f"  window last:{window}: store {store_seconds * 1e3:.2f} ms vs "
            f"in-RAM {ram_seconds * 1e3:.2f} ms ({ratio:.2f}x)"
        )

        # Wide window through the aggregate hierarchy: O(log k) segment
        # reads vs the naive O(k) per-epoch pushdown sum over the same
        # epochs.  Both paths must agree bit-for-bit.
        store = engine.store
        wide_keys = list(range(epochs - window_wide, epochs))
        plan = store.plan_window(wide_keys)
        planned_state = store.pushdown_state(wide_keys)
        naive_state = store.pushdown_state(wide_keys, use_aggregates=False)
        wide_identical = planned_state.n_reports == naive_state.n_reports and all(
            np.array_equal(p.vectors[name], n.vectors[name])
            for p, n in zip(planned_state.children, naive_state.children)
            for name in p.vectors
        )
        assert wide_identical, "aggregate plan drifted from the per-epoch sum"
        planned_seconds = _time_best(
            lambda: store.pushdown_state(wide_keys), repeats, sample_seconds
        )
        naive_seconds = _time_best(
            lambda: store.pushdown_state(wide_keys, use_aggregates=False),
            repeats,
            sample_seconds,
        )
        wide_speedup = naive_seconds / planned_seconds
        aggregate_stats = store.aggregate_stats()
        print(
            f"  wide window last:{window_wide}: planned "
            f"{planned_seconds * 1e3:.2f} ms ({len(plan)} plan nodes) vs "
            f"naive {naive_seconds * 1e3:.2f} ms over {window_wide} leaves "
            f"({wide_speedup:.1f}x; {aggregate_stats['segments']} aggregate "
            f"segments, {aggregate_stats['bytes'] / 1e6:.1f} MB)"
        )

        # The monolithic baseline is the pre-store deployment: every epoch
        # lives in RAM and a checkpoint must serialize all of them.
        full = Engine.open("hh", domain_size=domain, epsilon=EPSILON, branching=4)
        for epoch in range(epochs):
            full.session(epoch=epoch).absorb(
                _epoch_items(domain, users, epoch),
                rng=np.random.default_rng(10_000 + epoch),
            )
        # ~1% of the history dirty: the incremental checkpoint rewrites
        # exactly those segments, the monolithic one rewrites everything.
        # The two alternate in one loop, so a slow spell of the machine
        # reaches both sides of the speedup alike.
        mono_path = str(workdir / "mono.ckpt")
        dirty = max(1, epochs // 100)
        monolithic_seconds = incremental_seconds = float("inf")
        for repeat in range(CHECKPOINT_REPEATS):
            monolithic_seconds = min(
                monolithic_seconds,
                _time_best(lambda: _monolithic_checkpoint(full, mono_path), 1),
            )
            for epoch in range(dirty):
                engine.session(epoch=epoch).absorb(
                    np.arange(domain) % domain,
                    rng=np.random.default_rng(777 + repeat),
                )
            written_before = engine.store.segments_written
            incremental_seconds = min(
                incremental_seconds, _time_best(engine.checkpoint, 1)
            )
            assert engine.store.segments_written - written_before == dirty
            for epoch in range(dirty):
                engine.seal_epoch(epoch)
        speedup = monolithic_seconds / incremental_seconds
        print(
            f"  checkpoint with {dirty}/{epochs} epochs dirty: incremental "
            f"{incremental_seconds * 1e3:.2f} ms vs monolithic "
            f"{monolithic_seconds * 1e3:.2f} ms ({speedup:.1f}x)"
        )

        restore_start = time.perf_counter()
        restored = Engine.restore(store_dir)
        restored_answer = restored.estimator(last(window)).estimated_frequencies()
        restore_seconds = time.perf_counter() - restore_start
        assert np.array_equal(restored_answer, store_answer), (
            "restart changed the windowed answer"
        )
        restored.store.close()
        rss_after = _max_rss_mb()

        # The three ratio floors hold at the default preset's scale only.
        at_scale = preset == "default"
        document = {
            "bench": "store",
            "preset": preset,
            "version": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "config": {
                "domain_size": domain,
                "epochs": epochs,
                "users_per_epoch": users,
                "window": window,
                "window_wide": window_wide,
                "epsilon": EPSILON,
                "dirty_epochs": dirty,
                "repeats": repeats,
                "sample_seconds": sample_seconds,
                "checkpoint_repeats": CHECKPOINT_REPEATS,
            },
            "metrics": {
                "build.sealed_epochs_per_s": {
                    "value": epochs / build_seconds, "unit": "epochs/s",
                    "better": "higher", "bound": 0.3,
                },
                "build.store_bytes": {
                    "value": engine.store.total_bytes(), "unit": "B", "better": "lower",
                },
                "build.max_rss_mb": {"value": rss_after, "unit": "MB", "better": "lower"},
                "query.store_windows_per_s": {
                    "value": 1.0 / store_seconds, "unit": "windows/s",
                    "better": "higher", "bound": 0.3,
                },
                "query.in_ram_windows_per_s": {
                    "value": 1.0 / ram_seconds, "unit": "windows/s", "better": "higher",
                },
                "query.store_vs_in_ram_ratio": {
                    "value": ratio, "unit": "x", "better": "lower",
                    **({"limit": 2.0} if at_scale else {}),
                },
                "query.bit_identical": {"value": bit_identical},
                "query_wide.planned_ms": {
                    "value": planned_seconds * 1e3, "unit": "ms", "better": "lower",
                },
                "query_wide.naive_ms": {
                    "value": naive_seconds * 1e3, "unit": "ms", "better": "lower",
                },
                "query_wide.speedup": {
                    "value": wide_speedup, "unit": "x", "better": "higher",
                    **({"limit": 3.0} if at_scale else {}),
                },
                "query_wide.plan_nodes": {"value": len(plan), "unit": "nodes", "better": "lower"},
                "query_wide.bit_identical": {"value": wide_identical},
                "checkpoint.incremental_per_s": {
                    "value": 1.0 / incremental_seconds, "unit": "checkpoints/s",
                    "better": "higher", "bound": 0.3,
                },
                "checkpoint.monolithic_per_s": {
                    "value": 1.0 / monolithic_seconds, "unit": "checkpoints/s",
                    "better": "higher",
                },
                # An incremental checkpoint also rebuilds the aggregate
                # segments its dirty epochs invalidate, so the floor sits
                # below the pre-aggregate 5x.
                "checkpoint.incremental_speedup": {
                    "value": speedup, "unit": "x", "better": "higher",
                    **({"limit": 4.0} if at_scale else {}),
                },
                "restore.restore_and_query_ms": {
                    "value": restore_seconds * 1e3, "unit": "ms", "better": "lower",
                },
            },
        }
        output.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(
            f"restore+query {restore_seconds * 1e3:.1f} ms, peak RSS "
            f"{rss_after:.0f} MB (+{rss_after - rss_before:.0f} MB over build)"
        )
        print(f"wrote {output}")
        return document
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", choices=sorted(PRESETS), default="default")
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args()
    run(args.preset, args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
