#!/usr/bin/env python3
"""Service throughput: sustained ingest rate, p99 latency, recovery time.

The network-facing aggregation service (:mod:`repro.service`) shards the
ingest hot loop across worker processes; this script quantifies the
deployment-facing numbers the engine benchmark cannot see:

* **sustained ingest throughput** -- reports/second through the full
  HTTP gateway -> worker -> epoch-close path, measured by the in-tree
  load generator over keep-alive connections;
* **ingest latency** -- client-observed p50/p99/max per ``POST /ingest``
  round trip;
* **recovery time** -- wall clock from "epoch store on disk" to "service
  restarted, all epochs restored, queries answering", i.e. the crash
  recovery budget;
* **WAL overhead** -- the same ingest workload with the durable ingest
  log on, reported as a ratio against the WAL-off rate (the price of
  exactly-once acknowledgements); both runs seal each closed epoch into
  an epoch store, since a WAL needs one;
* **WAL replay** -- wall clock to replay a crash-orphaned open epoch
  from the log into fresh workers on restart (the unclosed-epoch
  crash-window recovery budget);
* **bit-identity check** -- the sharded service's frequency estimates
  are asserted equal to a single-process ingest of the same batches
  before any number is recorded (a fast benchmark that answers wrongly
  is worthless).

Results are written to ``BENCH_service.json`` at the repo root so the
performance trajectory is tracked in-tree.

Run with:  python benchmarks/bench_service.py [--preset smoke|default]
"""

from __future__ import annotations

import argparse
import json
import platform
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import __version__
from repro.service import (
    AggregationService,
    ServiceThread,
    generate_batches,
    ingest_batches_single_process,
    request_json,
    run_loadgen,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_service.json"

PRESETS = {
    "smoke": {
        "domain": 2**8,
        "users": 20_000,
        "batch_size": 1_000,
        "workers": 2,
        "concurrency": 4,
        "epochs": 2,
        "replay_users": 20_000,
    },
    "default": {
        "domain": 2**10,
        "users": 200_000,
        "batch_size": 2_000,
        "workers": 4,
        "concurrency": 8,
        "epochs": 3,
        "replay_users": 100_000,
    },
}

SPEC_BASE = {"name": "hh", "epsilon": 1.1, "branching": 4}


def run(preset: str, output: Path) -> dict:
    config = PRESETS[preset]
    spec = {**SPEC_BASE, "domain_size": config["domain"]}
    epochs = config["epochs"]
    users_per_epoch = config["users"] // epochs

    print(
        f"encoding population: D={config['domain']}, {config['users']:,} users "
        f"in {epochs} epochs (preset {preset!r})"
    )
    epoch_blobs = []
    for epoch in range(epochs):
        _, blobs = generate_batches(
            spec,
            n_users=users_per_epoch,
            batch_size=config["batch_size"],
            distribution="zipf",
            seed=epoch,
        )
        epoch_blobs.append(blobs)

    store_dir = str(Path(tempfile.mkdtemp(prefix="bench-service-")) / "store")
    service = AggregationService(
        spec, num_workers=config["workers"], store_dir=store_dir
    )
    epoch_results = []
    with ServiceThread(service) as handle:
        url = handle.url
        print(f"service up at {url} ({config['workers']} workers)")
        # warm-up barrier: a stats round trip forces every worker process
        # through its import + first pipe receive before the clock starts
        request_json(url + "/stats")
        for epoch, blobs in enumerate(epoch_blobs):
            result = run_loadgen(
                url,
                blobs,
                n_users=users_per_epoch,
                concurrency=config["concurrency"],
            )
            assert result.errors == 0, f"epoch {epoch}: {result.errors} errors"
            assert result.closed_epoch == epoch
            epoch_results.append(result)
            print(
                f"  epoch {epoch}: {result.reports_per_s:12,.0f} reports/sec, "
                f"p99 {result.latency_p99_ms:6.2f} ms "
                f"({result.batches} batches x {config['batch_size']:,})"
            )
        service_frequencies = request_json(url + "/query?frequencies=1&window=0")[
            "frequencies"
        ]

    # correctness gate: shard fan-out must be unobservable in estimates
    reference = ingest_batches_single_process(spec, epoch_blobs[0]).finalize()
    assert service_frequencies == [
        float(value) for value in reference.estimated_frequencies()
    ], "sharded service drifted from single-process ingestion"
    print("bit-identity vs single-process ingest: OK")

    # recovery: epoch store on disk -> restarted service answering queries
    recovery_start = time.perf_counter()
    restored = AggregationService.from_store(
        store_dir, num_workers=config["workers"]
    )
    with ServiceThread(restored) as handle:
        request_json(handle.url + "/query?frequencies=1&window=all")
        recovery_seconds = time.perf_counter() - recovery_start
        assert list(restored.engine.epochs) == list(range(epochs))
        assert restored.engine.n_reports() == users_per_epoch * epochs
        store_bytes = restored.engine.store.total_bytes()
    print(
        f"recovery from the epoch store: {recovery_seconds * 1e3:,.0f} ms "
        f"({epochs} epochs, {users_per_epoch * epochs:,} reports restored)"
    )

    # WAL overhead: re-run the workload durably.  Epoch 0 is an
    # unmeasured warm-up (fresh worker processes run the first epoch
    # several times slower than warm ones, WAL or not); the comparison
    # is warm-epoch against warm-epoch.
    wal_root = Path(tempfile.mkdtemp(prefix="bench-service-wal-"))
    wal_service = AggregationService(
        spec,
        num_workers=config["workers"],
        store_dir=str(wal_root / "ingest-store"),
        wal_dir=str(wal_root / "ingest"),
    )
    with ServiceThread(wal_service) as handle:
        request_json(handle.url + "/stats")
        warmup = run_loadgen(
            handle.url,
            epoch_blobs[0],
            n_users=users_per_epoch,
            concurrency=config["concurrency"],
        )
        assert warmup.errors == 0
        wal_result = run_loadgen(
            handle.url,
            epoch_blobs[1],
            n_users=users_per_epoch,
            concurrency=config["concurrency"],
        )
        assert wal_result.errors == 0
        wal_frequencies = request_json(
            handle.url + "/query?frequencies=1&window=0"
        )["frequencies"]
    assert wal_frequencies == service_frequencies, (
        "WAL-on service drifted from the WAL-off answers"
    )
    wal_off_rate = epoch_results[-1].reports_per_s
    overhead = wal_off_rate / wal_result.reports_per_s
    print(
        f"WAL-on ingest: {wal_result.reports_per_s:12,.0f} reports/sec "
        f"({overhead:.2f}x slower than the warm WAL-off epoch)"
    )

    # WAL replay: crash mid-epoch, restart, replay the open segment
    replay_users = config["replay_users"]
    _, replay_blobs = generate_batches(
        spec,
        n_users=replay_users,
        batch_size=config["batch_size"],
        distribution="zipf",
        seed=99,
    )
    crash_dir = str(wal_root / "crash")
    crash_store = str(wal_root / "crash-store")
    victim = AggregationService(
        spec, num_workers=config["workers"], store_dir=crash_store,
        wal_dir=crash_dir,
    )
    handle = ServiceThread(victim).start()
    try:
        run_loadgen(
            handle.url,
            replay_blobs,
            n_users=replay_users,
            concurrency=config["concurrency"],
            close_epoch=False,
        )
    finally:
        handle.stop(flush=False)  # crash: the epoch lives only in the WAL
    survivor = AggregationService.from_store(
        crash_store, num_workers=config["workers"], wal_dir=crash_dir
    )
    with ServiceThread(survivor) as handle:
        stats = request_json(handle.url + "/stats")
        replay_ms = stats["wal"]["recovery_ms"]
        assert stats["replayed_batches"] == len(replay_blobs)
        closed = request_json(handle.url + "/close", method="POST")
        assert closed["reports"] == replay_users
    print(
        f"WAL replay after crash: {replay_ms:,.0f} ms "
        f"({replay_users:,} reports, {len(replay_blobs)} batches)"
    )

    all_latencies = [
        sample for result in epoch_results for sample in result.latencies_ms
    ]
    from repro.service.loadgen import percentile

    total_elapsed = sum(result.elapsed_s for result in epoch_results)
    sustained = (users_per_epoch * epochs) / total_elapsed
    document = {
        "version": __version__,
        "preset": preset,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "config": {
            "spec": spec,
            "users": users_per_epoch * epochs,
            "epochs": epochs,
            "batch_size": config["batch_size"],
            "workers": config["workers"],
            "concurrency": config["concurrency"],
        },
        "ingest": {
            "reports_per_s": sustained,
            "per_epoch_reports_per_s": [r.reports_per_s for r in epoch_results],
            "latency_p50_ms": percentile(all_latencies, 50.0),
            "latency_p99_ms": percentile(all_latencies, 99.0),
            "latency_max_ms": max(all_latencies) if all_latencies else 0.0,
        },
        "recovery": {
            "from_store_ms": recovery_seconds * 1e3,
            "store_bytes": store_bytes,
            "epochs_restored": epochs,
        },
        "wal": {
            "ingest_reports_per_s": wal_result.reports_per_s,
            "overhead_ratio": overhead,
            "replay_reports": replay_users,
            "replay_ms": replay_ms,
            "replay_reports_per_s": replay_users / (replay_ms / 1e3)
            if replay_ms > 0
            else 0.0,
        },
        "bit_identical_to_single_process": True,
    }
    output.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(
        f"sustained {sustained:,.0f} reports/sec, "
        f"p99 {document['ingest']['latency_p99_ms']:.2f} ms"
    )
    print(f"wrote {output}")
    return document


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", choices=sorted(PRESETS), default="default")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args()
    run(args.preset, args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
