#!/usr/bin/env python3
"""Service throughput: sustained ingest rate, p99 latency, recovery time.

The network-facing aggregation service (:mod:`repro.service`) shards the
ingest hot loop across worker processes; this script quantifies the
deployment-facing numbers the engine benchmark cannot see:

* **sustained ingest throughput** -- reports/second through the full
  HTTP gateway -> worker -> epoch-close path, posted over keep-alive
  connections by perfbench's HTTP client (``perfbench/client.py``);
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

Results are written in the one benchmark shape ``benchmarks/gate.py``
checks; ``BENCH_service.json`` at the repo root is the committed baseline.

Run with:  python benchmarks/bench_service.py [--preset smoke|default] --output RUN.json
"""

from __future__ import annotations

import argparse
import itertools
import json
import platform
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

# perfbench/ sits at the repository root, beside benchmarks/.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.client import CallLog, Connection  # noqa: E402
from repro import __version__  # noqa: E402
from repro.service import (  # noqa: E402
    AggregationService,
    ServiceThread,
    generate_batches,
    ingest_batches_single_process,
    request_json,
)
from repro.service.loadgen import percentile  # noqa: E402

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


@dataclass
class EpochRun:
    """One epoch's batches posted (and by default closed) against a gateway."""

    n_users: int
    elapsed_s: float
    latencies_ms: List[float]
    closed_epoch: Optional[int]

    @property
    def reports_per_s(self) -> float:
        return self.n_users / self.elapsed_s


def post_epoch(
    port: int, blobs: List[bytes], n_users: int, concurrency: int, key: str,
    close: bool = True,
) -> EpochRun:
    """POST every batch from ``concurrency`` keep-alive connections.

    Batches come off one shared cursor, batch ``i`` under the idempotency
    key ``{key}:{i}``.  With ``close`` the run ends with ``POST /close``,
    inside the clock: a report is not ingested until its epoch is
    queryable.  Any answer but 200 fails the run; nothing is retried.
    """
    log = CallLog()
    connections = [
        Connection(port, log) for _ in range(min(concurrency, len(blobs)))
    ]
    cursor = itertools.count()

    def pump(connection: Connection) -> None:
        while (index := next(cursor)) < len(blobs):
            connection.request(
                "ingest", "POST", "/ingest", blobs[index],
                headers={"Idempotency-Key": f"{key}:{index}"},
            )

    started = time.perf_counter()
    threads = [
        threading.Thread(target=pump, args=(connection,))
        for connection in connections
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    closed_epoch = None
    if close:
        reply = connections[0].request("close", "POST", "/close", keep_body=True)
        if reply.ok:
            closed_epoch = json.loads(reply.body)["epoch"]
    elapsed = time.perf_counter() - started
    for connection in connections:
        connection.close()
    failed = [call for call in log.calls if not call.ok]
    assert not failed, (
        f"{len(failed)} of {len(log.calls)} requests failed; first: "
        f"{failed[0].kind} -> {failed[0].status} {failed[0].body[:200]!r}"
    )
    return EpochRun(
        n_users, elapsed, [call.latency_ms for call in log.of_kind("ingest")],
        closed_epoch,
    )


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
            result = post_epoch(
                handle.port, blobs, users_per_epoch, config["concurrency"],
                key=f"ingest{epoch}",
            )
            assert result.closed_epoch == epoch
            epoch_results.append(result)
            print(
                f"  epoch {epoch}: {result.reports_per_s:12,.0f} reports/sec, "
                f"p99 {percentile(result.latencies_ms, 99.0):6.2f} ms "
                f"({len(blobs)} batches x {config['batch_size']:,})"
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
        post_epoch(
            handle.port, epoch_blobs[0], users_per_epoch, config["concurrency"],
            key="wal-warmup",
        )
        wal_result = post_epoch(
            handle.port, epoch_blobs[1], users_per_epoch, config["concurrency"],
            key="wal",
        )
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
        post_epoch(
            handle.port, replay_blobs, replay_users, config["concurrency"],
            key="crash", close=False,
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
    total_elapsed = sum(result.elapsed_s for result in epoch_results)
    sustained = (users_per_epoch * epochs) / total_elapsed
    document = {
        "bench": "service",
        "preset": preset,
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "config": {
            "spec": spec,
            "users": users_per_epoch * epochs,
            "epochs": epochs,
            "batch_size": config["batch_size"],
            "workers": config["workers"],
            "concurrency": config["concurrency"],
            "replay_users": replay_users,
        },
        "metrics": {
            "ingest.reports_per_s": {
                "value": sustained, "unit": "reports/s", "better": "higher", "bound": 0.3,
            },
            "ingest.latency_p50_ms": {
                "value": percentile(all_latencies, 50.0), "unit": "ms", "better": "lower",
            },
            "ingest.latency_p99_ms": {
                "value": percentile(all_latencies, 99.0), "unit": "ms", "better": "lower",
            },
            "recovery.from_store_ms": {
                "value": recovery_seconds * 1e3, "unit": "ms", "better": "lower",
            },
            "recovery.store_bytes": {"value": store_bytes, "unit": "B", "better": "lower"},
            "wal.ingest_reports_per_s": {
                "value": wal_result.reports_per_s, "unit": "reports/s", "better": "higher",
            },
            "wal.overhead_ratio": {
                "value": overhead, "unit": "x", "better": "lower", "limit": 2.0,
            },
            "wal.replay_ms": {
                "value": replay_ms, "unit": "ms", "better": "lower", "limit": 2000.0,
            },
            "bit_identical_to_single_process": {"value": True},
        },
    }
    output.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(
        f"sustained {sustained:,.0f} reports/sec, "
        f"p99 {document['metrics']['ingest.latency_p99_ms']['value']:.2f} ms"
    )
    print(f"wrote {output}")
    return document


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", choices=sorted(PRESETS), default="default")
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args()
    run(args.preset, args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
