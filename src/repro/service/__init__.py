"""Network-facing aggregation service.

The paper's aggregator, made operational: an asyncio HTTP ingest
gateway (:mod:`repro.service.gateway`) fronting ``N`` shard worker
processes (:mod:`repro.service.workers`), feeding the epoch-aware
:class:`~repro.engine.Engine` on epoch close.  Because accumulator
merge is exact, the sharded service answers queries bit-identically to
a single process ingesting the same reports -- scale-out without an
accuracy tax.

Quickstart (see also the CLI's ``serve`` subcommand)::

    from repro.service import AggregationService, ServiceThread

    service = AggregationService(
        {"name": "hh", "domain_size": 1024, "epsilon": 1.0},
        num_workers=4,
        store_dir="epochstore/",  # every closed epoch sealed to disk
        wal_dir="wal/",           # durable ingest log: exactly-once recovery
    )
    with ServiceThread(service) as handle:
        ...  # POST framed batches to handle.url + "/ingest"

From a shell, ``repro-cli encode --output -`` writes one framed batch
to stdout, ready to post::

    repro-cli encode --input users.csv --domain-size 1024 --epsilon 1.0 \
        --method hh --output - | curl --data-binary @- \
        -H 'Idempotency-Key: users-0' http://HOST:PORT/ingest

Fault tolerance: with ``wal_dir`` set (it needs ``store_dir``: the WAL
holds only the open epoch, and each closed epoch is sealed into the
store), every accepted batch is logged durably *before* the ``/ingest``
acknowledgement, dead shard workers are respawned and replayed
automatically, and a killed gateway replays its open epoch on restart.
Clients that retry should send an ``Idempotency-Key`` header (any
stable string per logical batch) so a retried delivery of an
already-accepted batch is deduplicated rather than double-counted --
:func:`request_json` retries under the caller's key.
"""

from repro.service.faults import ServiceProcess, chaos_stream, kill_worker
from repro.service.gateway import AggregationService, ServiceThread, request_json
from repro.service.http import HttpError
from repro.service.loadgen import generate_batches
from repro.service.wal import IngestWAL
from repro.service.workers import (
    NoAliveWorkersError,
    PoolSaturatedError,
    WorkerCrashError,
    WorkerPool,
    ingest_batches_single_process,
)

__all__ = [
    "AggregationService",
    "HttpError",
    "IngestWAL",
    "NoAliveWorkersError",
    "PoolSaturatedError",
    "ServiceProcess",
    "ServiceThread",
    "WorkerCrashError",
    "WorkerPool",
    "chaos_stream",
    "generate_batches",
    "ingest_batches_single_process",
    "kill_worker",
    "request_json",
]
