"""Load generator for the aggregation service.

Drives a running gateway the way a fleet of devices would: encode a
synthetic population client-side (the privatization happens *here*, on
the "device"), pack the reports into framed batches, and post them from
``concurrency`` threads over keep-alive connections while sampling
per-request latency.  The result quantifies the service's two headline
numbers -- sustained reports/second and p99 ingest latency -- and is what
the CLI's ``loadgen`` and :mod:`benchmarks.bench_service` build on.

The generator is honest about what it measures: latency is wall-clock
around each ``POST /ingest`` round trip (client-observed, connection
reuse, no pipelining), and throughput is total reports over total
wall-clock including the final epoch close.
"""

from __future__ import annotations

import http.client
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import List, Optional
from urllib.parse import quote, urlsplit

import numpy as np

from repro.core.rng import ensure_rng
from repro.core.serialization import pack_report_batch
from repro.core.session import protocol_from_spec
from repro.data.synthetic import make_population


def percentile(samples: List[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of ``samples``; 0.0 when empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


@dataclass
class LoadgenResult:
    """Outcome of one load-generation run against a gateway."""

    n_users: int
    batches: int
    concurrency: int
    elapsed_s: float
    reports_per_s: float
    latency_p50_ms: float
    latency_p99_ms: float
    latency_max_ms: float
    closed_epoch: Optional[int] = None
    errors: int = 0
    retries: int = 0
    queries: int = 0
    query_errors: int = 0
    query_unavailable: int = 0
    query_p50_ms: float = 0.0
    query_p99_ms: float = 0.0
    queries_per_s: float = 0.0
    latencies_ms: List[float] = field(default_factory=list, repr=False)

    def to_document(self) -> dict:
        """JSON-able summary (drops the raw latency samples)."""
        return {
            "n_users": self.n_users,
            "batches": self.batches,
            "concurrency": self.concurrency,
            "elapsed_s": self.elapsed_s,
            "reports_per_s": self.reports_per_s,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "latency_max_ms": self.latency_max_ms,
            "closed_epoch": self.closed_epoch,
            "errors": self.errors,
            "retries": self.retries,
            "queries": self.queries,
            "query_errors": self.query_errors,
            "query_unavailable": self.query_unavailable,
            "query_p50_ms": self.query_p50_ms,
            "query_p99_ms": self.query_p99_ms,
            "queries_per_s": self.queries_per_s,
        }


def generate_batches(
    spec: dict,
    n_users: int,
    batch_size: int,
    distribution: str = "zipf",
    seed: Optional[int] = 0,
):
    """Encode a synthetic population into framed report batches.

    Returns ``(dataset, batch_blobs)``: the population (for ground-truth
    comparisons) and one :func:`pack_report_batch` blob per chunk of
    ``batch_size`` users.  Encoding happens once, up front, so the timed
    ingest loop measures the *service*, not client-side privatization.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    protocol = protocol_from_spec(spec)
    if hasattr(protocol, "domain_size_y") or spec.get("name") == "grid2d":
        raise ValueError(
            "the load generator drives 1-D protocols; grid2d needs 2-D items"
        )
    dataset = make_population(
        distribution, int(spec["domain_size"]), int(n_users), rng=ensure_rng(seed)
    )
    client = protocol.client()
    rng = ensure_rng(None if seed is None else seed + 1)
    reports = client.encode_batches(np.asarray(dataset.items), batch_size, rng=rng)
    blobs = [pack_report_batch(protocol, [report]) for report in reports]
    return dataset, blobs


class _GatewayClient:
    """One keep-alive connection to the gateway (thread-confined).

    Retries the way a well-behaved device should: transport failures
    (connection reset, refused, incomplete read -- all expected while
    the gateway restarts a crashed shard worker) get a fresh connection
    and a jittered backoff; 429/503 honor the server's ``Retry-After``.
    Every attempt of a batch carries the same idempotency key, so a
    retry of an already-acknowledged batch is deduplicated server-side
    rather than double-counted.
    """

    def __init__(self, url: str, timeout: float = 60.0,
                 max_retries: int = 2) -> None:
        parts = urlsplit(url if "//" in url else "http://" + url)
        if parts.scheme not in ("http", ""):
            raise ValueError(f"unsupported URL scheme {parts.scheme!r}")
        self._host = parts.hostname
        self._port = parts.port or 80
        self._timeout = timeout
        self._max_retries = int(max_retries)
        self._conn: Optional[http.client.HTTPConnection] = None
        self.retries = 0

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self._timeout
            )
        return self._conn

    def _reset(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def get(self, path: str) -> int:
        """One GET round trip; resets the connection on transport failure."""
        try:
            conn = self._connection()
            conn.request("GET", path)
            response = conn.getresponse()
            response.read()
            return response.status
        except (OSError, http.client.HTTPException):
            self._reset()
            raise

    def post_batch(self, blob: bytes, key: str) -> int:
        from repro.service.gateway import retry_delay_s

        status = -1
        for attempt in range(self._max_retries + 1):
            try:
                conn = self._connection()
                conn.request(
                    "POST",
                    "/ingest",
                    body=blob,
                    headers={
                        "Content-Type": "application/octet-stream",
                        "Idempotency-Key": key,
                    },
                )
                response = conn.getresponse()
                response.read()
                status = response.status
            except (OSError, http.client.HTTPException):
                self._reset()
                if attempt < self._max_retries:
                    self.retries += 1
                    time.sleep(retry_delay_s(attempt))
                    continue
                raise
            if status in (429, 503) and attempt < self._max_retries:
                self.retries += 1
                time.sleep(
                    retry_delay_s(
                        attempt, retry_after=response.getheader("Retry-After")
                    )
                )
                continue
            return status
        return status

    def close(self) -> None:
        self._reset()


def run_loadgen(
    url: str,
    batch_blobs: List[bytes],
    n_users: int,
    concurrency: int = 4,
    close_epoch: bool = True,
    max_retries: int = 2,
    key_prefix: Optional[str] = None,
    query_mix: int = 0,
    query_window: str = "all",
) -> LoadgenResult:
    """Post every batch from ``concurrency`` threads and time it.

    Batches are pulled from a shared cursor so threads stay busy until
    the work runs dry; each thread owns one keep-alive connection and
    retries transient failures (connection resets, 429/503) up to
    ``max_retries`` times per batch under a stable idempotency key --
    ``{key_prefix}:{batch_index}`` -- so retries never double-count.
    ``key_prefix`` defaults to a fresh random prefix per call: the
    gateway's duplicate window spans the previous epoch, so two runs
    against the same service must not share keys.  With ``close_epoch``
    the run ends with ``POST /close`` (included in the throughput clock
    -- a report is not "ingested" until its epoch is queryable).

    ``query_mix`` starts that many extra threads hammering
    ``GET /query?window={query_window}`` for the duration of the ingest
    run, which is how the overlap between windowed pushdown reads and
    ingest is measured.  A 409 (window not yet satisfiable -- expected
    until the first epoch closes) counts as ``query_unavailable``, not
    an error; query failures are tracked separately from ingest
    ``errors`` so ingest health checks stay meaningful.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    if query_mix < 0:
        raise ValueError(f"query_mix must be >= 0, got {query_mix}")
    if key_prefix is None:
        key_prefix = f"loadgen-{uuid.uuid4().hex[:12]}"
    concurrency = min(concurrency, max(1, len(batch_blobs)))
    cursor_lock = threading.Lock()
    cursor = [0]
    latencies: List[List[float]] = [[] for _ in range(concurrency)]
    errors = [0] * concurrency
    retries = [0] * concurrency

    def drive(slot: int) -> None:
        client = _GatewayClient(url, max_retries=max_retries)
        try:
            while True:
                with cursor_lock:
                    index = cursor[0]
                    if index >= len(batch_blobs):
                        return
                    cursor[0] = index + 1
                started = time.perf_counter()
                try:
                    status = client.post_batch(
                        batch_blobs[index], key=f"{key_prefix}:{index}"
                    )
                except (OSError, http.client.HTTPException):
                    errors[slot] += 1
                    continue
                latencies[slot].append((time.perf_counter() - started) * 1000.0)
                if status != 200:
                    errors[slot] += 1
        finally:
            retries[slot] = client.retries
            client.close()

    stop_queries = threading.Event()
    query_latencies: List[List[float]] = [[] for _ in range(query_mix)]
    query_unavailable = [0] * query_mix
    query_errors = [0] * query_mix
    query_path = "/query?window=" + quote(query_window, safe="")

    def query_drive(slot: int) -> None:
        client = _GatewayClient(url, max_retries=0)
        try:
            while not stop_queries.is_set():
                begun = time.perf_counter()
                try:
                    status = client.get(query_path)
                except (OSError, http.client.HTTPException):
                    query_errors[slot] += 1
                    time.sleep(0.05)
                    continue
                if status == 200:
                    query_latencies[slot].append(
                        (time.perf_counter() - begun) * 1000.0
                    )
                elif status == 409:
                    # Window not satisfiable yet (no closed epoch) --
                    # expected while ingest warms up, so back off briefly.
                    query_unavailable[slot] += 1
                    time.sleep(0.05)
                else:
                    query_errors[slot] += 1
        finally:
            client.close()

    started = time.perf_counter()
    query_threads = [
        threading.Thread(
            target=query_drive, args=(slot,), name=f"loadgen-query-{slot}"
        )
        for slot in range(query_mix)
    ]
    for thread in query_threads:
        thread.start()
    threads = [
        threading.Thread(target=drive, args=(slot,), name=f"loadgen-{slot}")
        for slot in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    closed_epoch: Optional[int] = None
    if close_epoch:
        from repro.service.gateway import request_json

        document = request_json(url + "/close", method="POST")
        closed_epoch = document.get("epoch")
    elapsed = time.perf_counter() - started
    stop_queries.set()
    for thread in query_threads:
        thread.join()

    query_samples = [s for bucket in query_latencies for s in bucket]
    samples = [sample for bucket in latencies for sample in bucket]
    return LoadgenResult(
        n_users=n_users,
        batches=len(batch_blobs),
        concurrency=concurrency,
        elapsed_s=elapsed,
        reports_per_s=(n_users / elapsed) if elapsed > 0 else 0.0,
        latency_p50_ms=percentile(samples, 50.0),
        latency_p99_ms=percentile(samples, 99.0),
        latency_max_ms=max(samples) if samples else 0.0,
        closed_epoch=closed_epoch,
        errors=sum(errors),
        retries=sum(retries),
        queries=len(query_samples),
        query_errors=sum(query_errors),
        query_unavailable=sum(query_unavailable),
        query_p50_ms=percentile(query_samples, 50.0),
        query_p99_ms=percentile(query_samples, 99.0),
        queries_per_s=(len(query_samples) / elapsed) if elapsed > 0 else 0.0,
        latencies_ms=samples,
    )


__all__ = [
    "LoadgenResult",
    "generate_batches",
    "percentile",
    "run_loadgen",
]
