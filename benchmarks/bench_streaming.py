"""Benchmarks for the streaming client/server aggregation path.

These establish the baseline for the sharded execution model introduced
with the client/server API: how fast servers fold privatized reports into
their sufficient-statistics accumulators (ingest throughput, reports/sec)
and what merging costs as the shard count grows.  Future PRs optimizing
the hot path (batched ingestion, accumulator layouts, parallel shards)
should compare against these numbers.

Run with:  pytest benchmarks/bench_streaming.py --benchmark-only -s
"""

import numpy as np
import pytest

from repro.core.session import AccumulatorState
from repro.data import cauchy_population
from repro.flat import FlatRangeQuery
from repro.hierarchy import HierarchicalHistogram
from repro.multidim import HierarchicalGrid2D
from repro.wavelet import HaarHRR

DOMAIN = 1024
# OLH decodes supports over the whole domain per report batch (O(N * D));
# a smaller domain keeps its benchmark rounds short without changing what
# the decode kernel has to prove.
OLH_DOMAIN = 256
N_USERS = 50_000
EPSILON = 1.1
CLIENT_BATCH = 2_500


@pytest.fixture(scope="module")
def population():
    return cauchy_population(DOMAIN, N_USERS, rng=0)


def _encoded_stream(protocol, items):
    client = protocol.client()
    rng = np.random.default_rng(1)
    return client.encode_batches(np.asarray(items), CLIENT_BATCH, rng=rng)


def _bench_ingest(benchmark, protocol, items):
    reports = _encoded_stream(protocol, items)

    def ingest_all():
        return protocol.server().ingest(reports)

    server = benchmark(ingest_all)
    assert server.n_reports == N_USERS
    mean_seconds = benchmark.stats.stats.mean
    benchmark.extra_info["reports_per_sec"] = round(N_USERS / mean_seconds)
    print(
        f"\n    {protocol.name}: ingest {N_USERS / mean_seconds:,.0f} reports/sec "
        f"({len(reports)} batches of {CLIENT_BATCH})"
    )


def _bench_encode(benchmark, protocol, items):
    """Client-side privatization throughput, timed apart from ingest."""
    items = np.asarray(items)
    client = protocol.client()

    def encode_all():
        return client.encode_batches(items, CLIENT_BATCH, rng=np.random.default_rng(1))

    reports = benchmark(encode_all)
    assert len(reports) == -(-len(items) // CLIENT_BATCH)
    mean_seconds = benchmark.stats.stats.mean
    benchmark.extra_info["encode_reports_per_sec"] = round(N_USERS / mean_seconds)
    print(
        f"\n    {protocol.name}: encode {N_USERS / mean_seconds:,.0f} reports/sec "
        f"(batches of {CLIENT_BATCH})"
    )


def test_bench_ingest_flat_oue(benchmark, population):
    """Flat OUE ingestion: bit-matrix column sums per batch."""
    _bench_ingest(benchmark, FlatRangeQuery(DOMAIN, EPSILON, oracle="oue"), population.items)


def test_bench_ingest_hh_oue(benchmark, population):
    """TreeOUE ingestion: per-level accumulators with level bookkeeping."""
    _bench_ingest(
        benchmark,
        HierarchicalHistogram(DOMAIN, EPSILON, branching=4, oracle="oue"),
        population.items,
    )


def test_bench_ingest_haar(benchmark, population):
    """HaarHRR ingestion: per-height signed Hadamard sums."""
    _bench_ingest(benchmark, HaarHRR(DOMAIN, EPSILON), population.items)


def test_bench_ingest_flat_olh(benchmark, population):
    """Flat OLH ingestion: per-report hash-support decode over the domain."""
    _bench_ingest(
        benchmark,
        FlatRangeQuery(OLH_DOMAIN, EPSILON, oracle="olh"),
        population.items % OLH_DOMAIN,
    )


def test_bench_ingest_grid2d(benchmark, population):
    """Grid2D ingestion: per-level-pair accumulators on the generic engine."""
    items_y = np.random.default_rng(2).integers(0, 64, size=N_USERS)
    pairs = np.stack([population.items % 64, items_y], axis=1)
    _bench_ingest(
        benchmark, HierarchicalGrid2D(64, 64, EPSILON, oracle="hrr"), pairs
    )


def test_bench_encode_flat_oue(benchmark, population):
    """Flat OUE encoding: perturbed one-hot matrix construction."""
    _bench_encode(
        benchmark, FlatRangeQuery(DOMAIN, EPSILON, oracle="oue"), population.items
    )


def test_bench_encode_hh_oue(benchmark, population):
    """TreeOUE encoding: level sampling plus per-level OUE matrices."""
    _bench_encode(
        benchmark,
        HierarchicalHistogram(DOMAIN, EPSILON, branching=4, oracle="oue"),
        population.items,
    )


def test_bench_encode_haar(benchmark, population):
    """HaarHRR encoding: signed Hadamard coefficient sampling per height."""
    _bench_encode(benchmark, HaarHRR(DOMAIN, EPSILON), population.items)


def test_bench_encode_flat_olh(benchmark, population):
    """Flat OLH encoding: fused universal hash + GRR perturbation."""
    _bench_encode(
        benchmark,
        FlatRangeQuery(OLH_DOMAIN, EPSILON, oracle="olh"),
        population.items % OLH_DOMAIN,
    )


@pytest.mark.parametrize("n_shards", [2, 4, 8])
def test_bench_merge_vs_shard_count(benchmark, population, n_shards):
    """Merge cost as the shard count grows (fresh shard copies per round)."""
    protocol = HierarchicalHistogram(DOMAIN, EPSILON, branching=4, oracle="oue")
    reports = _encoded_stream(protocol, population.items)
    shards = [protocol.server() for _ in range(n_shards)]
    for index, report in enumerate(reports):
        shards[index % n_shards].ingest(report)
    blobs = [shard.to_bytes() for shard in shards]

    def fresh_states():
        return ([AccumulatorState.from_bytes(blob) for blob in blobs],), {}

    def merge_all(states):
        combined = protocol.server(state=states[0])
        for state in states[1:]:
            combined.merge(state)
        return combined

    combined = benchmark.pedantic(merge_all, setup=fresh_states, rounds=20)
    assert combined.n_reports == N_USERS
    mean_seconds = benchmark.stats.stats.mean
    benchmark.extra_info["n_shards"] = n_shards
    print(f"\n    merge of {n_shards} shards: {mean_seconds * 1e3:.3f} ms")
