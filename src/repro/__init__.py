"""repro: Answering Range Queries Under Local Differential Privacy.

A complete reproduction of Cormode, Kulkarni and Srivastava (VLDB 2019),
built around the deployment topology the paper assumes: many untrusted-free
*clients* randomize locally, a fleet of *servers* aggregates their reports.
Every protocol family is an instance of one unified pipeline -- a
:class:`~repro.core.decomposition.Decomposition` describes the level
structure, and one generic client/server engine handles user-to-level
sampling, privatization transport, mergeable accumulation and wire
serialization for all of them (see ``ARCHITECTURE.md`` for the layered
design and how to add a new protocol as a ~50-line subclass):

* :class:`~repro.flat.FlatRangeQuery` -- the per-item baseline;
* :class:`~repro.hierarchy.HierarchicalHistogram` -- the HH_B framework
  (TreeOUE / TreeHRR / TreeOLH, with or without constrained inference);
* :class:`~repro.wavelet.HaarHRR` -- the Discrete Haar Transform protocol;
* :class:`~repro.multidim.HierarchicalGrid2D` -- the 2-D grid extension
  (Section 6), answering axis-aligned rectangle queries.

Quick start (client/server streaming model)::

    import numpy as np
    from repro import HierarchicalHistogram
    from repro.data import cauchy_population

    data = cauchy_population(domain_size=1024, n_users=200_000, rng=0)
    protocol = HierarchicalHistogram(domain_size=1024, epsilon=1.1, branching=4)

    # User side: a stateless client encodes privatized reports.  Each
    # user's report individually satisfies epsilon-LDP; raw items never
    # leave the client.
    client = protocol.client()
    rng = np.random.default_rng(1)
    reports = [client.encode_batch(batch, rng=rng)
               for batch in np.array_split(data.items, 100)]

    # Server side: shards ingest reports independently and merge exactly
    # -- any sharding, merged in any order, equals single-server ingest.
    shards = [protocol.server() for _ in range(4)]
    for index, report in enumerate(reports):
        shards[index % 4].ingest(report)
    combined = shards[0]
    for shard in shards[1:]:
        combined.merge(shard)

    estimator = combined.finalize()
    print(estimator.range_query((100, 400)))

Server state is serializable (``server.to_bytes()`` /
:func:`~repro.core.session.load_server`), so aggregation can be sharded
across processes or machines and resumed across restarts.  For one-shot
scripts, ``protocol.run(items)`` wraps one client plus one server, and
``protocol.simulate_aggregate(counts)`` produces a statistically
equivalent estimator directly from the true histogram.

The aggregation-service façade
------------------------------

Long-running deployments speak in *epochs, windows, and durable state*
rather than one-shot runs.  :class:`repro.engine.Engine` is that layer::

    from repro.engine import Engine, last

    engine = Engine.open("hh", domain_size=1024, epsilon=1.1, branching=4,
                         store_dir="epochstore")
    for day, batch in enumerate(daily_batches):        # epoch per day
        engine.session(epoch=day).absorb(batch, rng=rng)
        engine.seal_epoch(day)                         # spill + evict

    engine = Engine.restore("epochstore")              # manifest-only restart
    weekly = engine.estimator(window=last(7))          # exact windowed merge
    print(weekly.range_query((100, 400)))

Each epoch is an independent mergeable accumulator shard; windowed
queries merge the selected epochs lazily (exactly -- integer sufficient
statistics) and feed the estimators' batch query kernels unchanged.  A
single-epoch ``window="all"`` engine is bit-identical to the plain
client/server session path.  The CLI mirrors the façade with
``engine checkpoint`` / ``engine query`` / ``engine info`` subcommands
on a ``--store-dir``; ``merge --states`` reads v1 state files.

The *out-of-core epoch store* behind ``store_dir`` is an engine's one
persistence path: sealed epochs spill into per-epoch memory-mapped
segment files under a versioned manifest, ``checkpoint()`` is
incremental (only dirty epochs rewrite), and windowed queries over
sealed epochs sum each segment's pre-aggregated integer vectors instead
of rebuilding full accumulators -- bit-identical to the in-RAM merge, at
O(window) memory.  Sealed runs additionally fold into power-of-two
*aggregate segments*, so a wide window reads O(log k) segments instead
of k (``last:64`` over 1024 sealed epochs answers ~23x faster than the
per-epoch sum at the default benchmark preset).  ``serve`` persists
through ``--store-dir`` as well.

The network-facing service
--------------------------

:mod:`repro.service` puts an asyncio HTTP gateway in front of the engine
and fans ingest out to shard worker *processes* -- because accumulators
merge exactly, the sharding is unobservable in the estimates.  Serve it
straight from the CLI (stdlib only, no extra dependencies) and post a
batch to it from the shell::

    python -m repro.cli serve --method hh --domain-size 1024 \\
        --epsilon 1.1 --workers 4 --port 8377 --store-dir epochstore
    python -m repro.cli encode --input users.csv --domain-size 1024 \\
        --epsilon 1.1 --method hh --output - | curl --data-binary @- \\
        -H 'Idempotency-Key: users-0' http://127.0.0.1:8377/ingest

or in-process for tests and notebooks::

    from repro.service import AggregationService, ServiceThread, request_json

    service = AggregationService({"name": "hh", "domain_size": 1024,
                                  "epsilon": 1.1}, num_workers=4)
    with ServiceThread(service) as handle:
        # POST framed batches to handle.url + "/ingest", then:
        answer = request_json(handle.url + "/query?ranges=100:400")

``POST /ingest`` accepts the framed report-batch container
(:func:`repro.core.serialization.pack_report_batch` -- the same bytes
``encode --output -`` pipes to stdout), ``POST /close`` closes the
epoch by merging every shard into the engine -- with ``store_dir`` it
also seals the epoch into the store a restart resumes from -- and
``GET /query`` answers windowed range/quantile/frequency queries
(``postprocess=`` re-finalizes).  ``benchmarks/bench_service.py``
records sustained ingest throughput, p99 latency and crash-recovery
time in ``BENCH_service.json``.

Post-processing pipelines
-------------------------

Every family's estimates can be cleaned up by the same pluggable
post-processing layer (:mod:`repro.core.postprocess`) -- a free step under
LDP because it only touches already-privatized output.  Pipelines are
``"+"``-joined registry tokens passed as ``postprocess=`` (they round-trip
through ``spec()``, serialized states, engine checkpoints and the CLI's
``--postprocess`` flag).  For example, flat OUE estimates are unbiased but
noisy -- often negative, never summing to exactly one -- and projecting
them onto the probability simplex (``"norm_sub"``) measurably reduces
range-query error on skewed populations::

    protocol = FlatRangeQuery(1024, epsilon=1.1, postprocess="norm_sub")
    estimator = protocol.run(data.items, rng=rng)
    estimator.estimated_frequencies().min()   # >= 0, sums to exactly 1

On the ablation sweep's Cauchy populations (``repro.experiments.ablations``,
A4) this cuts flat-OUE whole-workload range MSE by ~1.5-2.5x in the
noise-dominated regime; ``python -m repro.experiments ablations`` prints
the full per-family comparison (``consistency+norm_sub`` for trees,
``haar_threshold`` for wavelets, ``grid_consistency`` for 2-D grids).
The hierarchical ``consistency=True`` flag is the same machinery:
it maps to the ``"consistency"`` pipeline (Section 4.5 constrained
inference), bit-identical to the pre-pipeline behavior.

Batch query engine
------------------

Query workloads are array-native: build a
:class:`~repro.queries.workload.RangeWorkload` (two ``int64`` arrays of
inclusive endpoints, validated once) and hand the whole thing to the
estimator -- every protocol answers it as pure NumPy kernels with zero
per-query Python objects::

    from repro.queries.workload import random_range_workload

    workload = random_range_workload(1024, 100_000, np.random.default_rng(2))
    answers = estimator.range_queries(workload)              # one gather
    prefixes = estimator.prefix_queries([10, 100, 1000])     # batch prefixes
    items = estimator.quantile_queries_batch([0.25, 0.5, 0.75])

Inconsistent hierarchical estimators answer workloads through a
closed-form vectorised canonical B-adic decomposition (at most two
contiguous node runs per level, summed with one prefix-sum gather each),
and ``HaarEstimator.range_queries_from_coefficients`` evaluates all the
coefficients a workload cuts with ``O(log D)`` vector gathers.  The old
single-query methods remain as thin wrappers over the batch kernels.

Performance notes
-----------------

Measured by ``benchmarks/bench_queries.py`` (results checked in at
``BENCH_queries.json``; Python 3.12, one core): on a 10,000-query random
range workload at ``D = 2^16`` the batch kernels answer ~1.4M queries/sec
for the inconsistent hierarchical estimator versus ~17K/sec for the
per-query decomposition loop (~82x), ~171M/sec versus ~77K/sec for the
consistent (prefix-sum) path (~2,200x), ~2.5M/sec versus ~9.7K/sec for
HaarHRR's coefficient path (~250x), and ~7.6M/sec versus ~159K/sec for
quantile workloads (~48x).

See ``examples/`` (``sharded_aggregation.py`` in particular) for runnable
end-to-end scripts and ``benchmarks/`` for the reproduction of every table
and figure in the paper.
"""

from __future__ import annotations

import inspect
from typing import Dict, Type

from repro.core import (
    AccumulatorState,
    Domain,
    InvalidDomainError,
    InvalidPrivacyBudgetError,
    InvalidRangeError,
    PrivacyParams,
    ProtocolClient,
    ProtocolServer,
    ProtocolUsageError,
    RangeQueryEstimator,
    RangeQueryProtocol,
    RangeSpec,
    Report,
    ReproError,
    load_server,
    protocol_from_spec,
)
from repro.core.postprocess import (
    PostPipeline,
    PostProcessor,
    available_pipelines,
    make_pipeline,
)
from repro.engine import Engine, EpochSession, last
from repro.flat import FlatRangeQuery
from repro.frequency_oracles import make_oracle
from repro.hierarchy import HierarchicalHistogram
from repro.multidim import HierarchicalGrid2D
from repro.wavelet import HaarHRR

__version__ = "1.14.0"

#: Protocol registry used by the experiment harness and the CLI.  Classes
#: may expose a ``from_registry(domain_size, epsilon, **kwargs)`` adapter
#: when their natural constructor takes a different shape (the 2-D grid).
PROTOCOL_REGISTRY: Dict[str, Type] = {
    "flat": FlatRangeQuery,
    "hh": HierarchicalHistogram,
    "haar": HaarHRR,
    "grid2d": HierarchicalGrid2D,
}

#: Alternative handles accepted by :func:`make_protocol`.
PROTOCOL_ALIASES: Dict[str, str] = {
    "wavelet": "haar",
    "grid": "grid2d",
}


def _registry_builder(cls: Type):
    """The callable that constructs ``cls`` from registry arguments."""
    return getattr(cls, "from_registry", cls)


def accepted_protocol_kwargs(cls: Type) -> list:
    """Keyword parameters a protocol constructor accepts beyond the basics.

    Public so tooling (the CLI, the experiment harness) can introspect
    registry entries the same way :func:`make_protocol` does.
    """
    builder = _registry_builder(cls)
    target = builder.__init__ if builder is cls else builder
    parameters = inspect.signature(target).parameters
    return [
        name
        for name in parameters
        if name not in ("self", "cls", "domain_size", "epsilon")
    ]


def make_protocol(name: str, domain_size: int, epsilon: float, **kwargs):
    """Construct a range-query protocol by registry handle.

    ``name`` is one of ``"flat"``, ``"hh"``, ``"haar"`` (alias
    ``"wavelet"``) or ``"grid2d"`` (alias ``"grid"``); keyword arguments
    are forwarded to the protocol constructor (e.g. ``branching=8,
    oracle="hrr", consistency=True`` for the hierarchical method, or
    ``domain_size_y=512`` for a non-square grid).  Unknown keyword
    arguments raise a ``TypeError`` naming the handle and the parameters it
    accepts.
    """
    key = name.strip().lower()
    key = PROTOCOL_ALIASES.get(key, key)
    if key not in PROTOCOL_REGISTRY:
        known = sorted(set(PROTOCOL_REGISTRY) | set(PROTOCOL_ALIASES))
        raise KeyError(f"unknown protocol {name!r}; expected one of {known}")
    cls = PROTOCOL_REGISTRY[key]
    builder = _registry_builder(cls)
    accepted = accepted_protocol_kwargs(cls)
    unknown = sorted(set(kwargs) - set(accepted))
    if unknown:
        raise TypeError(
            f"protocol {key!r} ({cls.__name__}) got unexpected keyword "
            f"argument(s) {unknown}; accepted parameters: {accepted}"
        )
    try:
        return builder(domain_size, epsilon, **kwargs)
    except TypeError as exc:
        # Constructor-level TypeErrors (e.g. wrong value types) still get
        # the registry context instead of a bare traceback.
        raise TypeError(
            f"could not construct protocol {key!r} ({cls.__name__}) with "
            f"kwargs {sorted(kwargs)}; accepted parameters: {accepted}"
        ) from exc


__all__ = [
    "__version__",
    "Domain",
    "PrivacyParams",
    "RangeSpec",
    "ReproError",
    "InvalidDomainError",
    "InvalidPrivacyBudgetError",
    "InvalidRangeError",
    "ProtocolUsageError",
    "RangeQueryEstimator",
    "RangeQueryProtocol",
    "ProtocolClient",
    "ProtocolServer",
    "Report",
    "AccumulatorState",
    "Engine",
    "EpochSession",
    "last",
    "FlatRangeQuery",
    "HierarchicalHistogram",
    "HaarHRR",
    "HierarchicalGrid2D",
    "PostPipeline",
    "PostProcessor",
    "available_pipelines",
    "make_pipeline",
    "make_oracle",
    "make_protocol",
    "accepted_protocol_kwargs",
    "protocol_from_spec",
    "load_server",
    "PROTOCOL_REGISTRY",
    "PROTOCOL_ALIASES",
]
