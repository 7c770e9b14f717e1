"""The three workloads and the seeded inputs each one runs on.

Every input is a pure function of ``(workload, seed, seconds)`` and is
built before any clock starts: framed report batches come from
:func:`repro.service.generate_batches`, pre-sealed epoch stores from
``Engine.open(..., store_dir=)``, ``session().absorb()`` and
``seal_epoch()``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass
from typing import List, Tuple
from urllib.parse import quote

import numpy as np

from repro import make_protocol
from repro.data.synthetic import make_population
from repro.engine import Engine
from repro.service import generate_batches

#: Run length the workload sizes below are tuned for (2 cores).
REFERENCE_SECONDS = 16.0

#: Reports absorbed into each pre-sealed epoch of a seeded store.
PRESEED_REPORTS = 400

#: Every workload's domain, privacy budget and query shape.
DOMAIN_SIZE = 1024
EPSILON = 1.1
QUERY_RANGES = 100
QUANTILES = (0.1, 0.25, 0.5, 0.9)


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one protocol configuration.

    Every workload is a closed loop: ``connections`` keep-alive
    connections post an epoch of ``batches_per_epoch`` batches, then
    ``POST /close`` ends the epoch and ``queries_per_epoch`` queries
    follow on one connection, cycling through ``windows``.
    """

    name: str
    method: str
    oracle: str
    batch_size: int
    batches_per_epoch: int
    epochs: int
    fresh_batches: bool
    windows: Tuple[str, ...]
    connections: int
    queries_per_epoch: int
    preseed_epochs: int = 0

    def spec(self) -> dict:
        options = {"oracle": self.oracle}
        if self.method == "hh":
            options["branching"] = 4
        protocol = make_protocol(
            self.method, DOMAIN_SIZE, EPSILON, **options
        )
        return protocol.spec()

    def scaled(self, seconds: float) -> "Workload":
        """The same mix with its epoch count scaled to ``seconds``."""
        epochs = max(2, round(self.epochs * float(seconds) / REFERENCE_SECONDS))
        return dataclasses.replace(self, epochs=epochs)


WORKLOADS = {
    workload.name: workload
    for workload in (
        # Gateway-bound: HTTP parse, header validation, WAL append and
        # pipe send; worker accumulate (unary_sums) is cheap.
        Workload(
            name="ingest",
            method="hh",
            oracle="oue",
            batch_size=2000,
            batches_per_epoch=100,
            epochs=24,
            fresh_batches=False,
            connections=2,
            queries_per_epoch=100,
            windows=("last:1", "all"),
        ),
        # Worker-bound: flat OLH decode (olh_support, O(N*D)); every
        # batch is fresh, so the OLH support cache never hits.  One
        # connection: with both cores busy decoding, a second sender only
        # adds scheduler noise to the ack latency.  An epoch of 20 batches
        # (10 per worker) fits in the worker pipes' socket buffers, so each
        # /close drains a backlog of about the same size; with 50 or 100
        # batches per epoch the buffers fill in some epochs and not in
        # others, and close times split into two clusters.
        Workload(
            name="decode",
            method="flat",
            oracle="olh",
            batch_size=500,
            batches_per_epoch=20,
            epochs=80,
            fresh_batches=True,
            connections=1,
            queries_per_epoch=30,
            windows=("last:1", "all"),
        ),
        # Read-bound: wide windows over 512 pre-sealed epochs exercise the
        # engine, store pushdown, finalize and answer layers.
        Workload(
            name="query",
            method="hh",
            oracle="oue",
            batch_size=1000,
            batches_per_epoch=60,
            epochs=27,
            fresh_batches=False,
            connections=1,
            queries_per_epoch=100,
            windows=("last:1", "last:16", "last:64", "all"),
            preseed_epochs=512,
        ),
    )
}


def derive_seed(seed: int, purpose: str) -> int:
    """An independent 31-bit seed for one input stream of one run."""
    digest = hashlib.sha256(f"{int(seed)}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


@dataclass
class Inputs:
    """Everything a run sends, built before the clock starts."""

    workload: Workload
    spec: dict
    epoch_batches: List[List[bytes]]
    ranges: List[Tuple[int, int]]
    query_params: str

    @property
    def reports_per_epoch(self) -> int:
        return self.workload.batch_size * self.workload.batches_per_epoch

    def query_path(self, window: str) -> str:
        return f"/query?window={quote(window, safe=':,')}&{self.query_params}"


def build_inputs(workload: Workload, seed: int) -> Inputs:
    """Seeded batches and query strings for one run of ``workload``."""
    spec = workload.spec()
    per_epoch = workload.batches_per_epoch
    distinct = per_epoch * (workload.epochs if workload.fresh_batches else 1)
    _, blobs = generate_batches(
        spec,
        distinct * workload.batch_size,
        workload.batch_size,
        seed=derive_seed(seed, f"{workload.name}.batches"),
    )
    if workload.fresh_batches:
        epoch_batches = [
            blobs[index * per_epoch : (index + 1) * per_epoch]
            for index in range(workload.epochs)
        ]
    else:
        epoch_batches = [blobs] * workload.epochs
    rng = np.random.default_rng(derive_seed(seed, f"{workload.name}.ranges"))
    ranges = [
        tuple(sorted(int(value) for value in rng.integers(0, DOMAIN_SIZE, 2)))
        for _ in range(QUERY_RANGES)
    ]
    text = ",".join(f"{left}:{right}" for left, right in ranges)
    phis = ",".join(f"{phi:g}" for phi in QUANTILES)
    params = f"ranges={quote(text, safe=':,')}&quantiles={quote(phis, safe=',')}"
    return Inputs(workload, spec, epoch_batches, ranges, params)


def build_store(directory: str, workload: Workload, seed: int) -> None:
    """Seal ``workload.preseed_epochs`` seeded epochs into a fresh store."""
    engine = Engine.open(workload.spec(), store_dir=directory)
    population = make_population(
        "zipf",
        DOMAIN_SIZE,
        workload.preseed_epochs * PRESEED_REPORTS,
        rng=np.random.default_rng(derive_seed(seed, f"{workload.name}.store")),
    )
    items = np.asarray(population.items)
    rng = np.random.default_rng(derive_seed(seed, f"{workload.name}.store.encode"))
    for epoch in range(workload.preseed_epochs):
        chunk = items[epoch * PRESEED_REPORTS : (epoch + 1) * PRESEED_REPORTS]
        engine.session(epoch).absorb(chunk, rng)
        engine.seal_epoch(epoch)
    engine.store.close()


def fingerprint(inputs: Inputs, store_dir: str = "") -> str:
    """A digest of every batch byte and every store file (name and bytes)."""
    digest = hashlib.sha256()
    for batches in inputs.epoch_batches:
        for blob in batches:
            digest.update(len(blob).to_bytes(8, "little"))
            digest.update(blob)
    digest.update(inputs.query_params.encode())
    if store_dir:
        for name in sorted(os.listdir(store_dir)):
            digest.update(name.encode())
            with open(os.path.join(store_dir, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()
