"""The measured traffic of each workload, its metrics and its gate.

:func:`drive` sends one run's traffic and returns the epochs it closed;
:func:`end_to_end` turns the call log into the user-facing metrics; the
``check_*`` functions are the correctness gate that fails a run instead
of letting it report a number.
"""

from __future__ import annotations

import gc
import json
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.engine import Engine
from repro.service import ingest_batches_single_process
from repro.service.loadgen import percentile

from perfbench.client import Call, CallLog, Connection
from perfbench.harness import get_json
from perfbench.inputs import Inputs

#: Requests per block of :func:`tail_ms` (twenty beyond each block's p90).
TAIL_BLOCK = 200


@dataclass
class Epoch:
    """One ingested epoch: its batches, its close reply and its clock."""

    batches: List[bytes]
    epoch: int
    reports: int
    elapsed_s: float

    @property
    def reports_per_s(self) -> float:
        return self.reports / self.elapsed_s


def _post_batches(connections, batches, key_prefix: str) -> None:
    """Closed loop: each connection posts its next batch when the last ends."""
    cursor = iter(range(len(batches)))
    lock = threading.Lock()

    def pump(connection: Connection) -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            connection.request(
                "ingest", "POST", "/ingest", batches[index],
                headers={"Idempotency-Key": f"{key_prefix}:{index}"},
            )

    helpers = [
        threading.Thread(target=pump, args=(connection,), name="perfbench-ingest")
        for connection in connections[1:]
    ]
    for thread in helpers:
        thread.start()
    try:
        pump(connections[0])
    finally:
        for thread in helpers:
            thread.join()


def _close(connection: Connection, batches, started_ns: int, reports: int) -> Epoch:
    call = connection.request("close", "POST", "/close", keep_body=True)
    elapsed = (time.perf_counter_ns() - started_ns) / 1e9
    epoch = json.loads(call.body).get("epoch") if call.ok else None
    return Epoch(batches, -1 if epoch is None else int(epoch), reports, elapsed)


def _closed_loop(inputs: Inputs, port: int, log: CallLog, tag: str) -> List[Epoch]:
    """Each epoch: post its batches, close it, then query."""
    workload = inputs.workload
    connections = [Connection(port, log) for _ in range(workload.connections)]
    epochs: List[Epoch] = []
    queries = 0
    try:
        for index, batches in enumerate(inputs.epoch_batches):
            started = time.perf_counter_ns()
            _post_batches(connections, batches, f"{tag}:{index}")
            epochs.append(
                _close(connections[0], batches, started, inputs.reports_per_epoch)
            )
            for _ in range(workload.queries_per_epoch):
                window = workload.windows[queries % len(workload.windows)]
                connections[0].request(
                    "query", "GET", inputs.query_path(window), keep_body=True
                )
                queries += 1
    finally:
        for connection in connections:
            connection.close()
    return epochs


def drive(inputs: Inputs, port: int, log: CallLog, tag: str) -> List[Epoch]:
    """Send one run's traffic; every call lands in ``log``.

    The generator's garbage collector is paused meanwhile, so its pauses
    never delay a request.
    """
    gc.disable()
    try:
        return _closed_loop(inputs, port, log, tag)
    finally:
        gc.enable()


def tail_ms(calls: List[Call], q: float = 90.0) -> float:
    """The median over blocks of ``TAIL_BLOCK`` consecutive calls of each
    block's ``q``-th latency percentile.

    A few seconds of host noise inflate the tail of the blocks they fall
    in and leave the median block alone, so the figure describes the
    service rather than its neighbours.  A trailing partial block is left
    out; a run shorter than one block takes the percentile of all its
    calls.
    """
    ordered = sorted(calls, key=lambda call: call.start)
    blocks = [
        ordered[start : start + TAIL_BLOCK]
        for start in range(0, len(ordered) - TAIL_BLOCK + 1, TAIL_BLOCK)
    ] or [ordered]
    return statistics.median(
        percentile([call.latency_ms for call in block], q) for block in blocks
    )


def end_to_end(log: CallLog, epochs: List[Epoch]) -> Dict[str, float]:
    """The user-facing metrics of one measured phase (setup excluded)."""
    ingest = log.of_kind("ingest")
    queries = log.of_kind("query")
    closes = [call.latency_ms for call in log.of_kind("close")]
    return {
        "ingest_reports_per_s": statistics.median(
            epoch.reports_per_s for epoch in epochs
        ),
        "ingest_p50_ms": percentile([call.latency_ms for call in ingest], 50.0),
        "ingest_p90_ms": tail_ms(ingest),
        "close_p50_ms": statistics.median(closes),
        "query_p50_ms": percentile([call.latency_ms for call in queries], 50.0),
        "query_p90_ms": tail_ms(queries),
    }


# ---------------------------------------------------------------------- #
# correctness gate
# ---------------------------------------------------------------------- #
def check_calls(log: CallLog) -> List[str]:
    """Every request of the measured phase must have answered 200."""
    failures = [call for call in log.calls if not call.ok]
    return [
        f"{len(failures)} of {len(log.calls)} requests failed; first: "
        f"{failures[0].kind} -> {failures[0].status} {failures[0].body[:200]!r}"
    ] if failures else []


def check_stats(stats: dict, boot_closed_reports: int) -> List[str]:
    """``/stats`` accounting must balance and no worker may have failed."""
    problems = []
    accepted = int(stats["accepted"]["reports"])
    closed = int(stats["closed_reports"]) - boot_closed_reports
    pending = int(stats["pending_reports"])
    if accepted != closed + pending:
        problems.append(
            f"/stats does not balance: accepted {accepted} != closed {closed} "
            f"+ pending {pending}"
        )
    for worker in stats["workers"]:
        if worker.get("errors", 0) or "error" in worker:
            problems.append(f"worker {worker.get('worker')} failed: {worker}")
    return problems


def reference_frequencies(spec: dict, batches: List[bytes]) -> List[float]:
    """Single-process ingest of one epoch's batches: the expected answer."""
    server = ingest_batches_single_process(spec, batches)
    return [float(value) for value in server.finalize().estimated_frequencies()]


def check_frequencies(port: int, expected: Dict[int, list]) -> List[str]:
    """Each closed epoch must equal single-process ingest bit for bit."""
    problems = []
    for epoch, frequencies in expected.items():
        status, document = get_json(port, f"/query?window={epoch}&frequencies=1")
        if status != 200 or document.get("frequencies") != frequencies:
            problems.append(
                f"epoch {epoch}: /query?frequencies=1 differs from "
                "single-process ingest of the same batches"
            )
    return problems


def _answers(estimator, document: dict) -> dict:
    ranges = {}
    for key in document["ranges"]:
        left, right = (int(text) for text in key.split(":"))
        ranges[key] = estimator.range_query((left, right))
    quantiles = {
        key: int(estimator.quantile_query(float(key)))
        for key in document["quantiles"]
    }
    return {"ranges": ranges, "quantiles": quantiles}


def check_queries(store_dir: str, log: CallLog) -> List[str]:
    """Every ``/query`` answer must equal the in-process estimator's.

    The stopped gateway's store is restored in this process and each
    distinct epoch set the gateway answered is finalized once.
    """
    groups: Dict[Tuple[int, ...], List[dict]] = {}
    for call in log.of_kind("query"):
        document = json.loads(call.body)
        groups.setdefault(tuple(document["epochs"]), []).append(document)
    engine = Engine.restore(store_dir)
    problems = []
    try:
        for epochs, documents in groups.items():
            estimator = engine.estimator(list(epochs))
            expected = _answers(estimator, documents[0])
            expected["n_users"] = engine.n_reports(list(epochs))
            for document in documents:
                got = {key: document[key] for key in expected}
                if got != expected:
                    problems.append(
                        f"/query over epochs {epochs[0]}..{epochs[-1]} differs "
                        "from Engine.restore(store).estimator(window) (n_users "
                        f"{got['n_users']} != {expected['n_users']})"
                    )
                    break
    finally:
        engine.store.close()
    return problems
