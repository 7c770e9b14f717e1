"""Span recording around each layer's entry points, and the stage budget.

The traced gateway runs from :func:`traced_gateway_main`, which wraps
the public entry points of every layer (HTTP parse, validation, WAL,
worker pool, engine, store, estimator, JSON encoding) with span
recorders before the service starts, and makes the shard workers start
from :func:`traced_worker_main`, which wraps decode, accumulate and the
kernels.  Spans stay in memory; the gateway writes its own on
``SIGUSR1`` and each worker writes its own when its pipe closes.

A span is ``(id, parent, name, start_ns, end_ns, request_id, failed,
extra)``.  Parents follow ``contextvars`` through asyncio tasks and,
via a context-copying default executor, into executor threads.  The
request id comes from the client's ``X-Request-Id`` header.

:func:`analyze` turns the client's calls plus every process's spans
into two views:

* per-layer busy time: each span's duration minus the part its child
  spans cover, summed by layer (gateway spans clipped to the client
  request they served, so idle keep-alive waits do not count);
* the stage budget: every instant of every client request goes to the
  deepest span active then (shared equally between equally deep
  concurrent spans; worker spans count under the ``workers.drain`` they
  overlap), so the stages plus ``other`` -- the client request itself,
  outside every span -- sum exactly to the total client time.
"""

from __future__ import annotations

import asyncio
import bisect
import contextvars
import functools
import inspect
import itertools
import json
import multiprocessing
import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

#: Environment variable naming the directory span files are written to.
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

#: Layers whose call count goes by the name the benchmark reports.
CALL_COUNT_NAMES = {
    "http.read": "http.requests",
    "wal.append": "wal.appends",
    "estimator.range_query": "estimator.ranges",
}

#: Every traced layer, in request-path order.
LAYERS = (
    "client.send",
    "client.read",
    "http.read",
    "http.write",
    "gateway.busy",
    "gateway.validate",
    "gateway.query_parse",
    "gateway.json_encode",
    "executor.wait",
    "wal.append",
    "workers.send",
    "workers.drain",
    "engine.absorb_shard",
    "engine.seal",
    "engine.checkpoint",
    "store.segment_write",
    "store.aggregate_build",
    "store.manifest_save",
    "engine.window_state",
    "store.pushdown",
    "store.plan",
    "engine.finalize",
    "engine.n_reports",
    "estimator.range_query",
    "estimator.quantile_query",
    "estimator.frequencies",
    "serialization.unpack",
    "session.ingest",
    "session.to_bytes",
    "kernels.olh_support",
    "kernels.unary_sums",
    "kernels.column_sums",
)


class Recorder:
    """In-memory span sink for one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self.request: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_request", default=None
        )

    def open(self, name: str) -> list:
        span = [next(self._ids), self.current.get(), name,
                time.perf_counter_ns(), 0, self.request.get(), False, None]
        self.spans.append(span)
        return span

    def wrap(self, function, name: str, extra=None):
        """``function`` recorded as span ``name`` (sync or async).

        ``extra(args, result)`` may attach a small JSON value to the span.
        """

        def finish(span, token, failed, args, result):
            span[4] = time.perf_counter_ns()
            span[6] = failed
            if extra is not None and not failed:
                span[7] = extra(args, result)
            self.current.reset(token)

        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def traced_async(*args, **kwargs):
                span = self.open(name)
                token = self.current.set(span[0])
                failed, result = True, None
                try:
                    result = await function(*args, **kwargs)
                    failed = False
                    return result
                finally:
                    finish(span, token, failed, args, result)

            return traced_async

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = self.open(name)
            token = self.current.set(span[0])
            failed, result = True, None
            try:
                result = function(*args, **kwargs)
                failed = False
                return result
            finally:
                finish(span, token, failed, args, result)

        return traced

    def patch(self, owner, attribute: str, name: str, extra=None) -> None:
        """Replace ``owner.attribute`` with its traced version."""
        raw = inspect.getattr_static(owner, attribute)
        if isinstance(raw, staticmethod):
            setattr(owner, attribute,
                    staticmethod(self.wrap(raw.__func__, name, extra)))
        else:
            setattr(owner, attribute, self.wrap(raw, name, extra))

    def dump(self, directory: str, role: str) -> None:
        path = os.path.join(directory, f"{role}-{os.getpid()}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump({"pid": os.getpid(), "role": role, "spans": self.spans},
                      handle)
        os.replace(path + ".tmp", path)


def _patch_kernels(recorder: Recorder, names) -> None:
    from repro.core.kernels import get_backend

    backend = get_backend("numpy")
    for kernel in names:
        setattr(backend, kernel,
                recorder.wrap(getattr(backend, kernel), f"kernels.{kernel}"))


def install_worker_hooks(recorder: Recorder) -> None:
    """Wrap the shard worker's decode, accumulate and kernel calls."""
    import repro.service.workers as workers
    from repro.core.session import ProtocolServer, Report

    recorder.patch(workers, "unpack_report_batch", "serialization.unpack")
    recorder.patch(Report, "from_bytes", "serialization.unpack")
    recorder.patch(ProtocolServer, "ingest", "session.ingest")
    recorder.patch(ProtocolServer, "to_bytes", "session.to_bytes")
    _patch_kernels(recorder, ("olh_support", "unary_sums", "column_sums"))


def install_gateway_hooks(recorder: Recorder) -> None:
    """Wrap every gateway-side layer the benchmark reports on."""
    import repro.cli as cli
    import repro.service.gateway as gateway
    from repro.engine import Engine
    from repro.engine.store import EpochStore
    from repro.service.wal import IngestWAL
    from repro.service.workers import WorkerPool

    read_request = gateway.read_request

    async def read_and_tag(*args, **kwargs):
        # Runs in its own task (the gateway awaits it under wait_for), so
        # the request id is stamped on the span, not set in a context.
        span = recorder.open("http.read")
        # Whatever request the connection served last is not this one.
        span[5] = None
        failed = True
        try:
            request = await read_request(*args, **kwargs)
            failed = False
        finally:
            span[4] = time.perf_counter_ns()
            span[6] = failed
        if request is not None:
            span[5] = request.headers.get("x-request-id")
        return request

    dispatch = recorder.wrap(gateway.AggregationService._dispatch, "gateway.busy")

    @functools.wraps(dispatch)
    async def tag_and_dispatch(self, request):
        # Not reset: the response write that follows belongs to it too.
        recorder.request.set(request.headers.get("x-request-id"))
        return await dispatch(self, request)

    gateway.read_request = read_and_tag
    gateway.AggregationService._dispatch = tag_and_dispatch
    recorder.patch(gateway, "report_batch_header", "gateway.validate")
    recorder.patch(gateway, "json_response", "gateway.json_encode")
    recorder.patch(cli, "parse_ranges", "gateway.query_parse")
    recorder.patch(cli, "parse_quantiles", "gateway.query_parse")
    recorder.patch(asyncio.StreamWriter, "write", "http.write")
    recorder.patch(asyncio.StreamWriter, "drain", "http.write")
    recorder.patch(IngestWAL, "append", "wal.append",
                   extra=lambda args, result: len(args[2]))
    recorder.patch(WorkerPool, "ingest_on", "workers.send")
    recorder.patch(WorkerPool, "close_workers", "workers.drain")
    recorder.patch(Engine, "absorb_shard", "engine.absorb_shard")
    recorder.patch(Engine, "seal_epoch", "engine.seal")
    recorder.patch(Engine, "checkpoint", "engine.checkpoint")
    recorder.patch(Engine, "window_state", "engine.window_state")
    recorder.patch(Engine, "n_reports", "engine.n_reports")
    recorder.patch(EpochStore, "write_segment", "store.segment_write",
                   extra=lambda args, result: os.path.getsize(result))
    recorder.patch(EpochStore, "build_aggregates", "store.aggregate_build")
    recorder.patch(EpochStore, "save_manifest", "store.manifest_save")
    recorder.patch(EpochStore, "pushdown_state", "store.pushdown")
    recorder.patch(EpochStore, "plan_window", "store.plan",
                   extra=lambda args, result: [len(result), len(args[1])])
    _patch_kernels(recorder, ("column_sums",))

    estimator = Engine.estimator
    patched_classes = set()

    @functools.wraps(estimator)
    def estimator_and_patch(self, *args, **kwargs):
        result = estimator(self, *args, **kwargs)
        kind = type(result)
        if kind not in patched_classes:
            patched_classes.add(kind)
            recorder.patch(kind, "range_query", "estimator.range_query")
            recorder.patch(kind, "quantile_query", "estimator.quantile_query")
            recorder.patch(kind, "estimated_frequencies", "estimator.frequencies")
        return result

    Engine.estimator = recorder.wrap(estimator_and_patch, "engine.finalize")


class ContextExecutor(ThreadPoolExecutor):
    """Runs each job in a copy of the submitter's context, timing the queue."""

    def __init__(self, recorder: Recorder) -> None:
        super().__init__(thread_name_prefix="traced-executor")
        self._recorder = recorder

    def submit(self, fn, /, *args, **kwargs):
        span = self._recorder.open("executor.wait")
        context = contextvars.copy_context()

        def run():
            span[4] = time.perf_counter_ns()
            return context.run(fn, *args, **kwargs)

        return super().submit(run)


def traced_worker_main(conn, spec) -> None:
    """Shard worker entry point: the stock loop with worker hooks installed."""
    import repro.service.workers as workers

    recorder = Recorder()
    install_worker_hooks(recorder)
    try:
        workers.shard_worker_main(conn, spec)
    finally:
        recorder.dump(os.environ[TRACE_DIR_ENV], "worker")


def traced_gateway_main(spec, options, conn) -> None:
    """Gateway entry point: install every hook, then serve until killed."""
    import repro.service.workers as workers
    from repro.service.gateway import AggregationService

    recorder = Recorder()
    install_gateway_hooks(recorder)
    workers.shard_worker_main = traced_worker_main
    directory = os.environ[TRACE_DIR_ENV]

    async def main() -> None:
        loop = asyncio.get_running_loop()
        loop.set_default_executor(ContextExecutor(recorder))
        loop.add_signal_handler(
            signal.SIGUSR1, recorder.dump, directory, "gateway"
        )
        try:
            service = AggregationService(spec, **options)
            await service.start()
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
            return
        conn.send(("ready", service.port))
        await service.serve_forever()

    asyncio.run(main())


class TracedServiceProcess:
    """:class:`repro.service.ServiceProcess`, started from the traced entry."""

    def __init__(self, spec: dict, boot_timeout: float = 60.0, **options) -> None:
        self.spec = spec
        self.options = options
        self.boot_timeout = boot_timeout
        self.port: Optional[int] = None
        self._process = None

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid if self._process is not None else None

    def start(self) -> "TracedServiceProcess":
        context = multiprocessing.get_context("spawn")
        parent_conn, child_conn = context.Pipe(duplex=False)
        self._process = context.Process(
            target=traced_gateway_main,
            args=(self.spec, self.options, child_conn),
            name="perfbench-traced-gateway",
        )
        self._process.start()
        child_conn.close()
        try:
            if parent_conn.poll(self.boot_timeout):
                status, detail = parent_conn.recv()
            else:
                status, detail = "timeout", f"no reply in {self.boot_timeout:g}s"
        finally:
            parent_conn.close()
        if status != "ready":
            self.kill()
            raise RuntimeError(f"traced gateway failed to boot: {detail}")
        self.port = int(detail)
        return self

    def dump_spans(self, directory: str, timeout: float = 30.0) -> None:
        """Ask the gateway to write its spans and wait for the file."""
        path = os.path.join(directory, f"gateway-{self.pid}.json")
        os.kill(self.pid, signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        while not os.path.exists(path):
            if time.monotonic() > deadline:
                raise RuntimeError("traced gateway did not write its spans")
            time.sleep(0.01)

    def kill(self) -> None:
        if self._process is None:
            return
        if self._process.is_alive():
            self._process.kill()
        self._process.join(timeout=30)
        self._process.close()
        self._process = None


# ---------------------------------------------------------------------- #
# analysis
# ---------------------------------------------------------------------- #
class _Node:
    __slots__ = ("name", "start", "end", "depth", "children", "extra", "failed")

    def __init__(self, name, start, end, extra=None, failed=False):
        self.name, self.start, self.end = name, start, end
        self.depth = 0
        self.children: List["_Node"] = []
        self.extra = extra
        self.failed = failed


def _covered(intervals) -> int:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _clip(node: _Node, low: int, high: int) -> Optional[_Node]:
    start, end = max(node.start, low), min(node.end, high)
    if end <= start:
        return None
    clipped = _Node(node.name, start, end, node.extra, node.failed)
    clipped.children = [
        child for child in (_clip(c, start, end) for c in node.children) if child
    ]
    return clipped


def _forest(spans) -> List[tuple]:
    """``(request_id, node)`` for each top-level span, children linked.

    Spans still open when the process wrote them (an idle keep-alive
    read, say) are dropped.
    """
    spans = [span for span in spans if span[4] >= span[3]]
    nodes = {
        span[0]: _Node(span[2], span[3], span[4], span[7], span[6]) for span in spans
    }
    roots = []
    for span in spans:
        node = nodes[span[0]]
        parent = nodes.get(span[1])
        if parent is not None:
            parent.children.append(node)
        else:
            roots.append((span[5], node))
    return roots


def _walk(node: _Node, depth: int = 0):
    node.depth = depth
    yield node
    for child in node.children:
        yield from _walk(child, depth + 1)


def _busy(node: _Node, busy: Dict[str, float], calls: Dict[str, int],
          failures: Dict[str, int]) -> None:
    own = (node.end - node.start) - _covered(
        (child.start, child.end) for child in node.children
    )
    busy[node.name] = busy.get(node.name, 0.0) + own / 1e9
    calls[node.name] = calls.get(node.name, 0) + 1
    failures[node.name] = failures.get(node.name, 0) + int(node.failed)
    for child in node.children:
        _busy(child, busy, calls, failures)


def _attribute(nodes: List[_Node], budget: Dict[str, float]) -> None:
    """Give each instant to the deepest active node(s); root depth is 0."""
    edges = sorted({edge for node in nodes for edge in (node.start, node.end)})
    deepest = [-1] * (len(edges) - 1)
    owners: List[List[str]] = [[] for _ in deepest]
    for node in nodes:
        first = bisect.bisect_left(edges, node.start)
        last = bisect.bisect_left(edges, node.end)
        for slot in range(first, last):
            if node.depth > deepest[slot]:
                deepest[slot] = node.depth
                owners[slot] = [node.name]
            elif node.depth == deepest[slot]:
                owners[slot].append(node.name)
    for slot, names in enumerate(owners):
        share = (edges[slot + 1] - edges[slot]) / 1e9 / len(names)
        for name in names:
            budget[name] = budget.get(name, 0.0) + share


def _client_root(call) -> _Node:
    root = _Node("other", call.start, call.end)
    root.children = [
        _Node("client.send", call.start, call.sent),
        _Node("client.read", call.head, call.end),
    ]
    return root


def analyze(calls, span_files: List[str]) -> dict:
    """Per-layer busy time, calls, failures and the stage budget of a run."""
    by_request: Dict[str, List[_Node]] = {}
    worker_forest: List[_Node] = []
    for path in span_files:
        with open(path) as handle:
            document = json.load(handle)
        for rid, node in _forest(document["spans"]):
            if document["role"] == "worker":
                worker_forest.append(node)
            else:
                by_request.setdefault(str(rid), []).append(node)

    worker_forest.sort(key=lambda node: node.start)
    worker_starts = [node.start for node in worker_forest]
    busy: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    failures: Dict[str, int] = {}
    budget: Dict[str, float] = {}
    extras: Dict[str, list] = {}
    total = 0.0
    for call in calls:
        root = _client_root(call)
        for node in by_request.get(str(call.rid), []):
            clipped = _clip(node, call.start, call.end)
            if clipped is not None:
                root.children.append(clipped)
        gateway_nodes = [node for top in root.children[2:] for node in _walk(top)]
        for top in root.children:
            _busy(top, busy, counts, failures)
        for node in gateway_nodes:
            if node.extra is not None:
                extras.setdefault(node.name, []).append(node.extra)
        for drain in [node for node in gateway_nodes if node.name == "workers.drain"]:
            # A drain waits for each worker to finish its backlog: the
            # worker spans inside the drain are the drain's children.
            first = bisect.bisect_left(worker_starts, drain.start - 60 * 10**9)
            for node in worker_forest[first:]:
                if node.start >= drain.end:
                    break
                clipped = _clip(node, drain.start, drain.end)
                if clipped is not None:
                    drain.children.append(clipped)
        nodes = list(_walk(root))
        _attribute(nodes, budget)
        total += (call.end - call.start) / 1e9
    for node in worker_forest:
        _busy(node, busy, counts, failures)
    return {
        "total_s": total,
        "budget_s": budget,
        "busy_s": busy,
        "calls": counts,
        "failures": failures,
        "extras": extras,
    }
