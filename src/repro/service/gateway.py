"""The network-facing aggregation service: async gateway + shard workers.

The paper's aggregator is an abstract entity collecting privatized
reports from millions of users.  :class:`AggregationService` is that
entity made concrete: a single asyncio HTTP gateway that accepts framed
report batches, fans them out to per-shard worker processes
(:mod:`repro.service.workers`), merges the shard accumulators into the
epoch-aware :class:`~repro.engine.Engine` on epoch close, and answers
windowed queries -- with durability via the engine's out-of-core epoch
store.

Endpoints (all JSON except the ingest body):

=======================  =====================================================
``GET  /healthz``        liveness: 200 ``ok``, or ``degraded`` while a shard
                         worker respawns; 503 ``stopping`` during shutdown
``GET  /spec``           the protocol registry spec clients must encode for
``GET  /stats``          epochs, report counts, per-worker stats, store state
``POST /ingest``         body = one framed report batch
                         (:func:`repro.core.serialization.pack_report_batch`);
                         the gateway validates the header and forwards the
                         frames to one shard worker without decoding arrays
``POST /close``          close the current epoch: drain every worker, merge
                         the shard states into the engine (exact, order
                         independent) and seal the epoch into the store
``POST /checkpoint``     sweep the store now: rewrite dirty epochs, rebuild
                         missing aggregate segments
``GET  /query``          windowed estimates; parameters ``window``
                         (``all`` | ``last:K`` | ``0,2,5``), ``ranges``,
                         ``quantiles``, ``rectangles``, ``frequencies=1``,
                         and optional ``postprocess=`` re-finalization
=======================  =====================================================

``/query`` shares one grammar and batch answerer with the CLI,
:func:`repro.queries.frontend.answer_queries`, run in the executor call
that merges the window: the event loop only parses and encodes JSON.

Correctness invariant: sharded service ingestion is *bit-identical* to
single-process ingestion of the same report stream.  Workers accumulate
integer sufficient statistics and epoch close merges them exactly
(associative + commutative), so the number of workers, the round-robin
interleaving and the merge order are all unobservable in query answers.

Durability: every service runs with an epoch store (``store_dir``, or an
engine already backed by one) and a write-ahead log (``wal_dir``), and
the constructor raises ``ValueError`` when either is missing.  The
:class:`~repro.engine.store.EpochStore` is the engine's only persistence.
Every epoch close *seals* the finished epoch -- one CRC-framed segment
write, the aggregate blocks it completes, a manifest commit -- and evicts
it from RAM, so the gateway's memory stays O(current epoch) no matter how
many epochs it has served.  Windowed ``/query`` answers over sealed
epochs run via the store's pushdown path and remain bit-identical to the
all-in-RAM engine.  Restarting with the same ``store_dir`` resumes from
the manifest, mapping segments lazily.

Fault tolerance (WAL + supervision):

* every accepted ingest batch is appended to the open epoch's segment
  of the write-ahead log (:mod:`repro.service.wal`) *before* the 200 goes
  out, keyed by a client-supplied ``Idempotency-Key`` header (duplicates
  are dropped, so at-least-once clients get exactly-once ingestion);
  the WAL holds only the open epoch -- ``/close`` seals the epoch into
  the store, then discards its segment;
* a supervisor task respawns crashed shard workers under bounded
  exponential backoff and re-ingests their WAL'd batches into the
  replacement -- a worker crash costs availability of one shard for a
  moment, never a single report;
* on restart, the open epoch's batches are replayed into fresh workers
  (its torn tail, never acknowledged, cut off first), so a SIGKILL
  between ``/ingest`` ack and ``/close`` loses nothing: recovered query
  answers are bit-identical to a no-fault run.  A segment recovery
  cannot read refuses the start rather than being skipped;
* bounded per-worker in-flight queues surface ``429 Retry-After`` when
  the pool is saturated, and slow/stuck clients are disconnected by a
  request read timeout.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import threading
import time
from typing import Dict, List, Optional, Tuple, Union

from repro.core.exceptions import InvalidWindowError, ProtocolUsageError
from repro.core.serialization import SerializationError, report_batch_header
from repro.core.session import AccumulatorState, spec_sans_postprocess
from repro.engine import Engine, parse_window
from repro.queries.frontend import answer_queries
from repro.service.http import (
    MAX_HEADER_BYTES,
    HttpError,
    HttpRequest,
    error_response,
    json_response,
    read_request,
)
from repro.service.wal import IngestWAL, SegmentScan
from repro.service.workers import (
    NoAliveWorkersError,
    PoolSaturatedError,
    WorkerCrashError,
    WorkerPool,
    ingest_batches_single_process,
)

#: Seconds the gateway waits for one request before answering 408 and
#: closing the connection.
REQUEST_TIMEOUT_S = 30.0

#: Seconds between the supervisor's checks for dead shard workers.
SUPERVISE_INTERVAL_S = 0.25


class AggregationService:
    """One protocol configuration served over HTTP with sharded ingest.

    ``engine`` is an :class:`~repro.engine.Engine` (possibly restored
    from an epoch store), a protocol object, or a spec dict.  The service
    owns the engine's epoch lifecycle: reports accumulate in the worker
    shards of the *current* epoch, ``POST /close`` folds them into the
    engine, and queries see every closed epoch.  It needs an epoch store
    -- ``store_dir``, or an engine already backed by one -- and a
    ``wal_dir``, and raises ``ValueError``, before creating any
    directory, when either is missing or ``store_dir`` names another
    directory than the engine's own store.
    """

    def __init__(
        self,
        engine: Union[Engine, dict, object],
        *,
        num_workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        store_dir: Optional[str] = None,
        wal_dir: Optional[str] = None,
        wal_sync: bool = False,
    ) -> None:
        if not isinstance(engine, Engine):
            engine = Engine.open(engine)
        if (store_dir is None and engine.store is None) or not wal_dir:
            raise ValueError(
                "the service needs an epoch store (store_dir, or an engine "
                "backed by one) and a wal_dir (serve: --store-dir and "
                "--wal-dir): every accepted batch is logged before its ack, "
                "and every closed epoch is sealed into the store"
            )
        if engine.store is None:
            engine.attach_store(store_dir)
        elif store_dir is not None and (
            os.path.realpath(store_dir) != os.path.realpath(engine.store.directory)
        ):
            raise ValueError(
                f"store_dir {store_dir} is not the engine's own epoch store "
                f"{engine.store.directory}"
            )
        self._engine = engine
        self._spec = engine.spec()
        self._host = host
        self._requested_port = int(port)
        self._pool = WorkerPool(self._spec, num_workers=num_workers)
        self._wal = IngestWAL(wal_dir, sync=wal_sync)
        self._wal_lock = asyncio.Lock()
        self._supervisor: Optional[asyncio.Task] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._port: Optional[int] = None
        self._close_lock = asyncio.Lock()
        # Makes every batch's {shard assignment + WAL append} atomic with
        # respect to the supervisor's {respawn + replay}: without it a
        # replay could scan the log between the two, and miss a deferred
        # record or deliver a record twice to the worker it just revived.
        self._repair_lock = asyncio.Lock()
        # Epoch barrier: /close waits for in-flight ingests to land and
        # holds back new ones, so a batch's WAL epoch always matches the
        # epoch its reports are counted in.
        self._closing = False
        self._ingest_inflight = 0
        self._ingest_idle = asyncio.Event()
        self._close_done = asyncio.Event()
        self._close_done.set()
        # Idempotency keys seen in the current and previous epoch.
        self._seen_keys: Dict[str, int] = {}
        self._auto_keys = itertools.count()
        epochs = engine.epochs
        self._current_epoch = (max(epochs) + 1) if epochs else 0
        self._started_at = time.monotonic()
        self._batches_accepted = 0
        self._reports_accepted = 0
        self._duplicates_dropped = 0
        self._rejected_busy = 0
        self._deferred_batches = 0
        self._replayed_batches = 0
        self._timed_out_connections = 0
        self._wal_recovery_ms = 0.0
        self._checkpoints_written = 0
        self._stopping = False

    # ------------------------------------------------------------------ #
    # construction / lifecycle
    # ------------------------------------------------------------------ #
    @classmethod
    def from_store(cls, store_dir: str, **options) -> "AggregationService":
        """A service resuming from an out-of-core epoch store directory.

        The manifest is read eagerly but every sealed epoch stays on
        disk, mapped lazily on first query -- restart cost and RSS are
        independent of how many epochs the store holds.  ``options``
        must name the ``wal_dir``; ingestion continues on the open epoch
        it replays, or else on the next fresh epoch key, so a
        crash-restart never rewrites a closed epoch.
        """
        return cls(Engine.open(None, store_dir=store_dir), **options)

    @property
    def engine(self) -> Engine:
        """The underlying epoch-aware engine (closed epochs only)."""
        return self._engine

    @property
    def spec(self) -> dict:
        return dict(self._spec)

    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        if self._port is None:
            raise RuntimeError("service is not started")
        return self._port

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    @property
    def current_epoch(self) -> int:
        """The epoch key in-flight reports belong to."""
        return self._current_epoch

    @property
    def wal(self) -> IngestWAL:
        """The durable ingest log."""
        return self._wal

    @property
    def pool(self) -> WorkerPool:
        """The shard worker pool (exposed for fault injection and tests)."""
        return self._pool

    @property
    def restart_count(self) -> int:
        return self._pool.restart_count

    async def start(self) -> "AggregationService":
        """Scan the WAL, spawn the shard workers, replay, start accepting.

        The scan comes first, so a WAL segment recovery cannot read
        (:class:`SerializationError`) refuses the start before any
        worker spawns.
        """
        recovery_started = time.perf_counter()
        segments = self._wal.scan()
        self._pool.start()
        await self._recover_from_wal(segments)
        self._wal_recovery_ms = (time.perf_counter() - recovery_started) * 1e3
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self._host,
            port=self._requested_port,
            limit=MAX_HEADER_BYTES,
        )
        self._port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        self._supervisor = asyncio.create_task(self._supervise())
        return self

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def stop(self, flush: bool = True) -> None:
        """Stop the service.

        ``flush=True`` is the graceful path: stop accepting connections,
        close the in-progress epoch (so no accepted report is lost),
        sweep the store, and let the workers exit cleanly.
        ``flush=False`` simulates a crash: the current epoch's unclosed
        shards are dropped, and the next start replays them from the WAL.
        """
        self._stopping = True
        if self._supervisor is not None:
            self._supervisor.cancel()
            try:
                await self._supervisor
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self._supervisor = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if flush:
            await self._close_epoch()
            await self._sweep_store()
            await self._pool.shutdown(graceful=True)
        else:
            await self._pool.shutdown(graceful=False)
        self._wal.close()

    # ------------------------------------------------------------------ #
    # fault tolerance: WAL recovery + worker supervision
    # ------------------------------------------------------------------ #
    def _rebuild_segment_state(self, segment: SegmentScan):
        """Single-process re-ingestion of one WAL segment (exact)."""
        seen = set()
        blobs = []
        for meta, blob in segment.records:
            key = meta.get("key")
            if key in seen:
                continue
            seen.add(key)
            blobs.append(blob)
        return ingest_batches_single_process(self._spec, blobs)

    async def _recover_from_wal(self, segments: List[SegmentScan]) -> None:
        """Replay the WAL's open segments (oldest first) after a restart.

        A restart is normally the store's manifest plus one segment: the
        newest, if it is newer than every epoch the store holds, was in
        flight when the process died.  Its torn tail -- a record whose
        append never finished, so never acknowledged -- is cut off so new
        appends stay readable, its batches are replayed into the fresh
        workers, and it keeps accepting appends.

        A segment whose epoch the store already holds is discarded, never
        replayed: a crash between the store seal and the WAL discard of
        ``/close`` leaves one, and replaying it would count its epoch
        twice.  One case needs a rebuild: any other uncovered segment.  A
        seal that fails at ``/close`` (a full disk, say) leaves one -- the
        close answers 500, the epoch stays live in RAM, and ingest moves
        on to the next epoch, which a later close may seal.  It is rebuilt
        by single-process re-ingestion, bit-identical to the sharded
        original, and sealed like a fresh close.
        """
        loop = asyncio.get_running_loop()
        known = set(self._engine.epochs)
        live = None
        if segments and segments[-1].epoch > max(known, default=-1):
            live = segments.pop()
        for segment in segments:
            if segment.epoch in known or not segment.records:
                self._wal.discard(segment.epoch)
                continue
            server = await loop.run_in_executor(
                None, self._rebuild_segment_state, segment
            )
            if server.n_reports <= 0:
                self._wal.discard(segment.epoch)
                continue
            server.state.meta.clear()
            self._engine.absorb_shard(server.state, epoch=segment.epoch)
            known.add(segment.epoch)
            await self._persist_closed(segment.epoch)
        if known:
            self._current_epoch = max(known) + 1
        if live is not None:
            if live.torn_offset is not None:
                os.truncate(live.path, live.torn_offset)
            self._current_epoch = live.epoch
            records = []
            for meta, blob in live.records:
                key = str(meta.get("key"))
                if key in self._seen_keys:
                    continue
                self._seen_keys[key] = live.epoch
                records.append((meta, blob))
                self._batches_accepted += 1
                self._reports_accepted += int(meta.get("n_users", 0))
            await self._replay_records(records)

    async def _replay_records(
        self, records: List[Tuple[dict, bytes]], only: Optional[set] = None
    ) -> int:
        """Re-ingest logged batches into the shards that own them.

        A record belongs to shard ``worker % len(pool)``; ``only`` limits
        the replay to those shards.  Returns the batches delivered.
        """
        buckets: Dict[int, List[bytes]] = {}
        for meta, blob in records:
            index = int(meta.get("worker", 0)) % len(self._pool)
            if only is None or index in only:
                buckets.setdefault(index, []).append(blob)
        counts = await asyncio.gather(
            *(self._replay_into(index, blobs) for index, blobs in buckets.items())
        )
        replayed = sum(counts)
        self._replayed_batches += replayed
        return replayed

    async def _replay_into(self, index: int, blobs: List[bytes]) -> int:
        """Sequentially re-ingest one shard's batches; stop on a crash.

        A record that cannot be delivered (the shard -- or its fresh
        replacement -- died) stays in the log; the next repair pass
        respawns the shard and runs the full replay again.  Shards
        replay concurrently with each other: each worker's decode loop
        is the bottleneck, so per-shard fan-out cuts recovery time by
        roughly the worker count.
        """
        replayed = 0
        for blob in blobs:
            try:
                await self._pool.ingest_on(index, blob)
            except WorkerCrashError:
                break
            replayed += 1
        return replayed

    async def _replay_for_workers(self, indices: List[int], epoch: int) -> int:
        """Re-ingest the current epoch's WAL batches owned by ``indices``.

        Called after respawning dead workers: the replacements start
        empty, and every batch the dead shard ever accepted this epoch
        is in the log.
        """
        if not indices:
            return 0
        loop = asyncio.get_running_loop()
        records = await loop.run_in_executor(None, self._wal.read_epoch, epoch)
        return await self._replay_records(
            records, only={int(index) % len(self._pool) for index in indices}
        )

    async def _supervise(self) -> None:
        """Detect dead workers, respawn them, replay their batches.

        Runs every :data:`SUPERVISE_INTERVAL_S`; holds the close lock so
        a replay never interleaves with an epoch drain (which would
        mis-attribute the replayed reports to the next epoch).
        """
        while not self._stopping:
            await asyncio.sleep(SUPERVISE_INTERVAL_S)
            try:
                if self._pool.alive_count == len(self._pool):
                    continue
                async with self._close_lock:
                    async with self._repair_lock:
                        respawned = await self._pool.ensure_alive()
                        await self._replay_for_workers(
                            respawned, self._current_epoch
                        )
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - supervision must outlive any
                # transient repair failure; the next tick tries again.
                continue

    # ------------------------------------------------------------------ #
    # epoch lifecycle
    # ------------------------------------------------------------------ #
    async def _persist_closed(self, epoch: int) -> None:
        """Seal a closed epoch into the store, then drop its WAL segment.

        Sealing writes the segment, builds the aggregate blocks the epoch
        completes and commits the manifest; only then is the WAL copy
        redundant.  If the seal fails the segment stays, and a restart
        rebuilds the epoch from it.
        """
        # The segment and manifest writes fsync: keep them off the loop.
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._engine.seal_epoch, epoch)
        self._wal.discard(epoch)

    async def _sweep_store(self) -> None:
        """Rewrite dirty epochs and rebuild missing aggregate segments.

        Sealing keeps the store complete on its own; the sweep repairs
        what a CRC failure discarded (an aggregate segment found corrupt
        at query time is dropped and rebuilt here).
        """
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._engine.checkpoint)
        self._checkpoints_written += 1

    async def _drain_workers(self, epoch: int) -> Dict[int, bytes]:
        """Drain every shard for ``epoch``, repairing crashes as needed.

        A worker that dies mid-drain is respawned, its WAL'd batches are
        replayed into the replacement, and only then is the shard drained
        again -- so the merged epoch holds exactly the accepted batches
        even when shards crash during the close itself.
        """
        pending = set(range(len(self._pool)))
        states: Dict[int, bytes] = {}
        for _attempt in range(4):
            respawned = await self._pool.ensure_alive(force=True)
            await self._replay_for_workers(
                [index for index in respawned if index in pending], epoch
            )
            drained, failures = await self._pool.close_workers(sorted(pending))
            states.update(drained)
            pending -= set(drained)
            if not pending:
                return states
        raise HttpError(
            503,
            f"could not drain shard(s) {sorted(pending)} after repeated "
            "worker respawns",
        )

    async def _close_epoch(self) -> dict:
        """Drain every worker and merge the shard states into the engine.

        Holds the epoch barrier (in-flight ingests land first, new ones
        wait) so the WAL segment and the merged epoch agree on exactly
        which batches belong to it; merging runs under the engine's lock
        via :meth:`~repro.engine.Engine.absorb_shard`; empty shards are
        skipped so a traffic-free close never creates an unfinalizable
        zero-report epoch.
        """
        async with self._close_lock:
            self._closing = True
            self._close_done.clear()
            try:
                if self._ingest_inflight > 0:
                    self._ingest_idle.clear()
                    await self._ingest_idle.wait()
                epoch = self._current_epoch
                shard_states = await self._drain_workers(epoch)
                total = 0
                for index in sorted(shard_states):
                    state = AccumulatorState.from_bytes(shard_states[index])
                    if state.n_reports <= 0:
                        continue
                    # Worker states carry no epoch stamp; absorb_shard merges
                    # them (exactly) into the closing epoch under the lock.
                    state.meta.clear()
                    self._engine.absorb_shard(state, epoch=epoch)
                    total += state.n_reports
                if total == 0:
                    return {"closed": False, "reports": 0, "epoch": None}
                self._current_epoch = epoch + 1
                await self._persist_closed(epoch)
                self._pool.note_epoch_closed()
                # Keys from two epochs ago can no longer race a retry.
                self._seen_keys = {
                    key: seen_epoch
                    for key, seen_epoch in self._seen_keys.items()
                    if seen_epoch >= epoch
                }
                return {
                    "closed": True,
                    "epoch": epoch,
                    "reports": total,
                    "epochs": list(self._engine.epochs),
                }
            finally:
                self._closing = False
                self._close_done.set()

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        read_request(reader), timeout=REQUEST_TIMEOUT_S
                    )
                except asyncio.TimeoutError:
                    # A stuck or idle-beyond-budget client: free the
                    # connection instead of holding the slot forever.
                    self._timed_out_connections += 1
                    writer.write(
                        error_response(
                            408,
                            f"request not received within "
                            f"{REQUEST_TIMEOUT_S:g}s",
                        )
                    )
                    await writer.drain()
                    break
                except HttpError as exc:
                    writer.write(error_response(exc.status, exc.message))
                    await writer.drain()
                    break
                if request is None:
                    break
                try:
                    response = await self._dispatch(request)
                except HttpError as exc:
                    response = error_response(
                        exc.status,
                        exc.message,
                        keep_alive=request.keep_alive,
                        extra_headers=exc.headers,
                    )
                except Exception as exc:  # noqa: BLE001 - boundary: a handler
                    # bug must produce a 500, never kill the connection loop.
                    response = error_response(500, f"{type(exc).__name__}: {exc}")
                writer.write(response)
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _dispatch(self, request: HttpRequest) -> bytes:
        route = (request.method, request.path)
        if route == ("GET", "/healthz"):
            return await self._handle_healthz(request)
        if route == ("GET", "/spec"):
            return json_response(200, self._spec, keep_alive=request.keep_alive)
        if route == ("GET", "/stats"):
            return await self._handle_stats(request)
        if route == ("POST", "/ingest"):
            return await self._handle_ingest(request)
        if route == ("POST", "/close"):
            return await self._handle_close(request)
        if route == ("POST", "/checkpoint"):
            return await self._handle_checkpoint(request)
        if route == ("GET", "/query"):
            return await self._handle_query(request)
        known_paths = {
            "/healthz", "/spec", "/stats", "/ingest", "/close",
            "/checkpoint", "/query",
        }
        if request.path in known_paths:
            raise HttpError(405, f"{request.method} is not allowed on {request.path}")
        raise HttpError(404, f"unknown endpoint {request.path}")

    async def _handle_healthz(self, request: HttpRequest) -> bytes:
        alive = self._pool.alive_count
        configured = len(self._pool)
        if self._stopping:
            status, code = "stopping", 503
        elif alive == configured:
            status, code = "ok", 200
        else:
            # Some shards are respawning, but ingest still lands: alive
            # workers take it, and with every worker dead it is logged
            # and delivered by the respawn replay.
            status, code = "degraded", 200
        payload = {
            "status": status,
            "workers": {
                "alive": alive,
                "configured": configured,
                "restarts": self._pool.restart_count,
            },
        }
        return json_response(code, payload, keep_alive=request.keep_alive)

    async def _handle_stats(self, request: HttpRequest) -> bytes:
        worker_stats = await self._pool.stats()
        engine = self._engine
        epochs = list(engine.epochs)
        payload = {
            "uptime_s": time.monotonic() - self._started_at,
            "method": self._spec.get("name"),
            "current_epoch": self._current_epoch,
            "epochs": epochs,
            # Manifest-backed counts: never materializes a sealed epoch.
            "epoch_reports": {
                str(epoch): count
                for epoch, count in engine.epoch_report_counts().items()
            },
            "closed_reports": engine.n_reports() if epochs else 0,
            "pending_reports": sum(
                stat.get("epoch_reports", 0) for stat in worker_stats
            ),
            "accepted": {
                "batches": self._batches_accepted,
                "reports": self._reports_accepted,
                "duplicates_dropped": self._duplicates_dropped,
                "rejected_busy": self._rejected_busy,
                "deferred_batches": self._deferred_batches,
            },
            "workers": worker_stats,
            "restart_count": self._pool.restart_count,
            "replayed_batches": self._replayed_batches,
            "timed_out_connections": self._timed_out_connections,
            "wal": {**self._wal.stats(), "recovery_ms": self._wal_recovery_ms},
            "checkpoint": {"written": self._checkpoints_written},
            "store": {
                "dir": engine.store.directory,
                "sealed_epochs": list(engine.sealed_epochs),
                "live_epochs": list(engine.live_epochs),
                "on_disk_bytes": engine.store.total_bytes(),
                # Windowed-query fast path: the materialized aggregate hierarchy.
                "aggregates": engine.store.aggregate_stats(),
            },
        }
        return json_response(200, payload, keep_alive=request.keep_alive)

    async def _handle_ingest(self, request: HttpRequest) -> bytes:
        blob = request.body
        if not blob:
            raise HttpError(411, "ingest needs a framed report batch as its body")
        try:
            header = report_batch_header(blob)
        except SerializationError as exc:
            raise HttpError(400, str(exc)) from exc
        batch_spec = header.get("protocol")
        if batch_spec is not None and spec_sans_postprocess(
            batch_spec
        ) != spec_sans_postprocess(self._spec):
            raise HttpError(
                409,
                "batch was encoded for a different protocol configuration: "
                f"{batch_spec} != {self._spec}",
            )
        n_users = header["n_users"]
        if header["count"] == 0 or n_users == 0:
            return json_response(
                200,
                {"queued": 0, "epoch": self._current_epoch},
                keep_alive=request.keep_alive,
            )

        # Epoch barrier: wait out an in-progress close, then reserve our
        # slot synchronously (no awaits between the checks below) so the
        # epoch we stamp is the epoch our reports are merged into.
        while self._closing:
            await self._close_done.wait()
        key = request.headers.get("idempotency-key")
        if key is None:
            key = f"auto:{next(self._auto_keys)}"
        elif key in self._seen_keys:
            # An at-least-once client retried a batch we already own
            # (possibly acknowledged into the just-closed epoch).
            self._duplicates_dropped += 1
            return json_response(
                200,
                {
                    "queued": 0,
                    "duplicate": True,
                    "key": key,
                    "epoch": self._seen_keys[key],
                },
                keep_alive=request.keep_alive,
            )
        epoch = self._current_epoch
        self._seen_keys[key] = epoch
        self._ingest_inflight += 1
        try:
            deferred = False
            # Under the repair lock a respawn replay cannot scan the log
            # between the shard assignment and the append landing: it
            # would miss a deferred record (and nothing would ever deliver
            # it), or replay a record bound for the shard it just revived
            # while this handler sends it there too.
            async with self._repair_lock:
                try:
                    worker = self._pool.pick_worker()
                except PoolSaturatedError as exc:
                    del self._seen_keys[key]
                    self._rejected_busy += 1
                    raise HttpError(
                        429,
                        f"ingest queue saturated ({exc}); retry shortly",
                        headers={"Retry-After": "0.1"},
                    ) from exc
                except NoAliveWorkersError:
                    # The batch is durable the moment it is logged; the
                    # supervisor's respawn replay delivers it.
                    worker = self._batches_accepted % len(self._pool)
                    deferred = True
                try:
                    await self._append_wal(epoch, blob, key, worker, n_users)
                except OSError as exc:
                    del self._seen_keys[key]
                    raise HttpError(503, f"ingest log write failed: {exc}") from exc
            if not deferred:
                try:
                    await self._pool.ingest_on(worker, blob)
                except WorkerCrashError:
                    # Logged before the crash: the respawn replay
                    # re-ingests it, so the ack stands.
                    deferred = True
            if deferred:
                self._deferred_batches += 1
            self._batches_accepted += 1
            self._reports_accepted += n_users
            return json_response(
                200,
                {
                    "queued": n_users,
                    "epoch": epoch,
                    "worker": worker,
                    "key": key,
                    "deferred": deferred,
                },
                keep_alive=request.keep_alive,
            )
        finally:
            self._ingest_inflight -= 1
            if self._ingest_inflight == 0:
                self._ingest_idle.set()

    async def _append_wal(
        self, epoch: int, blob: bytes, key: str, worker: int, n_users: int
    ) -> None:
        if self._wal.sync:
            # fsync can block for milliseconds: keep it off the loop,
            # serialized so records never interleave mid-write.
            loop = asyncio.get_running_loop()
            async with self._wal_lock:
                await loop.run_in_executor(
                    None,
                    lambda: self._wal.append(
                        epoch, blob, key=key, worker=worker, n_users=n_users
                    ),
                )
        else:
            # A buffered write + flush is page-cache fast; doing it
            # inline keeps record order identical to ack order.
            self._wal.append(epoch, blob, key=key, worker=worker, n_users=n_users)

    async def _handle_close(self, request: HttpRequest) -> bytes:
        result = await self._close_epoch()
        return json_response(200, result, keep_alive=request.keep_alive)

    async def _handle_checkpoint(self, request: HttpRequest) -> bytes:
        await self._sweep_store()
        return json_response(
            200,
            {
                "store_dir": self._engine.store.directory,
                "epochs": list(self._engine.epochs),
                "written": self._checkpoints_written,
            },
            keep_alive=request.keep_alive,
        )

    async def _handle_query(self, request: HttpRequest) -> bytes:
        # The windowed merge, finalize and answers run in the executor,
        # off the event loop: wide windows gather mmap'd segment vectors
        # through the blocked column_sums kernel, so query pushdown does
        # not block the event loop.
        params = request.params
        engine = self._engine
        postprocess = params.get("postprocess")
        try:
            if postprocess:
                engine = engine.with_postprocess(postprocess)
            window = parse_window(params.get("window", "all"))
        except (ValueError, ProtocolUsageError) as exc:
            raise HttpError(400, str(exc)) from exc

        def query_and_answer() -> dict:
            selected, estimator, n_users = engine.query(window)
            try:
                answers = answer_queries(estimator, params)
            except ValueError as exc:
                raise HttpError(400, str(exc)) from exc
            return {"epochs": selected, "n_users": int(n_users), **answers}

        loop = asyncio.get_running_loop()
        try:
            answered = await loop.run_in_executor(None, query_and_answer)
        except InvalidWindowError as exc:
            raise HttpError(409, str(exc)) from exc
        except ProtocolUsageError as exc:
            raise HttpError(400, str(exc)) from exc
        payload = {
            "method": self._spec.get("name"),
            "epsilon": self._spec.get("epsilon"),
            "window": params.get("window", "all"),
            **answered,
        }
        if postprocess:
            payload["postprocess"] = postprocess
        return json_response(200, payload, keep_alive=request.keep_alive)


class ServiceThread:
    """Run an :class:`AggregationService` on a background event loop.

    Synchronous harness used by tests, the benchmark and embedding
    applications: the service runs on its own thread's event loop while
    the caller drives it over plain blocking HTTP.

    Use as a context manager::

        service = AggregationService(spec, store_dir="store", wal_dir="wal")
        with ServiceThread(service) as handle:
            requests.post(handle.url + "/ingest", data=batch)  # any client
    """

    def __init__(self, service: AggregationService) -> None:
        self.service = service
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return self.service.url

    @property
    def port(self) -> int:
        return self.service.port

    def start(self) -> "ServiceThread":
        if self._thread is not None:
            raise RuntimeError("service thread already started")
        self._loop = asyncio.new_event_loop()
        ready = threading.Event()
        failure: list = []

        def run() -> None:
            asyncio.set_event_loop(self._loop)

            async def boot() -> None:
                try:
                    await self.service.start()
                except Exception as exc:  # pragma: no cover - boot failure
                    failure.append(exc)
                finally:
                    ready.set()

            self._loop.create_task(boot())
            self._loop.run_forever()
            # Drain cancelled tasks so the loop closes cleanly.
            pending = asyncio.all_tasks(self._loop)
            for task in pending:
                task.cancel()
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            self._loop.close()

        self._thread = threading.Thread(target=run, name="repro-service", daemon=True)
        self._thread.start()
        ready.wait()
        if failure:
            self.stop(flush=False)
            raise failure[0]
        return self

    def stop(self, flush: bool = True) -> None:
        if self._loop is None or self._thread is None:
            return
        if self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self.service.stop(flush=flush), self._loop
            )
            future.result(timeout=60)
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=60)
        self._loop = None
        self._thread = None

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(flush=exc_type is None)


#: HTTP statuses that signal "try again shortly", not "you are wrong".
RETRYABLE_STATUSES = (429, 503)

#: First retry delay of :func:`retry_delay_s`, and the cap its doubling
#: stops at, in seconds (before jitter).
RETRY_BASE_S = 0.05
RETRY_CAP_S = 2.0


def retry_delay_s(attempt: int, retry_after: Optional[str] = None) -> float:
    """Jittered exponential backoff, honoring a server ``Retry-After``.

    :func:`request_json` backs off this way: the server's hint is a
    floor, the exponential schedule a ceiling-capped escalation, and the
    jitter keeps a fleet of retrying clients from stampeding in
    lockstep.
    """
    import random

    delay = min(RETRY_CAP_S, RETRY_BASE_S * (2 ** max(0, attempt)))
    if retry_after:
        try:
            delay = max(delay, float(retry_after))
        except ValueError:
            pass
    return delay * (0.5 + random.random())


def request_json(
    url: str,
    method: str = "GET",
    body: Optional[bytes] = None,
    *,
    max_retries: int = 2,
    headers: Optional[dict] = None,
    timeout: float = 60.0,
) -> dict:
    """One blocking JSON round trip against a gateway (stdlib only).

    Convenience for scripts and tests; raises ``RuntimeError`` on any
    non-200 status with the server's error message.  Transport failures
    (connection reset, refused, incomplete read) and retryable statuses
    (429/503, honoring ``Retry-After``) are retried up to
    ``max_retries`` times with jittered exponential backoff -- pass an
    ``Idempotency-Key`` header when retrying ``/ingest`` so a retry of
    an already-accepted batch is deduplicated, not double-counted.
    """
    import http.client
    import time as _time
    from urllib.parse import urlsplit

    parts = urlsplit(url)
    path = parts.path or "/"
    if parts.query:
        path = f"{path}?{parts.query}"
    request_headers = dict(headers or {})
    if body and "Content-Type" not in request_headers:
        request_headers["Content-Type"] = "application/octet-stream"

    last_error: Optional[str] = None
    for attempt in range(int(max_retries) + 1):
        connection = http.client.HTTPConnection(
            parts.hostname, parts.port or 80, timeout=timeout
        )
        try:
            try:
                connection.request(method, path, body=body, headers=request_headers)
                response = connection.getresponse()
                payload = response.read()
            except (OSError, http.client.HTTPException) as exc:
                last_error = f"{type(exc).__name__}: {exc}"
                if attempt < max_retries:
                    _time.sleep(retry_delay_s(attempt))
                    continue
                raise RuntimeError(
                    f"{method} {path} failed after {attempt + 1} attempts: "
                    f"{last_error}"
                ) from exc
            document = json.loads(payload.decode("utf-8"))
            if response.status in RETRYABLE_STATUSES and attempt < max_retries:
                _time.sleep(
                    retry_delay_s(
                        attempt, retry_after=response.getheader("Retry-After")
                    )
                )
                continue
            if response.status != 200:
                raise RuntimeError(
                    f"{method} {path} -> {response.status}: "
                    f"{document.get('error', payload[:200])}"
                )
            return document
        finally:
            connection.close()
    raise RuntimeError(
        f"{method} {path} failed after {max_retries + 1} attempts: {last_error}"
    )  # pragma: no cover - loop always returns or raises above
