"""Multi-process shard workers: the ingest hot loop of the service.

The gateway (:mod:`repro.service.gateway`) is a single asyncio process --
great at juggling thousands of connections, terrible at burning CPU on
report decoding and accumulation.  This module moves that hot loop onto
``N`` worker *processes*, one shard each, connected over
``multiprocessing`` pipes:

* the gateway forwards each framed report batch (still bytes -- it never
  decodes an array) to one worker, round-robin;
* every worker decodes the batch and folds it into its own
  :class:`~repro.core.session.ProtocolServer` accumulator;
* on epoch close each worker hands back its packed accumulator state and
  resets.  Because accumulator merge is exactly associative and
  commutative (integer sufficient statistics), merging the shard states
  in *any* order reproduces single-process ingestion of the same reports
  bit-for-bit -- sharding is a pure throughput play, never an accuracy
  trade.

The pipe protocol is deliberately pickle-free, mirroring the repository's
wire format: one opcode byte followed by a payload (a framed batch, a
packed accumulator state, or a JSON document).

Supervision: workers are processes and processes die.  The pool detects
a dead shard (its process is no longer ``alive``, or an ingest, drain or
stats call hits a dead pipe), reaps the corpse so repeated runs never
leak zombies, and respawns a replacement at the same index under bounded
exponential backoff -- routing simply skips dead or saturated workers
in the meantime instead of failing the whole service.  A respawned
worker starts with an *empty* accumulator; re-ingesting the batches the
dead worker was responsible for is the gateway's job (it has the WAL).
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import time
from multiprocessing.connection import Connection
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.exceptions import ProtocolUsageError
from repro.core.serialization import SerializationError, unpack_report_batch
from repro.core.session import Report, protocol_from_spec


class NoAliveWorkersError(RuntimeError):
    """Every shard worker is dead (and none may respawn yet)."""


class PoolSaturatedError(RuntimeError):
    """Every alive worker's in-flight queue is at its bound (back off)."""


class WorkerCrashError(RuntimeError):
    """A pipe operation found the target worker dead mid-request."""

    def __init__(self, index: int, message: str) -> None:
        super().__init__(message)
        self.index = int(index)

#: Opcode: ingest one framed report batch (no reply).
OP_INGEST = b"I"
#: Opcode: close the current epoch -- reply with the packed shard state
#: and start a fresh accumulator.
OP_CLOSE = b"C"
#: Opcode: reply with a JSON stats document.
OP_STATS = b"S"
#: Opcode: acknowledge and exit.
OP_QUIT = b"Q"


def shard_worker_main(conn: Connection, spec: dict) -> None:
    """Entry point of one shard worker process.

    Rebuilds the protocol from its registry ``spec`` (JSON-able, so it
    survives the ``spawn`` start method), then serves opcodes from the
    pipe until :data:`OP_QUIT` or EOF.  A batch that fails to decode, or
    holds a report that does not fit the server, never kills the worker:
    it is counted and surfaced through :data:`OP_STATS`, so the gateway
    can report it.  A batch that does not fit is refused whole.
    """
    protocol = protocol_from_spec(spec)
    server = protocol.server()
    batches = 0
    errors = 0
    last_error = ""
    while True:
        try:
            message = conn.recv_bytes()
        except (EOFError, OSError):
            break
        opcode, payload = message[:1], message[1:]
        if opcode == OP_INGEST:
            try:
                _, frames = unpack_report_batch(payload)
                reports = [Report.from_bytes(frame) for frame in frames]
                server.ingest(reports)
                batches += 1
            except (SerializationError, ProtocolUsageError, ValueError, TypeError) as exc:
                errors += 1
                last_error = str(exc)
        elif opcode == OP_CLOSE:
            conn.send_bytes(OP_CLOSE + server.to_bytes())
            server = protocol.server()
        elif opcode == OP_STATS:
            document = {
                "pid": os.getpid(),
                "epoch_reports": server.n_reports,
                "batches": batches,
                "errors": errors,
                "last_error": last_error,
                "kernel_backend": getattr(server, "kernel_backend", "numpy"),
            }
            conn.send_bytes(OP_STATS + json.dumps(document).encode("utf-8"))
        elif opcode == OP_QUIT:
            conn.send_bytes(OP_QUIT)
            break
        else:
            errors += 1
            last_error = f"unknown opcode {opcode!r}"
    conn.close()


class ShardWorker:
    """Async handle on one worker process.

    All pipe traffic for one worker is serialized through its
    ``asyncio.Lock`` (the pipe is a FIFO shared by every request handler),
    and the blocking ``send_bytes`` / ``recv_bytes`` calls run on the
    event loop's default executor so the gateway never stalls.
    """

    def __init__(self, index: int, process, conn: Connection) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.lock = asyncio.Lock()
        #: Requests queued on this worker's pipe right now (backpressure).
        self.pending = 0
        #: Set when a pipe operation hit a dead end -- the process may
        #: still technically run, but the shard is unreachable.
        self.failed = False
        self.spawned_at = time.monotonic()

    @property
    def alive(self) -> bool:
        if self.failed:
            return False
        try:
            return self.process.is_alive()
        except ValueError:  # pragma: no cover - process already close()'d
            return False

    async def _send(self, payload: bytes) -> None:
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.conn.send_bytes, payload)

    async def _recv(self) -> bytes:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self.conn.recv_bytes)

    def _crashed(self, during: str, exc: Exception) -> WorkerCrashError:
        self.failed = True
        return WorkerCrashError(
            self.index, f"worker {self.index} died during {during}: {exc!r}"
        )

    async def ingest(self, batch_blob: bytes) -> None:
        """Forward one framed report batch (fire-and-forget).

        The pipe is a FIFO, so a later :meth:`close_epoch` is guaranteed
        to observe every batch sent before it.  A dead pipe raises
        :class:`WorkerCrashError` and marks the worker failed.
        """
        self.pending += 1
        try:
            async with self.lock:
                try:
                    await self._send(OP_INGEST + batch_blob)
                except (BrokenPipeError, EOFError, OSError) as exc:
                    raise self._crashed("ingest", exc) from exc
        finally:
            self.pending -= 1

    async def close_epoch(self) -> bytes:
        """Drain the worker's current epoch: its packed accumulator state."""
        async with self.lock:
            try:
                await self._send(OP_CLOSE)
                reply = await self._recv()
            except (BrokenPipeError, EOFError, OSError) as exc:
                raise self._crashed("close", exc) from exc
        if reply[:1] != OP_CLOSE:
            raise RuntimeError(
                f"worker {self.index} replied {reply[:1]!r} to a close"
            )
        return reply[1:]

    async def stats(self) -> dict:
        async with self.lock:
            try:
                await self._send(OP_STATS)
                reply = await self._recv()
            except (BrokenPipeError, EOFError, OSError) as exc:
                raise self._crashed("stats", exc) from exc
        if reply[:1] != OP_STATS:
            raise RuntimeError(
                f"worker {self.index} replied {reply[:1]!r} to a stats probe"
            )
        return json.loads(reply[1:].decode("utf-8"))

    async def quit(self) -> None:
        """Ask the worker to exit and wait for its acknowledgement."""
        async with self.lock:
            await self._send(OP_QUIT)
            await self._recv()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.reap)

    def terminate(self) -> None:
        """Hard-kill the worker (crash simulation / last-resort cleanup)."""
        try:
            if self.process.is_alive():
                self.process.terminate()
        except ValueError:  # pragma: no cover - process already close()'d
            pass
        self.reap()

    def reap(self) -> None:
        """Join the child, close the pipe, release the process object.

        Safe to call repeatedly and on never-started corpses; after this
        the OS holds no zombie entry for the worker and the parent holds
        no descriptors to it.
        """
        try:
            self.process.join(timeout=5)
            if self.process.is_alive():  # pragma: no cover - last resort
                self.process.kill()
                self.process.join(timeout=5)
        except ValueError:
            pass  # already closed
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        try:
            self.process.close()
        except ValueError:  # pragma: no cover - still running (kill failed)
            pass


class WorkerPool:
    """``N`` supervised shard workers plus the fan-out/repair policy.

    One pool serves one protocol configuration (the workers are built
    from its registry spec).  ``start()`` is synchronous -- workers spawn
    before the gateway accepts traffic -- and every other operation is a
    coroutine safe to call from any number of concurrent handlers.

    Supervision contract: routing (:meth:`pick_worker`) skips dead and
    saturated workers; :meth:`ensure_alive` reaps and respawns dead
    workers under bounded exponential backoff (``force=True`` skips the
    backoff -- epoch close cannot wait); the caller re-ingests whatever
    the dead shard held, because a replacement always starts empty.
    """

    def __init__(
        self,
        spec: dict,
        num_workers: int = 2,
        start_method: str = "spawn",
        max_inflight: int = 64,
        restart_backoff_s: float = 0.1,
        restart_backoff_max_s: float = 5.0,
    ) -> None:
        if int(num_workers) < 1:
            raise ValueError(f"need at least 1 worker, got {num_workers}")
        if int(max_inflight) < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self._spec = dict(spec)
        self._num_workers = int(num_workers)
        self._start_method = start_method
        self._max_inflight = int(max_inflight)
        self._backoff_base = float(restart_backoff_s)
        self._backoff_max = float(restart_backoff_max_s)
        self._workers: List[ShardWorker] = []
        self._next = 0
        self._restart_count = 0
        self._restart_streak: Dict[int, int] = {}
        self._backoff_until: Dict[int, float] = {}

    def __len__(self) -> int:
        return self._num_workers

    @property
    def workers(self) -> List[ShardWorker]:
        return list(self._workers)

    @property
    def alive_count(self) -> int:
        return sum(1 for worker in self._workers if worker.alive)

    @property
    def restart_count(self) -> int:
        """Total worker respawns over the pool's lifetime."""
        return self._restart_count

    @property
    def max_inflight(self) -> int:
        return self._max_inflight

    def _spawn(self, index: int) -> ShardWorker:
        context = multiprocessing.get_context(self._start_method)
        parent_conn, child_conn = context.Pipe(duplex=True)
        process = context.Process(
            target=shard_worker_main,
            args=(child_conn, self._spec),
            name=f"repro-shard-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return ShardWorker(index, process, parent_conn)

    def start(self) -> "WorkerPool":
        """Spawn the worker processes (idempotent)."""
        if self._workers:
            return self
        self._workers = [self._spawn(index) for index in range(self._num_workers)]
        return self

    def _require_started(self) -> None:
        if not self._workers:
            raise RuntimeError("worker pool is not started")

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def pick_worker(self) -> int:
        """The next worker a batch should land on (round-robin).

        Skips dead workers (they are being respawned) and saturated
        workers (their in-flight queue is at ``max_inflight``).  Raises
        :class:`NoAliveWorkersError` when every worker is dead and
        :class:`PoolSaturatedError` when every alive worker is full --
        the gateway maps the latter onto ``429 Retry-After``.
        """
        self._require_started()
        n = len(self._workers)
        saw_alive = False
        for step in range(n):
            index = (self._next + step) % n
            worker = self._workers[index]
            if not worker.alive:
                continue
            saw_alive = True
            if worker.pending >= self._max_inflight:
                continue
            self._next = (index + 1) % n
            return index
        if saw_alive:
            raise PoolSaturatedError(
                f"all alive workers hold >= {self._max_inflight} in-flight batches"
            )
        raise NoAliveWorkersError("every shard worker is dead")

    async def ingest_on(self, index: int, batch_blob: bytes) -> int:
        """Forward one framed batch to a specific worker.

        Raises :class:`WorkerCrashError` (and marks the worker failed)
        when the pipe is dead -- with a WAL the gateway can still
        acknowledge the batch, because the respawn replay will re-ingest
        it from the log.
        """
        self._require_started()
        worker = self._workers[int(index) % len(self._workers)]
        await worker.ingest(batch_blob)
        return worker.index

    async def ingest(self, batch_blob: bytes) -> int:
        """Forward one framed batch to the next alive worker.

        Returns the worker index the batch landed on.
        """
        return await self.ingest_on(self.pick_worker(), batch_blob)

    # ------------------------------------------------------------------ #
    # supervision
    # ------------------------------------------------------------------ #
    def dead_indices(self) -> List[int]:
        return [worker.index for worker in self._workers if not worker.alive]

    def respawn(self, index: int) -> ShardWorker:
        """Reap a dead worker and start its replacement (empty shard)."""
        self._require_started()
        index = int(index) % len(self._workers)
        old = self._workers[index]
        old.failed = True
        old.terminate()
        replacement = self._spawn(index)
        self._workers[index] = replacement
        self._restart_count += 1
        streak = self._restart_streak.get(index, 0) + 1
        self._restart_streak[index] = streak
        delay = min(self._backoff_max, self._backoff_base * (2 ** (streak - 1)))
        self._backoff_until[index] = time.monotonic() + delay
        return replacement

    async def ensure_alive(self, force: bool = False) -> List[int]:
        """Respawn every dead worker whose backoff window has elapsed.

        ``force=True`` ignores the backoff (used on epoch close, which
        must not wait).  Returns the indices respawned *this call* so the
        owner can replay their lost batches.
        """
        self._require_started()
        now = time.monotonic()
        respawned = []
        for index in self.dead_indices():
            if not force and now < self._backoff_until.get(index, 0.0):
                continue
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self.respawn, index)
            respawned.append(index)
        return respawned

    def note_epoch_closed(self) -> None:
        """Reset restart backoff streaks: surviving an epoch is health."""
        self._restart_streak = {}
        self._backoff_until = {}

    # ------------------------------------------------------------------ #
    # epoch close / stats / shutdown
    # ------------------------------------------------------------------ #
    async def close_workers(
        self, indices: Sequence[int]
    ) -> Tuple[Dict[int, bytes], Dict[int, Exception]]:
        """Drain specific workers; return ``(states, failures)`` by index.

        A worker that dies mid-close lands in ``failures`` (marked
        failed); the caller respawns it, replays its batches, and
        retries -- its accumulated state is unrecoverable, but with a WAL
        its *inputs* are not.
        """
        self._require_started()
        indices = [int(index) % len(self._workers) for index in indices]
        results = await asyncio.gather(
            *(self._workers[index].close_epoch() for index in indices),
            return_exceptions=True,
        )
        states: Dict[int, bytes] = {}
        failures: Dict[int, Exception] = {}
        for index, result in zip(indices, results):
            if isinstance(result, BaseException):
                self._workers[index].failed = True
                failures[index] = result
            else:
                states[index] = result
        return states, failures

    async def close_epoch(self) -> List[bytes]:
        """Drain every worker's epoch; one packed shard state each.

        The simple all-healthy path: any worker failure raises.  The
        gateway uses :meth:`close_workers` instead so it can repair and
        retry per shard.
        """
        self._require_started()
        states, failures = await self.close_workers(range(len(self._workers)))
        if failures:
            raise next(iter(failures.values()))
        return [states[index] for index in range(len(self._workers))]

    async def stats(self) -> List[dict]:
        self._require_started()
        documents = await asyncio.gather(
            *(
                worker.stats() if worker.alive else _dead_stats(worker)
                for worker in self._workers
            ),
            return_exceptions=True,
        )
        results: List[dict] = []
        for worker, document in zip(self._workers, documents):
            if isinstance(document, BaseException):
                results.append(
                    {"worker": worker.index, "alive": worker.alive, "error": str(document)}
                )
            else:
                results.append(
                    {
                        "worker": worker.index,
                        "alive": worker.alive,
                        "pending": worker.pending,
                        **document,
                    }
                )
        return results

    async def shutdown(self, graceful: bool = True) -> None:
        """Stop and reap every worker; graceful quit first, then force.

        After shutdown no child process object is retained and every
        exited child has been joined -- repeated pool lifecycles in one
        parent never accumulate zombies.
        """
        workers, self._workers = self._workers, []
        if graceful:
            results = await asyncio.gather(
                *(worker.quit() for worker in workers if worker.alive),
                return_exceptions=True,
            )
            del results  # best effort; terminate below covers stragglers
        loop = asyncio.get_running_loop()
        for worker in workers:
            await loop.run_in_executor(None, worker.terminate)


async def _dead_stats(worker: ShardWorker) -> dict:
    return {"error": "worker is dead", "epoch_reports": 0}


def ingest_batches_single_process(
    spec: dict, batch_blobs, postprocess: Optional[str] = None
):
    """Reference single-process ingestion of framed batches.

    Decodes and ingests every report of every batch into one fresh
    server and returns it -- the ground truth the sharded service must
    match bit-for-bit.  Used by tests and the service benchmark.
    """
    if postprocess is not None:
        spec = {**spec, "postprocess": postprocess}
    protocol = protocol_from_spec(spec)
    server = protocol.server()
    for blob in batch_blobs:
        _, frames = unpack_report_batch(blob)
        server.ingest([Report.from_bytes(frame) for frame in frames])
    return server


__all__ = [
    "NoAliveWorkersError",
    "OP_CLOSE",
    "OP_INGEST",
    "OP_QUIT",
    "OP_STATS",
    "PoolSaturatedError",
    "ShardWorker",
    "WorkerCrashError",
    "WorkerPool",
    "ingest_batches_single_process",
    "shard_worker_main",
]
