"""Deterministic fault injection for the aggregation service.

Robustness claims are only as good as the faults they were tested
against, so this module packages the faults themselves as reusable,
*deterministic* primitives -- the chaos tests in ``tests/test_service.py``
and the CI chaos-smoke job drive the same code:

* :func:`kill_worker` -- SIGKILL one shard worker process mid-ingest;
* :func:`chaos_stream` -- perturb a batch delivery schedule (drop first
  attempts, duplicate deliveries, reorder within a window) from a seed;
* :func:`truncate_wal_tail` -- chop bytes off a WAL segment, simulating
  a torn write at the moment of a crash;
* :class:`ServiceProcess` -- run a gateway in a real child process so a
  test can SIGKILL the *gateway itself* between an ``/ingest`` ack and
  the epoch close, then restart from its WAL and epoch store.

Every fault is recoverable by design, so each primitive pairs with an
exactness assertion: after injection + recovery, query answers must be
bit-identical to a no-fault single-process run over the same batches.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
from typing import Iterable, List, Optional, Sequence, Tuple


def _resolve_pool(target):
    """Accept a ``WorkerPool``, ``AggregationService`` or ``ServiceThread``."""
    target = getattr(target, "service", target)
    return getattr(target, "pool", target)


def kill_worker(target, index: int, wait: bool = True) -> int:
    """SIGKILL one shard worker process; returns the dead worker's pid.

    ``target`` may be a :class:`~repro.service.workers.WorkerPool`, an
    :class:`~repro.service.gateway.AggregationService`, or a
    :class:`~repro.service.gateway.ServiceThread`.  With ``wait`` the
    call blocks until the OS has reaped the process, so a subsequent
    ingest deterministically observes the dead pipe.
    """
    pool = _resolve_pool(target)
    worker = pool.workers[int(index) % len(pool)]
    pid = worker.process.pid
    os.kill(pid, signal.SIGKILL)
    if wait:
        worker.process.join(timeout=10)
    return pid


def truncate_wal_tail(path: str, nbytes: int) -> int:
    """Chop ``nbytes`` off the end of a WAL segment (a torn final write).

    Returns the new file size.  A torn record was by definition never
    acknowledged (the gateway acks only after a flushed append), so
    recovery must drop it silently, keep every record before it, and cut
    the segment at the tear so appends after the restart stay readable.
    """
    size = os.path.getsize(path)
    keep = max(0, size - int(nbytes))
    with open(path, "rb+") as handle:
        handle.truncate(keep)
    return keep


def chaos_stream(
    blobs: Sequence[bytes],
    seed: int = 0,
    drop: float = 0.1,
    duplicate: float = 0.1,
    reorder_window: int = 4,
) -> List[Tuple[int, bytes]]:
    """A perturbed delivery schedule of ``(batch_index, blob)`` pairs.

    Models a flaky network feeding a well-behaved retrying client:

    * with probability ``drop`` a batch's first attempt is lost and the
      client retries it at the end of the run (so every batch is still
      delivered at least once);
    * with probability ``duplicate`` a delivered batch is sent again
      immediately (an ack lost on the way back -- the client retried);
    * deliveries are shuffled within windows of ``reorder_window``.

    The schedule is a pure function of ``seed``.  Send each delivery
    under the idempotency key ``chaos:{batch_index}`` and the service
    must produce answers bit-identical to ingesting ``blobs`` once each:
    duplicates are deduplicated, order never mattered (merge is
    commutative), and dropped-then-retried batches arrive late but
    arrive.
    """
    rng = random.Random(seed)
    schedule: List[Tuple[int, bytes]] = []
    retried: List[Tuple[int, bytes]] = []
    for index, blob in enumerate(blobs):
        if rng.random() < drop:
            retried.append((index, blob))
            continue
        schedule.append((index, blob))
        if rng.random() < duplicate:
            schedule.append((index, blob))
    schedule.extend(retried)
    if reorder_window > 1:
        for start in range(0, len(schedule), reorder_window):
            window = schedule[start : start + reorder_window]
            rng.shuffle(window)
            schedule[start : start + len(window)] = window
    return schedule


def _service_process_main(spec, options, conn) -> None:
    """Child entry point: boot a gateway, report its port, serve forever."""
    import asyncio

    from repro.service.gateway import AggregationService

    async def main() -> None:
        try:
            service = AggregationService(spec, **options)
            await service.start()
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
            return
        conn.send(("ready", service.port))
        await service.serve_forever()

    asyncio.run(main())


class ServiceProcess:
    """A gateway running in a real child process, killable mid-epoch.

    :class:`~repro.service.gateway.ServiceThread` cannot model gateway
    death -- threads cannot be SIGKILLed.  This harness runs the whole
    service (gateway + its shard workers) in a spawned child so a test
    can yank the process between an ``/ingest`` acknowledgement and the
    epoch close, then start a fresh service over the same ``wal_dir``
    and ``store_dir`` and assert nothing acknowledged was lost.  Shard
    workers of a killed gateway exit on their own: their pipe to the
    gateway reads EOF.

    Use as a context manager; ``kill()`` leaves the context cleanly::

        with ServiceProcess(spec, store_dir=..., wal_dir=...) as svc:
            request_json(svc.url + "/ingest", method="POST", body=blob)
            svc.kill()  # SIGKILL mid-epoch
    """

    def __init__(
        self,
        spec: dict,
        *,
        boot_timeout: float = 60.0,
        **options,
    ) -> None:
        self.spec = spec
        self.options = dict(options)
        self.boot_timeout = float(boot_timeout)
        self.port: Optional[int] = None
        self._process: Optional[multiprocessing.process.BaseProcess] = None

    @property
    def url(self) -> str:
        if self.port is None:
            raise RuntimeError("service process is not started")
        return f"http://127.0.0.1:{self.port}"

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid if self._process is not None else None

    def start(self) -> "ServiceProcess":
        if self._process is not None:
            raise RuntimeError("service process already started")
        context = multiprocessing.get_context("spawn")
        parent_conn, child_conn = context.Pipe(duplex=False)
        self._process = context.Process(
            target=_service_process_main,
            args=(self.spec, self.options, child_conn),
            name="repro-service-process",
        )
        self._process.start()
        child_conn.close()
        if not parent_conn.poll(self.boot_timeout):
            self.kill()
            raise RuntimeError(
                f"service process did not boot within {self.boot_timeout}s"
            )
        status, detail = parent_conn.recv()
        parent_conn.close()
        if status != "ready":
            self.kill()
            raise RuntimeError(f"service process failed to boot: {detail}")
        self.port = int(detail)
        return self

    def kill(self) -> None:
        """SIGKILL the gateway process (simulated crash) and reap it."""
        process = self._process
        if process is None:
            return
        if process.is_alive():
            process.kill()
        process.join(timeout=30)
        process.close()
        self._process = None
        self.port = None

    def __enter__(self) -> "ServiceProcess":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.kill()


def delivered_indices(schedule: Iterable[Tuple[int, bytes]]) -> List[int]:
    """The distinct batch indices a chaos schedule delivers, sorted."""
    return sorted({index for index, _ in schedule})


__all__ = [
    "ServiceProcess",
    "chaos_stream",
    "delivered_indices",
    "kill_worker",
    "truncate_wal_tail",
]
