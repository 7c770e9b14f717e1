"""Gateway process lifecycle, ``/proc`` probes and run hygiene.

Each boot gets a fresh directory holding its own store and WAL, runs the
gateway in its own process with 2 shard workers, and is torn down by
:meth:`Gateway.close`, which kills the gateway, waits until every shard
worker has exited and deletes the directory.  The benchmark process
makes itself a child subreaper, so workers orphaned by the gateway's
death are re-parented to it and reaped here rather than left behind.
"""

from __future__ import annotations

import ctypes
import http.client
import json
import os
import shutil
import signal
import time
from typing import List, Optional

from repro.service import ServiceProcess

#: Shard workers per gateway (the benchmark host has 2 cores).
NUM_WORKERS = 2

_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt orphaned descendants so they can be reaped (Linux only)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # pragma: no cover - non-Linux
        pass


def child_pids(pid: Optional[int] = None) -> List[int]:
    """Live direct children of ``pid`` (default: this process)."""
    pid = os.getpid() if pid is None else pid
    children: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return children
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                children.extend(int(text) for text in handle.read().split())
        except OSError:
            continue
    return sorted(set(children))


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


def _exited(pid: int) -> bool:
    """Reap ``pid`` if it is a dead child of ours; whether it has ended."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        pass
    return not _running(pid)


def wait_exited(pids, timeout: float = 30.0) -> None:
    """Wait for ``pids`` to exit, reaping adopted ones; SIGKILL stragglers."""
    pending = set(pids)
    for grace in (timeout, 5.0):
        deadline = time.monotonic() + grace
        while pending and time.monotonic() < deadline:
            pending = {pid for pid in pending if not _exited(pid)}
            time.sleep(0.01)
        for pid in pending:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def peak_rss_mb(pids) -> float:
    """Sum of each process's peak resident set (``VmHWM``), in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def tree_bytes(*directories: str) -> int:
    total = 0
    for directory in directories:
        for parent, _, files in os.walk(directory):
            for name in files:
                try:
                    total += os.path.getsize(os.path.join(parent, name))
                except OSError:
                    continue
    return total


def get_json(port: int, path: str, timeout: float = 60.0):
    """One blocking GET; returns ``(status, document)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class Gateway:
    """One gateway process over its own fresh store and WAL directory.

    ``launcher`` builds the process handle: :class:`ServiceProcess`, or
    the benchmark's traced entry point.
    """

    def __init__(self, spec: dict, directory: str, store_template: str,
                 launcher) -> None:
        self.spec = spec
        self.directory = directory
        self.store_dir = os.path.join(directory, "store")
        self.wal_dir = os.path.join(directory, "wal")
        self._launcher = launcher
        self.process = None
        self.worker_pids: List[int] = []
        os.makedirs(directory)
        if store_template:
            shutil.copytree(store_template, self.store_dir)

    @property
    def port(self) -> int:
        return self.process.port

    def boot(self) -> float:
        """Start the gateway; seconds from process start to ``/healthz`` 200."""
        started = time.perf_counter()
        self.process = self._launcher(
            self.spec,
            store_dir=self.store_dir,
            wal_dir=self.wal_dir,
            num_workers=NUM_WORKERS,
        ).start()
        while True:
            try:
                status, _ = get_json(self.port, "/healthz", timeout=10.0)
            except OSError:
                status = -1
            if status == 200:
                break
            if time.perf_counter() - started > 60.0:
                raise RuntimeError("gateway did not become healthy within 60 s")
            time.sleep(0.001)
        elapsed = time.perf_counter() - started
        # Untimed warm-up: a /stats round trip reaches every worker, so
        # the run never times a worker's first import.
        _, stats = get_json(self.port, "/stats")
        self.worker_pids = [int(worker["pid"]) for worker in stats["workers"]]
        return elapsed

    def stats(self) -> dict:
        status, document = get_json(self.port, "/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return document

    def pids(self) -> List[int]:
        return [self.process.pid, *self.worker_pids]

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.pids())

    def disk_mb(self) -> float:
        return tree_bytes(self.store_dir, self.wal_dir) / 1e6

    def stop(self) -> None:
        """Kill the gateway and wait until each of its workers has exited."""
        descendants = set(self.worker_pids)
        if self.process is not None:
            # Workers plus the gateway's multiprocessing resource tracker.
            descendants.update(child_pids(self.process.pid))
            self.process.kill()
            self.process = None
        # Orphans read EOF on their pipes, exit, and are re-parented here.
        wait_exited(descendants)

    def close(self) -> None:
        """:meth:`stop`, then delete the directory."""
        try:
            self.stop()
        finally:
            shutil.rmtree(self.directory, ignore_errors=True)
