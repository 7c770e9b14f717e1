"""The load generator's HTTP side: timed keep-alive requests.

Every request carries an ``X-Request-Id`` header, so a traced gateway
can tie its spans to the client request that caused them, and every
completed request is kept as a :class:`Call` with its four timestamps
(``perf_counter_ns``, which is ``CLOCK_MONOTONIC`` and so comparable
across the processes of one host).
"""

from __future__ import annotations

import http.client
import itertools
import threading
import time
from dataclasses import dataclass
from typing import List, Optional

#: Transport failures a request may end in (counted, never raised).
TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


@dataclass
class Call:
    """One request as the client saw it."""

    rid: int
    kind: str
    status: int
    start: int
    sent: int
    head: int
    end: int
    body: bytes = b""

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency_ms(self) -> float:
        return (self.end - self.start) / 1e6


class CallLog:
    """Thread-safe request ids plus the record of every call."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.calls: List[Call] = []

    def next_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def add(self, call: Call) -> None:
        with self._lock:
            self.calls.append(call)

    def of_kind(self, kind: str) -> List[Call]:
        return [call for call in self.calls if call.kind == kind]


class Connection:
    """One keep-alive connection, confined to one thread."""

    def __init__(self, port: int, log: CallLog, timeout: float = 60.0) -> None:
        self._port = port
        self._log = log
        self._timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(self, kind: str, method: str, path: str, body: bytes = b"",
                headers: Optional[dict] = None, keep_body: bool = False) -> Call:
        rid = self._log.next_id()
        request_headers = {"X-Request-Id": str(rid), **(headers or {})}
        start = time.perf_counter_ns()
        sent = head = start
        status, payload = -1, b""
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    "127.0.0.1", self._port, timeout=self._timeout
                )
            self._conn.request(method, path, body=body or None,
                               headers=request_headers)
            sent = time.perf_counter_ns()
            response = self._conn.getresponse()
            head = time.perf_counter_ns()
            payload = response.read()
            status = response.status
        except TRANSPORT_ERRORS:
            self.close()
        end = time.perf_counter_ns()
        call = Call(
            rid, kind, status, start, sent, head, end,
            payload if keep_body or status != 200 else b"",
        )
        self._log.add(call)
        return call

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

