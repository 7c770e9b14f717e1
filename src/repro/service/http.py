"""Minimal asyncio HTTP/1.1 handling for the ingest gateway.

The aggregation service speaks plain HTTP so that any client -- ``curl``,
a load generator, a fleet of devices -- can post report batches without a
client library, but the repository takes no new dependencies: this module
is the ~150 lines of stdlib-only request parsing and response rendering
the gateway actually needs.

Scope (deliberately small):

* HTTP/1.1 with keep-alive (and HTTP/1.0 with ``Connection: keep-alive``);
* ``Content-Length`` bodies only -- chunked transfer encoding is refused
  with ``501`` rather than half-implemented;
* hard limits on header block and body size, surfaced as proper 4xx
  responses instead of unbounded buffering.

Handlers raise :class:`HttpError` to short-circuit into an error
response; anything else is a ``500``.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Optional
from urllib.parse import parse_qsl, urlsplit

#: Upper bound on the request line + header block, in bytes.
MAX_HEADER_BYTES = 64 * 1024

#: Upper bound on a request body (one framed report batch), in bytes.
MAX_BODY_BYTES = 128 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request failure that maps onto one HTTP error response.

    ``headers`` lets a handler attach response headers to the error --
    the gateway uses it for ``Retry-After`` on 429/503 so well-behaved
    clients know how long to back off.
    """

    def __init__(
        self, status: int, message: str, headers: Optional[Dict[str, str]] = None
    ) -> None:
        super().__init__(message)
        self.status = int(status)
        self.message = str(message)
        self.headers = dict(headers or {})


@dataclass
class HttpRequest:
    """One parsed request: method, split target, headers, raw body."""

    method: str
    target: str
    path: str
    params: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    keep_alive: bool = True


async def read_request(reader: asyncio.StreamReader) -> Optional[HttpRequest]:
    """Read and parse one request; ``None`` on a clean EOF between requests.

    The caller must create the stream with ``limit`` >=
    :data:`MAX_HEADER_BYTES` (an overrun surfaces as a 431
    :class:`HttpError`); bodies are bounded by :data:`MAX_BODY_BYTES`
    (413).
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise HttpError(
            431, f"request head exceeds {MAX_HEADER_BYTES} bytes"
        ) from exc

    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line {lines[0]!r}")
    method, target, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise HttpError(400, f"unsupported protocol version {version!r}")

    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, separator, value = line.partition(":")
        if not separator:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HttpError(501, "chunked transfer encoding is not supported")

    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError as exc:
        raise HttpError(400, f"malformed Content-Length {length_text!r}") from exc
    if length < 0:
        raise HttpError(400, f"negative Content-Length {length}")
    if length > MAX_BODY_BYTES:
        raise HttpError(
            413, f"body of {length} bytes exceeds the {MAX_BODY_BYTES} limit"
        )
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise HttpError(
                400,
                f"truncated body: Content-Length {length} but only "
                f"{len(exc.partial)} bytes arrived",
            ) from exc

    split = urlsplit(target)
    params = dict(parse_qsl(split.query, keep_blank_values=True))
    connection = headers.get("connection", "").lower()
    if version == "HTTP/1.1":
        keep_alive = connection != "close"
    else:
        keep_alive = connection == "keep-alive"
    return HttpRequest(
        method=method.upper(),
        target=target,
        path=split.path or "/",
        params=params,
        headers=headers,
        body=body,
        keep_alive=keep_alive,
    )


def render_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """Serialize one complete HTTP/1.1 response."""
    reason = _REASONS.get(status, "Unknown")
    extras = "".join(
        f"{name}: {value}\r\n" for name, value in (extra_headers or {}).items()
    )
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"{extras}"
        "\r\n"
    )
    return head.encode("latin-1") + body


def json_response(
    status: int,
    payload: dict,
    keep_alive: bool = True,
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """Render a JSON document as a complete response.

    Compact separators keep ``json`` on its C encoder (``indent=`` falls
    back to the pure-Python one, about twice as slow on a query answer).
    """
    body = (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")
    return render_response(
        status, body, keep_alive=keep_alive, extra_headers=extra_headers
    )


def error_response(
    status: int,
    message: str,
    keep_alive: bool = False,
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """The uniform JSON error body every failure path uses."""
    return json_response(
        status,
        {"error": message, "status": status},
        keep_alive=keep_alive,
        extra_headers=extra_headers,
    )
