"""Durable ingest write-ahead log for the aggregation gateway.

The service's exactly-once story has a hole without this module: the
gateway acknowledges ``POST /ingest`` as soon as a batch is queued on a
shard worker's pipe, but pipes are memory -- a crashed worker or a
killed gateway silently drops every batch acknowledged since the last
epoch close, skewing estimates the estimators then treat as unbiased.

:class:`IngestWAL` closes the hole with a per-epoch, segmented,
append-only log that holds only the epoch in flight:

* the gateway appends each accepted batch (with its idempotency key and
  shard assignment) to the *open* segment of the current epoch **before**
  acknowledging the client;
* ``POST /close`` merges the epoch's shard states into the engine, seals
  the epoch into the epoch store -- the only place a closed epoch lives,
  which is why a WAL needs a store -- and then discards the segment;
* on restart, :meth:`IngestWAL.scan` recovers the intact prefix of every
  surviving segment (CRC-protected records, torn tails dropped -- a torn
  record was never acknowledged) so the gateway can replay the open
  epoch into fresh workers, deduplicating by idempotency key.  A
  segment it cannot decode refuses the start instead of being skipped:
  skipping it would drop acknowledged reports without a trace.

Durability model: records are flushed to the OS on every append, which
survives any *process* death (worker crash, gateway SIGKILL).  Pass
``sync=True`` to also ``fsync`` each append and survive machine power
loss, at a large throughput cost (measured in
``benchmarks/bench_service.py``).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.serialization import (
    SerializationError,
    pack_wal_record,
    pack_wal_segment_header,
    scan_wal_segment,
)

#: Suffix of a segment still accepting appends (its epoch is in flight).
OPEN_SUFFIX = ".open"

_SEGMENT_RE = re.compile(r"^epoch-(\d+)\.open$")


@dataclass
class SegmentScan:
    """One recovered WAL segment: its records and tail diagnosis."""

    epoch: int
    path: str
    records: List[Tuple[dict, bytes]] = field(default_factory=list)
    #: Byte offset of the first torn/corrupt record, ``None`` when clean.
    torn_offset: Optional[int] = None

    @property
    def n_reports(self) -> int:
        return sum(int(meta.get("n_users", 0)) for meta, _ in self.records)


class IngestWAL:
    """Per-epoch segmented append-only log of accepted ingest batches."""

    def __init__(self, directory: str, sync: bool = False) -> None:
        self.directory = str(directory)
        self.sync = bool(sync)
        os.makedirs(self.directory, exist_ok=True)
        self._handles: Dict[int, object] = {}
        self.records_appended = 0
        self.bytes_appended = 0

    # ------------------------------------------------------------------ #
    # paths
    # ------------------------------------------------------------------ #
    def segment_path(self, epoch: int) -> str:
        return os.path.join(self.directory, f"epoch-{int(epoch):08d}{OPEN_SUFFIX}")

    # ------------------------------------------------------------------ #
    # append path
    # ------------------------------------------------------------------ #
    def _handle(self, epoch: int):
        handle = self._handles.get(epoch)
        if handle is None:
            handle = open(self.segment_path(epoch), "ab")
            # A new segment, or a zero-byte one that a crash left between
            # the open and the header write: no record reads without it.
            if handle.tell() == 0:
                handle.write(pack_wal_segment_header(epoch))
                handle.flush()
            self._handles[epoch] = handle
        return handle

    def append(self, epoch: int, blob: bytes, *, key: str, worker: int,
               n_users: int = 0) -> None:
        """Append one accepted batch; returns only once it is flushed.

        The caller acknowledges the client *after* this returns, so every
        acknowledged batch is recoverable by :meth:`scan`.
        """
        meta = {
            "key": str(key),
            "worker": int(worker),
            "n_users": int(n_users),
        }
        record = pack_wal_record(meta, blob)
        handle = self._handle(int(epoch))
        handle.write(record)
        handle.flush()
        if self.sync:
            os.fsync(handle.fileno())
        self.records_appended += 1
        self.bytes_appended += len(record)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def discard(self, epoch: int) -> None:
        """Delete an epoch's segment: the epoch store holds the epoch."""
        epoch = int(epoch)
        handle = self._handles.pop(epoch, None)
        if handle is not None:
            handle.close()
        path = self.segment_path(epoch)
        if os.path.exists(path):
            os.remove(path)

    def close(self) -> None:
        """Close every open file handle (the segments stay on disk)."""
        for handle in self._handles.values():
            try:
                handle.flush()
                handle.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self._handles = {}

    # ------------------------------------------------------------------ #
    # recovery
    # ------------------------------------------------------------------ #
    def _scan_segment(self, epoch: int) -> SegmentScan:
        path = self.segment_path(epoch)
        with open(path, "rb") as handle:
            data = handle.read()
        if not data:
            # The header is flushed before any record: nothing was acked.
            return SegmentScan(epoch=epoch, path=path)
        try:
            _, records, torn = scan_wal_segment(data)
        except SerializationError as exc:
            raise SerializationError(
                f"WAL segment {path} is unreadable ({exc}); the reports "
                "acknowledged into it cannot be recovered.  Move the file "
                "aside to start without them."
            ) from exc
        return SegmentScan(epoch=epoch, path=path, records=records, torn_offset=torn)

    def scan(self) -> List[SegmentScan]:
        """Recover every open segment on disk, oldest epoch first.

        Raises :class:`SerializationError` naming the file for a segment
        that cannot be decoded, and for a ``.closed`` segment: only a
        storeless service of an earlier version wrote those, and no epoch
        store holds their epochs.
        """
        names = sorted(os.listdir(self.directory))
        for name in names:
            if name.startswith("epoch-") and name.endswith(".closed"):
                raise SerializationError(
                    f"WAL segment {os.path.join(self.directory, name)} holds a "
                    "closed epoch that no epoch store holds.  Fold it into a "
                    "store with the previous version first (serve --store-dir "
                    "over the same --wal-dir), or move the file aside."
                )
        epochs = sorted(
            int(match.group(1)) for match in map(_SEGMENT_RE.match, names) if match
        )
        return [self._scan_segment(epoch) for epoch in epochs]

    def read_epoch(self, epoch: int) -> List[Tuple[dict, bytes]]:
        """The intact records of one epoch's open segment (for replay).

        Flushes the live handle first so a scan observes every append the
        gateway has acknowledged.
        """
        epoch = int(epoch)
        handle = self._handles.get(epoch)
        if handle is not None:
            handle.flush()
        if not os.path.exists(self.segment_path(epoch)):
            return []
        return self._scan_segment(epoch).records

    def stats(self) -> dict:
        return {
            "directory": self.directory,
            "sync": self.sync,
            "records_appended": self.records_appended,
            "bytes_appended": self.bytes_appended,
            "open_segments": sum(
                1 for name in os.listdir(self.directory) if _SEGMENT_RE.match(name)
            ),
        }


__all__ = [
    "IngestWAL",
    "OPEN_SUFFIX",
    "SegmentScan",
]
