"""Binary wire formats for reports, states, batches, the WAL and the store.

Sharded aggregation only works if the intermediate objects -- the reports
clients upload and the sufficient-statistics accumulators servers keep --
can cross process and machine boundaries.  All four byte formats here
(``REPROACC``, ``REPROBAT``, ``REPROWAL`` and ``REPROSEG``) are one
*framed container*::

    MAGIC | <u64 header length> | <JSON header> | body [| <u32 CRC32>]

:func:`_write_frame` is the one writer of that prefix and
:func:`_read_frame` the one reader; each format adds only its body layout
and the checks on its own header fields.  The "Byte formats" table in
``ARCHITECTURE.md`` lists every format's magic, kind tag, body, CRC,
torn-tail policy, reader and writer.

JSON headers carry small metadata (Python's ``json`` keeps integers exact
at arbitrary precision, which the exact accumulators rely on); bulk
numeric payloads are standard ``.npy`` blocks or raw little-endian int64
vectors, so decoding never needs pickle and the formats are stable across
Python/numpy versions.

Malformed input of any kind -- wrong magic, truncation, garbage JSON,
corrupt array blocks, header fields of the wrong type -- raises
:class:`SerializationError` with the byte offset where decoding failed,
never a raw ``struct.error`` / ``KeyError``.
"""

from __future__ import annotations

import io
import json
import math
import struct
import zlib
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

#: Accumulator-state and report framing tag (format version 1, the only
#: ``REPROACC`` version this build reads or writes).
MAGIC = b"REPROACC\x01"

#: Report-batch framing tag: the network wire format of the ingest
#: gateway (:mod:`repro.service`) and of ``encode --output -``.
MAGIC_BATCH = b"REPROBAT\x01"

#: WAL segment framing tag: the gateway's durable ingest log
#: (:mod:`repro.service.wal`), one segment file per epoch.
MAGIC_WAL = b"REPROWAL\x01"

#: Epoch-segment framing tag: one sealed epoch of the out-of-core store
#: (:mod:`repro.engine.store`), CRC-framed and memory-mappable.
MAGIC_SEG = b"REPROSEG\x01"

#: ``batch_kind`` tag every report batch declares in its header.
REPORT_BATCH_KIND = "report-batch"

#: ``wal_kind`` tag every WAL segment declares in its header.
WAL_SEGMENT_KIND = "ingest-wal"

#: ``seg_kind`` tag every epoch segment declares in its header.
EPOCH_SEGMENT_KIND = "epoch-segment"

#: Layout version of the epoch-segment contents.
EPOCH_SEGMENT_FORMAT = 1

_LENGTH = struct.Struct("<Q")
_CRC = struct.Struct("<I")
_SEG_ALIGN = 8


class SerializationError(ValueError):
    """Raised when a byte blob cannot be decoded as a packed state/report."""


# --------------------------------------------------------------------- #
# the framed container every format shares
# --------------------------------------------------------------------- #
#: A format's own header check: ``(header, body size) -> complaint``.
_FieldCheck = Callable[[dict, int], Optional[str]]


def _pad_to(length: int, align: int = _SEG_ALIGN) -> int:
    """Bytes of padding needed to advance ``length`` to a multiple of ``align``."""
    return (-length) % align


def _write_frame(
    magic: bytes, header: dict, *body: bytes, align: int = 1, crc: bool = False
) -> bytes:
    """``magic | u64 header length | JSON header | body [| u32 CRC32]``.

    The header JSON is space-padded (JSON ignores trailing whitespace)
    until the body starts ``align``-byte aligned; ``crc`` appends the
    CRC32 of every byte before it.
    """
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    encoded += b" " * _pad_to(len(magic) + _LENGTH.size + len(encoded), align)
    frame = b"".join((magic, _LENGTH.pack(len(encoded)), encoded, *body))
    return frame + _CRC.pack(zlib.crc32(frame)) if crc else frame


def _read_frame(
    data, magics: Tuple[bytes, ...], what: str, fields: Optional[_FieldCheck] = None,
    *, crc: bool = False,
) -> Tuple[int, dict, int]:
    """Parse the framed-container prefix of any buffer.

    Returns ``(index of the matching magic, header, body offset)``.
    ``data`` may be bytes or any buffer (a memory map included); only the
    magic and the header are copied, never the body.  ``crc`` verifies a
    trailing CRC32 over everything before it, and ``fields`` names what
    is wrong with the format's own header fields (``None`` when nothing
    is).  The view is released before any error propagates, so a caller
    can still close a memory map it is validating.
    """
    try:
        view = memoryview(data).cast("B")
    except TypeError:
        raise SerializationError(f"expected bytes, got {type(data).__name__}") from None
    with view:
        magic = bytes(view[: len(magics[0])])
        if magic not in magics:
            raise SerializationError(
                f"bad magic at offset 0: {magic!r} is not {what} "
                f"(expected {' or '.join(map(repr, magics))})"
            )
        end = len(view) - (_CRC.size if crc else 0)
        offset = len(magic) + _LENGTH.size
        if end < offset:
            raise SerializationError(
                f"truncated at offset {len(view)}: {what} needs "
                f"{offset + len(view) - end} bytes for its header length"
                f"{' and CRC' if crc else ''} (torn tail?)"
            )
        (length,) = _LENGTH.unpack_from(view, len(magic))
        if length > end - offset:
            raise SerializationError(
                f"truncated at offset {len(view)}: {what} declares a {length}-byte "
                f"header but only {end - offset} bytes remain after offset "
                f"{offset} (torn tail?)"
            )
        if crc:
            (stored,) = _CRC.unpack_from(view, end)
            computed = zlib.crc32(view[:end])
            if stored != computed:
                raise SerializationError(
                    f"{what} failed its CRC check (stored {stored:#010x}, "
                    f"computed {computed:#010x}): torn or corrupt tail"
                )
        body = offset + length
        where = f"corrupt header JSON in bytes [{offset}, {body}) of {what}"
        try:
            header = json.loads(bytes(view[offset:body]).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SerializationError(f"{where}: {exc}") from exc
        problem = _field_error(header) or (fields and fields(header, end - body))
        if problem:
            raise SerializationError(f"{where}: {problem}")
    return magics.index(magic), header, body


def _is_count(value) -> bool:
    """A JSON non-negative integer (``bool`` excluded)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _field_error(mapping, *counts: str, **tags) -> Optional[str]:
    """What is wrong with one header object, or ``None``.

    ``mapping`` must be an object whose ``tags`` keys hold exactly the
    given values and whose ``counts`` keys hold non-negative integers.
    """
    if not isinstance(mapping, dict):
        return f"expected an object, got {type(mapping).__name__}"
    for key, tag in tags.items():
        if mapping.get(key) != tag:
            return f"{key} {mapping.get(key)!r} is not {tag!r}"
    for key in counts:
        if not _is_count(mapping.get(key)):
            return f"{key!r} must be a non-negative integer, got {mapping.get(key)!r}"
    return None


# --------------------------------------------------------------------- #
# REPROACC: accumulator states and reports
# --------------------------------------------------------------------- #
def pack_blob(header: dict, arrays: Mapping[str, np.ndarray] = ()) -> bytes:
    """Serialize a JSON-able header plus named numeric arrays to bytes.

    ``header`` must be JSON serializable (Python's ``json`` keeps integer
    values exact at arbitrary precision, which the exact accumulators rely
    on).  ``arrays`` values are written as raw ``.npy`` blocks; object
    dtypes are rejected.
    """
    arrays = dict(arrays or {})
    body = io.BytesIO()
    for array in arrays.values():
        np.lib.format.write_array(
            body, np.ascontiguousarray(array), allow_pickle=False
        )
    document = {"header": header, "arrays": list(arrays)}
    return _write_frame(MAGIC, document, body.getvalue())


def _blob_fields(document: dict, body_size: int) -> Optional[str]:
    """A blob document holds a ``header`` object and its ``arrays`` names."""
    if not isinstance(document.get("header", {}), dict):
        return f"'header' must be an object, got {type(document['header']).__name__}"
    names = document.get("arrays", [])
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        return "'arrays' must be a list of names"
    return None


def _read_blob(data) -> Tuple[int, dict, int]:
    return _read_frame(data, (MAGIC,), "a packed repro state/report", _blob_fields)


def peek_header(data: bytes) -> dict:
    """Decode only the JSON header of a packed blob (arrays untouched).

    Cheap dispatch helper: lets callers route a blob by ``file_kind`` /
    ``state_kind`` without paying for the array blocks.
    """
    return _read_blob(data)[1].get("header", {})


def unpack_blob(data: bytes) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Inverse of :func:`pack_blob`: return ``(header, arrays)``."""
    _, document, body_offset = _read_blob(data)
    body = io.BytesIO(bytes(data)[body_offset:])
    arrays: Dict[str, np.ndarray] = {}
    for name in document.get("arrays", []):
        block_offset = body_offset + body.tell()
        try:
            arrays[name] = np.lib.format.read_array(body, allow_pickle=False)
        except Exception as exc:  # numpy raises several internal types here
            raise SerializationError(
                f"corrupt array block {name!r} at offset {block_offset}: {exc}"
            ) from exc
    return document.get("header", {}), arrays


# --------------------------------------------------------------------- #
# REPROBAT: framed report batches, the network wire format
# --------------------------------------------------------------------- #
def pack_report_batch(spec, reports) -> bytes:
    """Frame a batch of serialized reports for network transport.

    This is the one payload the ingest gateway (:mod:`repro.service`)
    accepts on ``POST /ingest``: a magic tag (:data:`MAGIC_BATCH`), a JSON
    header carrying the protocol ``spec`` plus frame bookkeeping, then the
    packed bytes of each report, length-prefixed::

        REPROBAT\\x01 | u64 header length | JSON header
                     | (u64 frame length | report bytes) * count

    ``reports`` is an iterable of :class:`~repro.core.session.Report`
    instances (or their already-packed bytes); each report stays in the
    existing pickle-free v1 layout, so the frame is a pure container --
    the gateway can split and fan frames out to shard workers without
    decoding a single array.  The header records ``count`` and the total
    ``n_users`` so receivers can account for a batch from the header
    alone (for packed bytes the user count is peeked from each report's
    own header).
    """
    blobs: List[bytes] = []
    n_users = 0
    for report in reports:
        if isinstance(report, (bytes, bytearray, memoryview)):
            blob = bytes(report)
            n_users += int(peek_header(blob).get("n_users", 0))
        elif callable(getattr(report, "to_bytes", None)):
            blob = report.to_bytes()
            n_users += int(getattr(report, "n_users", 0))
        else:
            raise SerializationError(
                f"cannot frame a report of type {type(report).__name__}; "
                "expected a Report or packed report bytes"
            )
        blobs.append(blob)
    if spec is not None and callable(getattr(spec, "spec", None)):
        spec = spec.spec()  # a live protocol object; record its registry spec
    header = {"batch_kind": REPORT_BATCH_KIND, "count": len(blobs), "n_users": n_users}
    if spec is not None:
        header["protocol"] = spec
    frames = (part for blob in blobs for part in (_LENGTH.pack(len(blob)), blob))
    return _write_frame(MAGIC_BATCH, header, *frames)


def _batch_fields(header: dict, body_size: int) -> Optional[str]:
    """A batch header tags its kind and counts its frames and users."""
    return _field_error(header, "count", "n_users", batch_kind=REPORT_BATCH_KIND)


def _read_batch(data) -> Tuple[int, dict, int]:
    return _read_frame(data, (MAGIC_BATCH,), "a framed report batch", _batch_fields)


def report_batch_header(data) -> dict:
    """Decode only the JSON header of a framed report batch.

    Cheap accounting/routing helper: the gateway validates a batch's
    ``protocol`` spec and reads ``count`` / ``n_users`` from here without
    touching the report frames.
    """
    return _read_batch(data)[1]


def unpack_report_batch(data) -> Tuple[dict, List[bytes]]:
    """Inverse of :func:`pack_report_batch`: return ``(header, frames)``.

    ``frames`` is the list of packed report byte strings, in batch order;
    decode each with ``Report.from_bytes``.  Truncated frames, a frame
    count that disagrees with the header, or trailing garbage after the
    last frame all raise :class:`SerializationError` with the offending
    byte offset.
    """
    _, header, offset = _read_batch(data)
    data = bytes(data)
    count = header["count"]
    frames: List[bytes] = []
    for index in range(count):
        if len(data) - offset < _LENGTH.size:
            raise SerializationError(
                f"truncated report batch at offset {offset}: need "
                f"{_LENGTH.size} bytes for the length of frame "
                f"{index}/{count}, have {len(data) - offset}"
            )
        (frame_length,) = _LENGTH.unpack_from(data, offset)
        offset += _LENGTH.size
        if frame_length > len(data) - offset:
            raise SerializationError(
                f"truncated report batch at offset {offset}: frame "
                f"{index}/{count} declares {frame_length} bytes but only "
                f"{len(data) - offset} remain"
            )
        frames.append(data[offset : offset + frame_length])
        offset += frame_length
    if offset != len(data):
        raise SerializationError(
            f"trailing garbage after frame {count - 1}/{count}: "
            f"{len(data) - offset} unexpected bytes at offset {offset}"
        )
    return header, frames


# --------------------------------------------------------------------- #
# REPROWAL: the gateway's durable ingest log
# --------------------------------------------------------------------- #
def pack_wal_segment_header(epoch: int, extra: Optional[dict] = None) -> bytes:
    """The on-disk prefix of one WAL segment file.

    ``MAGIC_WAL | u64 header length | JSON header`` -- the header names
    the epoch the segment belongs to, so recovery never depends on file
    names alone.
    """
    header = {"wal_kind": WAL_SEGMENT_KIND, "epoch": int(epoch), **(extra or {})}
    return _write_frame(MAGIC_WAL, header)


def _wal_fields(header: dict, body_size: int) -> Optional[str]:
    """A WAL segment header tags its kind and names its epoch."""
    return _field_error(header, "epoch", wal_kind=WAL_SEGMENT_KIND)


def read_wal_segment_header(data) -> Tuple[dict, int]:
    """Decode a segment's header; return ``(header, records_offset)``.

    Unlike record scanning, a segment whose *header* is damaged is
    unusable and raises :class:`SerializationError` -- the header is
    written in one small atomic-in-practice append before any record, so
    a torn header means the file is not a WAL segment at all.
    """
    _, header, offset = _read_frame(data, (MAGIC_WAL,), "a WAL segment", _wal_fields)
    return header, offset


def pack_wal_record(meta: dict, blob: bytes) -> bytes:
    """Frame one WAL record: CRC + length + (JSON meta, payload blob).

    ``u32 crc32(payload) | u64 payload length | payload`` where the
    payload is a magic-less frame, ``u64 meta length | meta JSON | blob``.
    The CRC covers the whole payload so a torn or bit-flipped tail is
    detected by :func:`scan_wal_segment` instead of being replayed as
    garbage.
    """
    payload = _write_frame(b"", dict(meta or {}), blob)
    return _CRC.pack(zlib.crc32(payload)) + _LENGTH.pack(len(payload)) + payload


def scan_wal_segment(data) -> Tuple[dict, List[Tuple[dict, bytes]], Optional[int]]:
    """Decode every intact record of a WAL segment, tolerating a torn tail.

    Returns ``(header, records, torn_offset)``: ``records`` is the list
    of ``(meta, blob)`` pairs that passed their CRC, in append order, and
    ``torn_offset`` is the byte offset of the first truncated/corrupt
    record (``None`` for a clean segment).  Everything *after* a bad
    record is discarded -- the log is append-only, so a damaged record
    means the process died mid-append and nothing beyond it was ever
    acknowledged.
    """
    header, offset = read_wal_segment_header(data)
    data = bytes(data)
    records: List[Tuple[dict, bytes]] = []
    while offset < len(data):
        start = offset
        if len(data) - offset < _CRC.size + _LENGTH.size:
            return header, records, start
        (crc,) = _CRC.unpack_from(data, offset)
        (payload_length,) = _LENGTH.unpack_from(data, offset + _CRC.size)
        offset += _CRC.size + _LENGTH.size
        payload = data[offset : offset + payload_length]
        offset += payload_length
        if len(payload) != payload_length or zlib.crc32(payload) != crc:
            return header, records, start
        try:
            _, meta, blob_offset = _read_frame(payload, (b"",), "a WAL record")
        except SerializationError:
            return header, records, start
        records.append((meta, payload[blob_offset:]))
    return header, records, None


# --------------------------------------------------------------------- #
# REPROSEG: the out-of-core store's per-epoch files
# --------------------------------------------------------------------- #
def pack_epoch_segment(
    epoch: int,
    spec_hash: str,
    *,
    n_reports: int,
    state_blob: Optional[bytes] = None,
    pushdown: Optional[dict] = None,
    aggregate: Optional[dict] = None,
) -> bytes:
    """Frame one sealed epoch for the out-of-core store.

    ``MAGIC_SEG | u64 header length | JSON header | body | u32 crc32``
    where the CRC covers every byte before it, so torn tails and bit
    flips are detected before any content is trusted.  The body holds the
    epoch's counts exactly once, in one of two regions:

    * ``pushdown``: the raw little-endian int64 sufficient-statistic
      vectors of each oracle child, 8-byte aligned so a reader can view
      them zero-copy straight out of a memory map.  ``pushdown`` is a
      plain-data description of the state::

          {"label": ..., "config": {...}, "n_users": N,
           "children": [{"oracle_kind": ..., "config": {...},
                         "n_reports": N, "vectors": {name: int64 array}}]}

      Summing the vectors of many segments elementwise is exactly the
      accumulator merge (integer addition is associative and
      commutative), which is what makes store-backed windowed queries
      bit-identical to the in-RAM merge path.
    * ``state_blob``: a packed v1 accumulator state, for states no
      vector sum reproduces (SHE's float partials).

    Exactly one of the two must be given.  Offsets in the header are
    relative to the body start; the header JSON is space-padded so the
    body itself starts 8-byte aligned.

    ``aggregate`` (optional) marks the segment as a *pre-merged
    aggregate* over ``{"level": L, "start": S, "count": 2**L}``
    consecutive epochs rather than a single sealed epoch; ``epoch`` is
    then the block start ``S``.  Aggregates reuse the exact same framing
    so every reader (CRC check, pushdown views) applies unchanged.
    """
    if (state_blob is None) == (pushdown is None):
        raise ValueError(
            "an epoch segment holds exactly one of a packed state and "
            "pushdown vectors"
        )
    header: dict = {
        "seg_kind": EPOCH_SEGMENT_KIND,
        "format": EPOCH_SEGMENT_FORMAT,
        "epoch": int(epoch),
        "spec_hash": str(spec_hash),
        "n_reports": int(n_reports),
    }
    if aggregate is not None:
        header["aggregate"] = {
            key: int(aggregate[key]) for key in ("level", "start", "count")
        }
    if state_blob is not None:
        header["state"] = {"offset": 0, "length": len(state_blob)}
        return _write_frame(MAGIC_SEG, header, state_blob, align=_SEG_ALIGN, crc=True)
    body = bytearray()
    children = []
    for child in pushdown.get("children", []):
        vectors = []
        for name, vector in child["vectors"].items():
            vector = np.ascontiguousarray(vector, dtype="<i8")
            vectors.append(
                {"name": str(name), "shape": list(vector.shape), "offset": len(body)}
            )
            body += vector.tobytes()
        children.append(
            {
                "oracle_kind": child["oracle_kind"],
                "config": child["config"],
                "n_reports": int(child["n_reports"]),
                "vectors": vectors,
            }
        )
    header["pushdown"] = {
        "label": pushdown["label"],
        "config": pushdown["config"],
        "n_users": int(pushdown["n_users"]),
        "children": children,
    }
    return _write_frame(MAGIC_SEG, header, body, align=_SEG_ALIGN, crc=True)


def _segment_fields(header: dict, body_size: int) -> Optional[str]:
    """Kind, format and byte layout of an epoch segment header.

    A segment holds a ``state`` region, a ``pushdown`` region, or both
    (repro 1.11.0 wrote both), and every region the header describes
    must lie inside the body, so the zero-copy views of
    :func:`segment_state_bytes` and :func:`segment_pushdown_children`
    need no further checks.
    """
    problem = _field_error(
        header, "epoch", seg_kind=EPOCH_SEGMENT_KIND, format=EPOCH_SEGMENT_FORMAT
    )
    if not problem and not {"state", "pushdown"} & header.keys():
        problem = "an epoch segment needs a state or a pushdown region"
    if not problem and "state" in header:
        problem = _field_error(header["state"], "offset", "length")
    if not problem and "aggregate" in header:
        problem = _field_error(header["aggregate"], "level", "start", "count")
    if not problem and "pushdown" in header:
        problem = _pushdown_error(header["pushdown"])
    if problem:
        return problem
    regions = [(header["state"], header["state"]["length"])] if "state" in header else []
    regions += [
        (vector, 8 * math.prod(vector["shape"]))
        for child in header.get("pushdown", {"children": []})["children"]
        for vector in child["vectors"]
    ]
    for region, size in regions:
        if region["offset"] + size > body_size:
            return f"region {region!r} points outside the {body_size}-byte body"
    return None


def _pushdown_error(pushdown) -> Optional[str]:
    """What is wrong with a segment's pushdown description, or ``None``."""
    if (
        _field_error(pushdown, "n_users")
        or not isinstance(pushdown.get("children"), list)
        or not {"label", "config"} <= pushdown.keys()
    ):
        return "pushdown needs a label, a config, n_users and a list of children"
    for index, child in enumerate(pushdown["children"]):
        if (
            _field_error(child, "n_reports")
            or not isinstance(child.get("vectors"), list)
            or not {"oracle_kind", "config"} <= child.keys()
        ):
            return (
                f"pushdown child {index} needs an oracle_kind, a config, "
                "n_reports and a list of vectors"
            )
        for vector in child["vectors"]:
            if (
                _field_error(vector, "offset")
                or not isinstance(vector.get("name"), str)
                or not isinstance(vector.get("shape"), list)
                or not all(map(_is_count, vector["shape"]))
            ):
                return f"pushdown vector {vector!r} needs a name, a shape and an offset"
    return None


def read_epoch_segment(data) -> Tuple[dict, int]:
    """Validate one epoch segment; return ``(header, body_offset)``.

    ``data`` may be bytes or a memory map; the whole-file CRC and every
    region the header describes are checked here, once, so subsequent
    zero-copy views over the body need no further validation.  A short
    file, a bad magic, garbage JSON, a malformed layout, or a CRC
    mismatch (torn or bit-flipped tail) each raise
    :class:`SerializationError` naming what went wrong.
    """
    _, header, body_offset = _read_frame(
        data, (MAGIC_SEG,), "an epoch segment", _segment_fields, crc=True
    )
    return header, body_offset


def segment_state_bytes(data, header: dict, body_offset: int) -> bytes:
    """The packed v1 accumulator state embedded in a validated segment.

    Raises if the segment carries no state region.
    """
    if "state" not in header:
        raise SerializationError("epoch segment carries no packed state")
    start = body_offset + header["state"]["offset"]
    return bytes(memoryview(data)[start : start + header["state"]["length"]])


def segment_pushdown_children(data, header: dict, body_offset: int) -> List[dict]:
    """Zero-copy views of a validated segment's pushdown vectors.

    Returns one dict per oracle child -- ``oracle_kind``, ``config``,
    ``n_reports`` and ``vectors`` (name -> read-only int64 array viewing
    the underlying buffer) -- or raises if the segment carries no
    pushdown region.
    """
    if "pushdown" not in header:
        raise SerializationError("epoch segment carries no pushdown region")
    return [
        {
            "oracle_kind": child["oracle_kind"],
            "config": child["config"],
            "n_reports": child["n_reports"],
            "vectors": {
                vector["name"]: np.frombuffer(
                    data,
                    dtype="<i8",
                    count=math.prod(vector["shape"]),
                    offset=body_offset + vector["offset"],
                ).reshape(vector["shape"])
                for vector in child["vectors"]
            },
        }
        for child in header["pushdown"]["children"]
    ]


def pack_child(child_bytes: bytes) -> np.ndarray:
    """View packed child bytes as a ``uint8`` array for nesting in a blob."""
    return np.frombuffer(child_bytes, dtype=np.uint8)


def unpack_child(array: np.ndarray) -> bytes:
    """Recover the packed bytes of a nested child from its ``uint8`` array."""
    return np.asarray(array, dtype=np.uint8).tobytes()
