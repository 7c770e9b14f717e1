"""Hardening tests for the wire format (:mod:`repro.core.serialization`).

The contract: *any* malformed byte input -- wrong magic, truncation at any
offset, garbage JSON, corrupt npy blocks, mutated-but-parseable headers --
surfaces as :class:`SerializationError` with offset context, never as a
raw ``struct.error`` / ``KeyError`` / ``UnicodeDecodeError`` from the
decoder internals.  Fuzz-style sweeps mutate valid envelopes to exercise
every decode stage.
"""

import copy
import functools
import hashlib
import json
import operator
import struct
import zlib

import numpy as np
import pytest

from repro import FlatRangeQuery, HaarHRR, HierarchicalHistogram
from repro.core.serialization import (
    MAGIC,
    MAGIC_BATCH,
    MAGIC_SEG,
    MAGIC_WAL,
    SerializationError,
    pack_blob,
    pack_epoch_segment,
    pack_report_batch,
    pack_wal_record,
    pack_wal_segment_header,
    read_epoch_segment,
    report_batch_header,
    scan_wal_segment,
    segment_pushdown_children,
    segment_state_bytes,
    unpack_blob,
    unpack_report_batch,
)
from repro.core.session import AccumulatorState, ProtocolServer, Report, load_server
from repro.engine import Engine, spec_fingerprint


@pytest.fixture(scope="module")
def server_blob() -> bytes:
    protocol = HierarchicalHistogram(32, 1.1, branching=4)
    server = protocol.server()
    server.ingest(protocol.client().encode_batch(np.arange(32), rng=0))
    return server.to_bytes()


@pytest.fixture(scope="module")
def report_blob() -> bytes:
    protocol = FlatRangeQuery(16, 1.1, oracle="oue")
    return protocol.client().encode_batch(np.arange(16), rng=0).to_bytes()


@pytest.fixture(scope="module")
def batch_blob() -> bytes:
    protocol = HierarchicalHistogram(32, 1.1, branching=4)
    client = protocol.client()
    reports = [client.encode_batch(np.arange(16) + 16 * i, rng=i) for i in range(2)]
    return pack_report_batch(protocol.spec(), reports)


@pytest.fixture(scope="module")
def wal_blob(batch_blob) -> bytes:
    records = [
        pack_wal_record({"key": f"k{i}", "worker": i, "n_users": 32}, batch_blob)
        for i in range(2)
    ]
    return pack_wal_segment_header(epoch=2) + b"".join(records)


@pytest.fixture(scope="module")
def segment_blob(tmp_path_factory) -> bytes:
    """A sealed epoch segment with a pushdown region, as the store writes it."""
    store_dir = tmp_path_factory.mktemp("store")
    engine = Engine.open("hh", domain_size=16, epsilon=1.1, branching=4, store_dir=str(store_dir))
    engine.session(epoch=0).absorb(np.arange(16), rng=0)
    engine.seal_epoch(0)
    with open(engine.store.segment_path(0), "rb") as handle:
        segment = handle.read()
    engine.store.close()
    assert "pushdown" in read_epoch_segment(segment)[0]
    return segment


# Protocols whose reports cover every payload shape: hh, flat OLH and HRR, Haar.
LEVEL_REPORT_PROTOCOLS = [
    pytest.param(lambda: HierarchicalHistogram(32, 1.1, branching=4), id="hh"),
    pytest.param(lambda: FlatRangeQuery(16, 1.1, oracle="olh"), id="flat-olh"),
    pytest.param(lambda: FlatRangeQuery(16, 1.1, oracle="hrr"), id="flat-hrr"),
    pytest.param(lambda: HaarHRR(16, 1.1), id="haar"),
]


class TestVersionedEnvelope:
    def test_v1_payloads_decode_unchanged(self, server_blob, report_blob):
        # The acceptance bar: accumulator states and reports from the
        # pre-engine era load unchanged.
        state = AccumulatorState.from_bytes(server_blob)
        assert state.n_reports == 32
        report = Report.from_bytes(report_blob)
        assert report.n_users == 16


class TestMalformedInput:
    def test_non_bytes_input(self):
        with pytest.raises(SerializationError, match="expected bytes"):
            unpack_blob(12345)

    def test_wrong_magic_reports_offset_zero(self):
        with pytest.raises(SerializationError, match="offset 0"):
            unpack_blob(b"NOTAMAGIC" + b"\x00" * 32)

    def test_empty_and_tiny_inputs(self):
        for blob in (b"", b"R", MAGIC[:4]):
            with pytest.raises(SerializationError, match="offset 0"):
                unpack_blob(blob)
        with pytest.raises(SerializationError, match="truncated"):
            unpack_blob(MAGIC)  # magic but no header length

    def test_header_length_exceeding_payload(self):
        blob = MAGIC + (2**40).to_bytes(8, "little") + b"{}"
        with pytest.raises(SerializationError, match="declares"):
            unpack_blob(blob)

    def test_garbage_header_json(self):
        payload = b"\xff\xfe not json"
        blob = MAGIC + len(payload).to_bytes(8, "little") + payload
        with pytest.raises(SerializationError, match="corrupt header JSON"):
            unpack_blob(blob)

    def test_header_json_of_the_wrong_shape(self):
        for document in (json.dumps([1, 2, 3]), json.dumps({"arrays": "nope"})):
            payload = document.encode()
            blob = MAGIC + len(payload).to_bytes(8, "little") + payload
            with pytest.raises(SerializationError, match="corrupt header JSON"):
                unpack_blob(blob)
        payload = json.dumps({"header": 7, "arrays": []}).encode()
        blob = MAGIC + len(payload).to_bytes(8, "little") + payload
        with pytest.raises(SerializationError, match="'header' must be an object"):
            unpack_blob(blob)

    def test_corrupt_array_block_reports_its_offset(self):
        blob = bytearray(pack_blob({"k": 1}, {"a": np.arange(8)}))
        # Stomp the npy block header (it starts with numpy's own magic).
        npy_start = bytes(blob).index(b"\x93NUMPY")
        blob[npy_start : npy_start + 6] = b"\x00" * 6
        with pytest.raises(SerializationError, match="corrupt array block 'a' at offset"):
            unpack_blob(bytes(blob))

    def test_batch_header_counts_must_be_non_negative_integers(self, batch_blob):
        header = _header_of(batch_blob, MAGIC_BATCH)
        for field, value in [
            ("n_users", "x"), ("n_users", -30), ("n_users", None), ("count", True),
        ]:
            mutated = _reframe(batch_blob, MAGIC_BATCH, {**header, field: value})
            with pytest.raises(SerializationError, match=f"'{field}' must be a non-negative"):
                report_batch_header(mutated)

    # Bits payloads: width 20 packs into 3 bytes per row, so a wrong width
    # or block shape is never zero-padded or trimmed into a plausible matrix.
    MALFORMED_BITS = {
        "negative width": lambda meta, block: ({**meta, "width": -1}, block),
        "string width": lambda meta, block: ({**meta, "width": "x"}, block),
        "huge width": lambda meta, block: ({**meta, "width": 10**9}, block),
        "one column too many": lambda meta, block: (
            meta, np.concatenate([block, block[:, :1]], axis=1)
        ),
        "one column too few": lambda meta, block: (meta, block[:, 1:]),
        "int8 block": lambda meta, block: (meta, block.view(np.int8)),
        "1-D block": lambda meta, block: (meta, block.ravel()),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED_BITS))
    def test_malformed_bits_payloads_are_refused(self, case):
        report = FlatRangeQuery(20, 1.1, oracle="oue").client().encode_batch(
            np.arange(20), rng=0
        )
        header, arrays = unpack_blob(report.to_bytes())
        assert header["levels"]["0"] == {"payload_kind": "bits", "width": 20}
        assert arrays["level_0"].shape == (20, 3)
        meta, block = self.MALFORMED_BITS[case](header["levels"]["0"], arrays["level_0"])
        mutated = {**header, "levels": {"0": meta}}
        with pytest.raises(SerializationError, match="bits"):
            Report.from_bytes(pack_blob(mutated, {**arrays, "level_0": block}))

    def test_every_truncation_of_a_real_state_fails_loudly(self, server_blob):
        # Sampled prefixes across the whole blob, plus the exact layout
        # boundaries (magic, length field, header end).
        boundaries = {0, 4, len(MAGIC), len(MAGIC) + 8, len(MAGIC) + 9}
        boundaries.update(range(0, len(server_blob) - 1, max(1, len(server_blob) // 97)))
        for cut in sorted(boundaries):
            with pytest.raises(SerializationError):
                AccumulatorState.from_bytes(server_blob[:cut])


def _mutations(blob: bytes, rng: np.random.Generator, rounds: int):
    """Seeded single-byte mutations spread across the whole blob."""
    for _ in range(rounds):
        mutated = bytearray(blob)
        position = int(rng.integers(0, len(blob)))
        mutated[position] ^= int(rng.integers(1, 256))
        yield bytes(mutated)


def _decode_batch(blob: bytes) -> None:
    """The shard worker's decode path: unframe, then decode every report."""
    for frame in unpack_report_batch(blob)[1]:
        Report.from_bytes(frame)


def _decode_wal(blob: bytes) -> None:
    """WAL recovery's decode path; a torn tail is how a scan rejects a record."""
    header, records, torn = scan_wal_segment(blob)
    assert isinstance(header["epoch"], int)
    for _, batch in records:
        _decode_batch(batch)
    if torn is not None:
        raise SerializationError(f"torn tail at offset {torn}")


def _decode_segment(blob: bytes) -> None:
    """The store's attach-and-read path, state and zero-copy pushdown views."""
    header, body_offset = read_epoch_segment(blob)
    AccumulatorState.from_bytes(segment_state_bytes(blob, header, body_offset))
    segment_pushdown_children(blob, header, body_offset)


# format -> (fixture, decode path, magic, trailing CRC)
CONTAINERS = {
    "REPROBAT": ("batch_blob", _decode_batch, MAGIC_BATCH, False),
    "REPROWAL": ("wal_blob", _decode_wal, MAGIC_WAL, False),
    "REPROSEG": ("segment_blob", _decode_segment, MAGIC_SEG, True),
}


def _header_of(blob: bytes, magic: bytes) -> dict:
    (length,) = struct.unpack_from("<Q", blob, len(magic))
    return json.loads(blob[len(magic) + 8 : len(magic) + 8 + length])


def _reframe(blob: bytes, magic: bytes, header: dict, crc: bool = False) -> bytes:
    """``blob`` with its JSON header replaced: body kept, CRC recomputed."""
    (length,) = struct.unpack_from("<Q", blob, len(magic))
    body = blob[len(magic) + 8 + length : len(blob) - 4 if crc else len(blob)]
    encoded = json.dumps(header).encode("utf-8")
    framed = magic + struct.pack("<Q", len(encoded)) + encoded + body
    return framed + struct.pack("<I", zlib.crc32(framed)) if crc else framed


_DELETE = object()
_MUTANTS = (7, -1, "x", "ab", None, [1], [7], [[1]], {"z": 1}, _DELETE)


def _paths(node, prefix=()):
    """Every key/index path into a JSON document, parents before children."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutate(header: dict, path: tuple, value) -> dict:
    mutated = copy.deepcopy(header)
    parent = functools.reduce(operator.getitem, path[:-1], mutated)
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return mutated


class TestFuzzedEnvelopes:
    """Mutated valid envelopes either decode or raise SerializationError.

    A byte flip may land in numeric payload (decoding to different but
    structurally valid statistics) -- that is fine; what must never happen
    is a raw KeyError / struct.error / UnicodeDecodeError escaping the
    decoder.
    """

    ROUNDS = 300

    def test_fuzzed_accumulator_states(self, server_blob):
        rng = np.random.default_rng(1)
        failures = 0
        for mutated in _mutations(server_blob, rng, self.ROUNDS):
            try:
                state = AccumulatorState.from_bytes(mutated)
            except SerializationError:
                failures += 1
            else:
                assert isinstance(state, AccumulatorState)
        assert failures > 0  # the sweep must actually hit decode errors

    def test_fuzzed_reports(self, report_blob):
        rng = np.random.default_rng(2)
        failures = 0
        for mutated in _mutations(report_blob, rng, self.ROUNDS):
            try:
                report = Report.from_bytes(mutated)
            except SerializationError:
                failures += 1
            else:
                assert isinstance(report, Report)
        assert failures > 0

    def test_fuzzed_server_states(self, server_blob):
        # ``merge --states`` reads every file through load_server: a spec
        # the registry refuses or a state that no longer fits its spec is
        # a decode error too.
        rng = np.random.default_rng(3)
        failures = 0
        for mutated in _mutations(server_blob, rng, self.ROUNDS):
            try:
                server = load_server(mutated)
            except SerializationError:
                failures += 1
            except Exception as exc:  # noqa: BLE001 - the assertion target
                raise AssertionError(
                    f"fuzzed server state leaked {type(exc).__name__}: {exc}"
                ) from exc
            else:
                assert isinstance(server, ProtocolServer)
        assert failures > 0

    def test_mutated_but_valid_json_headers_fail_as_decode_errors(self, server_blob):
        # Surgically corrupt *semantic* header fields while keeping the
        # JSON valid: every case must raise SerializationError.
        header, arrays = unpack_blob(server_blob)
        cases = []
        missing_children = dict(header)
        missing_children.pop("num_children")
        cases.append(missing_children)
        wrong_type = dict(header)
        wrong_type["num_children"] = "many"
        cases.append(wrong_type)
        too_many = dict(header)
        too_many["num_children"] = 99
        cases.append(too_many)
        unknown_kind = dict(header)
        unknown_kind["state_kind"] = "martian"
        cases.append(unknown_kind)
        unhashable_kind = dict(header)
        unhashable_kind["state_kind"] = [1, 2]
        cases.append(unhashable_kind)
        for mutated_header in cases:
            with pytest.raises(SerializationError):
                AccumulatorState.from_bytes(pack_blob(mutated_header, arrays))

    @pytest.mark.parametrize("make", LEVEL_REPORT_PROTOCOLS)
    def test_mutated_report_headers_fail_as_decode_errors(self, make):
        # Replace every report header field, every level meta and every
        # field inside one with values of the wrong shape: decoding either
        # succeeds or raises SerializationError.  Shapes the decoder cannot
        # read at all must raise it.
        protocol = make()
        blob = protocol.client().encode_batch(np.arange(protocol.domain_size), rng=0).to_bytes()
        values = (7, [1, 2], None, "x", {"z": 1})
        header, arrays = unpack_blob(blob)
        levels = header["levels"]
        must_fail = [{**header, "report_kind": v} for v in (7, [1, 2], None, {"z": 1})]
        must_fail += [{**header, "levels": v} for v in (7, [1, 2], "x")]
        may_decode = [{**header, field: v} for field in header for v in values]
        for level, meta in levels.items():
            must_fail += [
                {**header, "levels": {**levels, level: v}} for v in (7, [1, 2], None, "x")
            ]
            may_decode += [
                {**header, "levels": {**levels, level: {**meta, field: v}}}
                for field in meta
                for v in values
            ]
        for mutated_header in must_fail:
            with pytest.raises(SerializationError):
                Report.from_bytes(pack_blob(mutated_header, arrays))
        for mutated_header in may_decode:
            try:
                report = Report.from_bytes(pack_blob(mutated_header, arrays))
            except SerializationError:
                continue
            assert isinstance(report, Report)

    # The batch, WAL and segment containers, each through its consumer's
    # decode path (shard worker, WAL recovery, store attach).
    @pytest.mark.parametrize("fmt", sorted(CONTAINERS))
    def test_fuzzed_containers(self, fmt, request):
        fixture, decode, _, _ = CONTAINERS[fmt]
        blob = request.getfixturevalue(fixture)
        rng = np.random.default_rng(4)
        failures = 0
        for mutated in _mutations(blob, rng, self.ROUNDS):
            try:
                decode(mutated)
            except SerializationError:
                failures += 1
            except Exception as exc:  # noqa: BLE001 - the assertion target
                raise AssertionError(
                    f"fuzzed {fmt} leaked {type(exc).__name__}: {exc}"
                ) from exc
        assert failures > 0

    @pytest.mark.parametrize("fmt", sorted(CONTAINERS))
    def test_mutated_container_headers_fail_as_decode_errors(self, fmt, request):
        # Bit flips never get past a CRC, so replace or remove every header
        # field at every depth and re-frame with a fresh CRC: decoding
        # either succeeds or raises SerializationError.
        fixture, decode, magic, crc = CONTAINERS[fmt]
        blob = request.getfixturevalue(fixture)
        header = _header_of(blob, magic)
        for path in _paths(header):
            for value in _MUTANTS:
                try:
                    decode(_reframe(blob, magic, _mutate(header, path, value), crc))
                except SerializationError:
                    continue
                except Exception as exc:  # noqa: BLE001 - the assertion target
                    raise AssertionError(
                        f"{fmt} header with {path} -> {value!r} leaked "
                        f"{type(exc).__name__}: {exc}"
                    ) from exc

    VECTOR = ("pushdown", "children", 0, "vectors", 0)
    MUST_FAIL = {
        "REPROBAT": [(("n_users",), "x"), (("n_users",), -30), (("batch_kind",), None)],
        "REPROWAL": [(("epoch",), "x"), (("wal_kind",), 7)],
        "REPROSEG": [
            (("format",), "x"),
            (("format",), [1]),
            (("state",), [1]),
            (("state", "offset"), None),
            (("pushdown", "children"), [7]),
            (VECTOR + ("shape",), "ab"),
            (VECTOR + ("shape",), [[1]]),
            (VECTOR + ("offset",), 1 << 40),
        ],
    }

    @pytest.mark.parametrize("fmt", sorted(CONTAINERS))
    def test_malformed_header_fields_are_refused(self, fmt, request):
        fixture, decode, magic, crc = CONTAINERS[fmt]
        blob = request.getfixturevalue(fixture)
        header = _header_of(blob, magic)
        for path, value in self.MUST_FAIL[fmt]:
            with pytest.raises(SerializationError, match="corrupt header JSON"):
                decode(_reframe(blob, magic, _mutate(header, path, value), crc))


def _writer_outputs() -> dict:
    """Each writer's bytes for fixed seeded inputs."""
    protocol = HierarchicalHistogram(32, 1.1, branching=4)
    report = protocol.client().encode_batch(np.arange(32), rng=0)
    state = protocol.server().ingest(report).to_bytes()
    pushdown = {
        "label": "hierarchical",
        "config": {"protocol": protocol.spec()},
        "n_users": 32,
        "children": [
            {
                "oracle_kind": "oue",
                "config": {"domain_size": 4, "epsilon": 1.1},
                "n_reports": 32,
                "vectors": {"bit_sums": np.arange(4), "grid": np.arange(6).reshape(2, 3)},
            }
        ],
    }
    return {
        "v1_state": state,
        "v1_report": report.to_bytes(),
        "batch": pack_report_batch(protocol.spec(), [report, report.to_bytes()]),
        "wal": pack_wal_segment_header(epoch=3)
        + pack_wal_record({"key": "k", "worker": 1, "n_users": 32}, report.to_bytes()),
        "segment": pack_epoch_segment(4, "cafe", state, n_reports=32),
        "segment_pushdown": pack_epoch_segment(
            4, "cafe", state, n_reports=32, pushdown=pushdown
        ),
        "segment_aggregate": pack_epoch_segment(
            4, "cafe", state, n_reports=64, pushdown=pushdown,
            aggregate={"level": 1, "start": 4, "count": 2},
        ),
    }


class TestWriterBytesArePinned:
    """The bytes every writer emits, pinned by SHA-256.

    A digest that changes means files on disk or batches on the wire
    changed: existing stores, WAL segments and state files would no
    longer round-trip byte for byte.
    """

    DIGESTS = {
        "v1_state": "cb37c4364b59420ff7ad7bc449c5a863010253f2dfe8bd57eccc6f20ba0e4a9d",
        "v1_report": "8361101d59a180aad138ba66702c460bdd32ec77ac419d214fee5d5e4e9ce2f0",
        "batch": "c43fb3a45497e335afbc2a301fa10aa22ae771665135e89fbd04e99326ed30ad",
        "wal": "5d5c91accdd7dfebf38ca38a27d125e25dd6a458016f9f279c7f523d778ee671",
        "segment": "9cffdfd0108ca81b0d386ea30a9481af83754f53a1f0666e251ffc78e382fff3",
        "segment_pushdown": "1df4a8f024be230c0fbe2dbac9c0948ea2762cb4b3ee46610f8ca215eb1cd222",
        "segment_aggregate": "46ecc39fdf6e948639c6e01541a907656f075ae5c4536ec72093078ae66726ca",
    }

    def test_writer_outputs_are_byte_identical(self):
        digests = {
            name: hashlib.sha256(blob).hexdigest()
            for name, blob in _writer_outputs().items()
        }
        assert digests == self.DIGESTS

    def test_spec_fingerprint_is_unchanged(self):
        # Stores record this hash in their manifest; a new value would
        # refuse to open every existing store.
        spec = {
            "name": "hh", "domain_size": 32, "epsilon": 1.1, "branching": 4,
            "postprocess": "consistency+norm_sub", "consistency": True,
        }
        assert spec_fingerprint(spec) == (
            "ffaf41453541f51f464a1680ae194e96a367d7dbad63c34c4bd29b2d1ea91b0c"
        )
