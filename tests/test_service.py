"""Tests for the network-facing aggregation service (:mod:`repro.service`).

Three guarantees anchor the service layer:

* **Bit-identity**: sharded ingestion through the gateway -- any number
  of workers, any round-robin interleaving -- answers queries exactly as
  a single process ingesting the same framed batches would.  Merge is
  exact, so scale-out is never an accuracy trade.
* **Durability**: every service runs with an epoch store and a WAL.
  Every epoch close seals the epoch into the store, a hard kill loses
  nothing acknowledged (the WAL replays the epoch in flight), and a
  restart resumes with every closed epoch intact and ingestion
  continuing on the open epoch's key.
* **Wire hygiene**: the framed batch codec round-trips reports exactly
  and fails loudly (with offsets) on malformed input, and the gateway
  maps every failure mode onto a meaningful HTTP status instead of
  dying.
"""

import contextlib
import errno
import http.client
import json
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro import cli, make_protocol
from repro.core.serialization import (
    MAGIC_BATCH,
    SerializationError,
    pack_blob,
    pack_report_batch,
    read_wal_segment_header,
    report_batch_header,
    unpack_blob,
    unpack_report_batch,
)
from repro.core.session import LevelReport, Report, load_server
from repro.engine import Engine
from repro.service import (
    AggregationService,
    IngestWAL,
    ServiceThread,
    WorkerPool,
    generate_batches,
    ingest_batches_single_process,
    request_json,
)
from repro.service.faults import (
    ServiceProcess,
    chaos_stream,
    delivered_indices,
    kill_worker,
    truncate_wal_tail,
)
from repro.service.loadgen import percentile

from test_streaming_session import array_layout_bytes

SPEC = {"name": "flat", "domain_size": 64, "epsilon": 1.0}
TREE_SPEC = {"name": "hh", "domain_size": 64, "epsilon": 1.0, "branching": 4}
OLH_SPEC = {**SPEC, "oracle": "olh"}


def encode_reports(spec, n_users, seed, chunks=4):
    """Privatize ``n_users`` synthetic users into ``chunks`` reports."""
    protocol = make_protocol(
        spec["name"],
        spec["domain_size"],
        spec["epsilon"],
        **{k: v for k, v in spec.items() if k not in ("name", "domain_size", "epsilon")},
    )
    rng = np.random.default_rng(seed)
    items = rng.integers(0, spec["domain_size"], size=n_users)
    client = protocol.client()
    return protocol, [
        client.encode_batch(chunk, rng=rng) for chunk in np.array_split(items, chunks)
    ]


def reframe_batch(blob, **fields):
    """``blob`` with some batch header fields overridden, frames untouched."""
    start = len(MAGIC_BATCH) + 8
    (length,) = struct.unpack_from("<Q", blob, len(MAGIC_BATCH))
    header = {**json.loads(blob[start : start + length]), **fields}
    encoded = json.dumps(header).encode("utf-8")
    return MAGIC_BATCH + struct.pack("<Q", len(encoded)) + encoded + blob[start + length :]


class TestReportBatchCodec:
    def test_round_trip_report_objects(self):
        protocol, reports = encode_reports(SPEC, 120, seed=0, chunks=3)
        blob = pack_report_batch(protocol.spec(), reports)
        header, frames = unpack_report_batch(blob)
        assert header["count"] == 3
        assert header["n_users"] == 120
        assert header["protocol"] == protocol.spec()
        for original, frame in zip(reports, frames):
            assert frame == original.to_bytes()
            assert Report.from_bytes(frame).n_users == original.n_users

    def test_accepts_packed_bytes_and_live_protocols(self):
        protocol, reports = encode_reports(SPEC, 60, seed=1, chunks=2)
        from_objects = pack_report_batch(protocol, reports)
        from_bytes = pack_report_batch(
            protocol.spec(), [report.to_bytes() for report in reports]
        )
        assert from_objects == from_bytes  # a pure container either way
        assert report_batch_header(from_bytes)["n_users"] == 60

    def test_header_peek_is_cheap_and_consistent(self):
        protocol, reports = encode_reports(TREE_SPEC, 80, seed=2, chunks=2)
        blob = pack_report_batch(protocol.spec(), reports)
        header = report_batch_header(blob)
        assert header == unpack_report_batch(blob)[0]
        # peeking must also work on a truncated prefix that still holds
        # the header (the gateway routes before the body fully decodes)
        full_header_len = len(blob) - sum(8 + len(r.to_bytes()) for r in reports)
        assert report_batch_header(blob[:full_header_len]) == header

    def test_spec_is_optional(self):
        _, reports = encode_reports(SPEC, 30, seed=3, chunks=1)
        blob = pack_report_batch(None, reports)
        assert "protocol" not in report_batch_header(blob)

    def test_wrong_magic_is_refused(self):
        with pytest.raises(SerializationError, match="magic"):
            unpack_report_batch(b"REPROACC\x01" + b"\x00" * 32)
        with pytest.raises(SerializationError):
            report_batch_header(b"junk")

    def test_truncated_frames_report_offsets(self):
        protocol, reports = encode_reports(SPEC, 40, seed=4, chunks=2)
        blob = pack_report_batch(protocol.spec(), reports)
        with pytest.raises(SerializationError, match="offset"):
            unpack_report_batch(blob[:-5])

    def test_trailing_garbage_is_refused(self):
        protocol, reports = encode_reports(SPEC, 40, seed=5, chunks=1)
        blob = pack_report_batch(protocol.spec(), reports)
        with pytest.raises(SerializationError, match="trailing"):
            unpack_report_batch(blob + b"\x00\x01")

    def test_non_report_input_is_refused(self):
        with pytest.raises(SerializationError, match="cannot frame"):
            pack_report_batch(SPEC, [object()])


async def drain_every_worker(pool):
    """Every worker's packed shard state, in worker order, as /close drains them."""
    states, failures = await pool.close_workers(range(len(pool)))
    assert failures == {}
    return [states[index] for index in range(len(pool))]


class TestWorkerPool:
    def test_sharded_ingest_is_bit_identical_to_single_process(self):
        import asyncio

        protocol, reports = encode_reports(SPEC, 400, seed=6, chunks=8)
        blobs = [pack_report_batch(protocol.spec(), [report]) for report in reports]

        async def run():
            pool = WorkerPool(protocol.spec(), num_workers=3).start()
            try:
                for blob in blobs:
                    await pool.ingest_on(pool.pick_worker(), blob)
                stats = await pool.stats()
                states = await drain_every_worker(pool)
            finally:
                await pool.shutdown(graceful=True)
            return stats, states

        stats, states = asyncio.run(run())
        assert sum(stat["epoch_reports"] for stat in stats) == 400
        assert all(stat["errors"] == 0 for stat in stats)
        # merge the shard states in reverse order: still bit-identical
        merged = load_server(states[-1])
        for blob in reversed(states[:-1]):
            merged.merge(load_server(blob).state)
        reference = ingest_batches_single_process(protocol.spec(), blobs)
        assert merged.to_bytes() == reference.to_bytes()
        assert np.array_equal(
            merged.finalize().estimated_frequencies(),
            reference.finalize().estimated_frequencies(),
        )

    def test_worker_survives_malformed_batches(self):
        import asyncio

        protocol, reports = encode_reports(SPEC, 50, seed=7, chunks=1)
        good = pack_report_batch(protocol.spec(), reports)
        # Frames that decode but do not fit a flat server: a report of
        # another family, alone and after a valid flat frame (the batch
        # is refused whole), one without its level user count, and a
        # frame whose level meta is not an object.
        _, (foreign,) = encode_reports(TREE_SPEC, 30, seed=3, chunks=1)
        _, (valid,) = encode_reports(SPEC, 20, seed=4, chunks=1)
        other_family = pack_report_batch(protocol.spec(), [foreign])
        mixed = pack_report_batch(protocol.spec(), [valid, foreign])
        no_counts = pack_report_batch(
            protocol.spec(),
            [LevelReport("flat", valid.level_payloads, np.zeros(0, np.int64), 20)],
        )
        header, arrays = unpack_blob(valid.to_bytes())
        bad_meta = pack_report_batch(
            protocol.spec(), [pack_blob({**header, "levels": {"0": 7}}, arrays)]
        )

        # a hand-built container with valid framing but a corrupt report
        # inside (pack_report_batch itself refuses to frame garbage)
        import struct

        corrupt_frame = b"REPROACC\x01" + b"\x00" * 40
        batch_header = json.dumps(
            {"batch_kind": "report-batch", "count": 1, "n_users": 1}
        ).encode("utf-8")
        bad = (
            MAGIC_BATCH
            + struct.pack("<Q", len(batch_header))
            + batch_header
            + struct.pack("<Q", len(corrupt_frame))
            + corrupt_frame
        )

        async def run(spec, batches):
            pool = WorkerPool(spec, num_workers=1).start()
            try:
                before = await pool.stats()
                for batch in batches:
                    await pool.ingest_on(pool.pick_worker(), batch)
                stats = await pool.stats()
                states = await drain_every_worker(pool)
            finally:
                await pool.shutdown(graceful=True)
            return before, stats, states

        before, stats, states = asyncio.run(
            run(protocol.spec(), (bad, other_family, good, mixed, no_counts, bad_meta))
        )
        assert stats[0]["errors"] == 5
        assert stats[0]["batches"] == 1
        assert stats[0]["last_error"]
        assert stats[0]["pid"] == before[0]["pid"]
        assert load_server(states[0]).n_reports == 50
        assert states[0] == ingest_batches_single_process(SPEC, [good]).to_bytes()

        # An OLH-spec batch whose second frame decodes but carries an OUE
        # payload: refused whole before its valid first frame is absorbed,
        # and the worker lives on.
        olh, olh_reports = encode_reports(OLH_SPEC, 60, seed=8, chunks=2)
        olh_good = [pack_report_batch(olh.spec(), [report]) for report in olh_reports]
        _, (oue_frame,) = encode_reports(SPEC, 20, seed=9, chunks=1)
        misfit = pack_report_batch(olh.spec(), [olh_reports[0], oue_frame])
        before, stats, states = asyncio.run(
            run(olh.spec(), (olh_good[0], misfit, olh_good[1]))
        )
        assert stats[0]["pid"] == before[0]["pid"]
        assert stats[0]["errors"] == 1 and stats[0]["batches"] == 2
        assert "olh expects local-hash reports" in stats[0]["last_error"]
        assert states[0] == ingest_batches_single_process(olh.spec(), olh_good).to_bytes()


def durable(tmp_path):
    """The ``store_dir`` and ``wal_dir`` options every service needs."""
    return {"store_dir": str(tmp_path / "store"), "wal_dir": str(tmp_path / "wal")}


@pytest.fixture(scope="class")
def live_service(tmp_path_factory):
    """One running gateway (2 workers) shared by the e2e tests."""
    service = AggregationService(
        TREE_SPEC, num_workers=2, **durable(tmp_path_factory.mktemp("live"))
    )
    with ServiceThread(service) as handle:
        yield handle


class TestGatewayEndToEnd:
    N_USERS = 360

    def test_concurrent_ingest_close_query_matches_single_process(self, live_service):
        url = live_service.url
        assert request_json(url + "/healthz")["status"] == "ok"
        spec = request_json(url + "/spec")
        assert all(spec[key] == value for key, value in TREE_SPEC.items())

        protocol, reports = encode_reports(TREE_SPEC, self.N_USERS, seed=8, chunks=12)
        blobs = [pack_report_batch(protocol.spec(), [report]) for report in reports]

        failures = []

        def post(worker_blobs):
            try:
                for blob in worker_blobs:
                    reply = request_json(url + "/ingest", method="POST", body=blob)
                    assert reply["queued"] > 0
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                failures.append(exc)

        threads = [
            threading.Thread(target=post, args=(blobs[i::3],)) for i in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures

        stats = request_json(url + "/stats")
        assert stats["pending_reports"] == self.N_USERS
        closed = request_json(url + "/close", method="POST")
        assert closed["closed"] and closed["reports"] == self.N_USERS

        answer = request_json(
            url + "/query?ranges=0:15,16:63&quantiles=0.5&frequencies=1&window=all"
        )
        assert answer["n_users"] == self.N_USERS

        reference = ingest_batches_single_process(protocol.spec(), blobs)
        estimator = reference.finalize()
        for key, value in answer["ranges"].items():
            left, right = (int(part) for part in key.split(":"))
            assert value == estimator.range_query((left, right))
        assert answer["quantiles"]["0.5"] == int(estimator.quantile_query(0.5))
        assert answer["frequencies"] == [
            float(v) for v in estimator.estimated_frequencies()
        ]

    def test_postprocess_requery_changes_only_the_pipeline(self, live_service):
        url = live_service.url
        base = request_json(url + "/query?ranges=0:31")
        alt = request_json(url + "/query?ranges=0:31&postprocess=clip")
        assert alt["postprocess"] == "clip"
        assert base["n_users"] == alt["n_users"]

    def test_error_routes(self, live_service):
        url = live_service.url
        with pytest.raises(RuntimeError, match="404"):
            request_json(url + "/nope")
        with pytest.raises(RuntimeError, match="405"):
            request_json(url + "/ingest")  # GET on a POST route
        with pytest.raises(RuntimeError, match="not a framed report batch"):
            request_json(url + "/ingest", method="POST", body=b"junk")
        with pytest.raises(RuntimeError, match="411"):
            request_json(url + "/ingest", method="POST", body=b"")
        with pytest.raises(RuntimeError, match="400"):
            request_json(url + "/query?window=nonsense")
        with pytest.raises(RuntimeError, match="409"):
            request_json(url + "/query?window=17")  # unknown epoch
        # an endpoint past int64 is a 400, not a 500 (answered over the
        # epoch the first test of this class closed)
        with pytest.raises(RuntimeError, match="400"):
            request_json(url + "/query?ranges=0:99999999999999999999")
        swept = request_json(url + "/checkpoint", method="POST")
        assert swept["epochs"] == [0] and swept["written"] == 1
        # a batch for a different configuration is refused up front
        other, reports = encode_reports(SPEC, 10, seed=9, chunks=1)
        mismatched = pack_report_batch(other.spec(), reports)
        with pytest.raises(RuntimeError, match="different protocol"):
            request_json(url + "/ingest", method="POST", body=mismatched)
        # a header n_users that is not a non-negative integer is refused
        # before it is acknowledged or counted
        protocol, reports = encode_reports(TREE_SPEC, 10, seed=10, chunks=1)
        blob = pack_report_batch(protocol.spec(), reports)
        accepted = request_json(url + "/stats")["accepted"]["reports"]
        for n_users in ("x", -30):
            with pytest.raises(RuntimeError, match="400.*n_users"):
                request_json(
                    url + "/ingest", method="POST", body=reframe_batch(blob, n_users=n_users)
                )
        assert request_json(url + "/stats")["accepted"]["reports"] == accepted

    def test_truncated_body_gets_a_400_not_a_hang(self, live_service):
        connection = http.client.HTTPConnection("127.0.0.1", live_service.port, timeout=30)
        try:
            connection.putrequest("POST", "/ingest")
            connection.putheader("Content-Length", "1000")
            connection.endheaders()
            connection.send(b"short")
            connection.sock.shutdown(1)  # half-close: body can never arrive
            response = connection.getresponse()
            assert response.status == 400
            assert b"truncated body" in response.read()
        finally:
            connection.close()

    def test_queries_during_ingest_answer_200_or_409_before_the_first_close(
        self, tmp_path
    ):
        # Readers ask for window=all while batches land and epochs close
        # and seal.  A query may answer 409 (no closed epoch yet) only if
        # it was sent before the first close returned; any other answer
        # must be 200.
        epochs = [make_blobs(TREE_SPEC, 240, seed=30 + e, chunks=6)[0] for e in range(3)]
        service = AggregationService(TREE_SPEC, num_workers=2, **durable(tmp_path))
        answered, first, closed, stop = [], threading.Event(), threading.Event(), threading.Event()

        def read_queries(port):
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                while not stop.is_set():
                    after_close = closed.is_set()
                    try:
                        connection.request("GET", "/query?window=all&ranges=0:15&quantiles=0.5")
                        response = connection.getresponse()
                        response.read()
                        answered.append((response.status, after_close))
                    except (OSError, http.client.HTTPException):
                        answered.append((-1, after_close))
                        return
                    first.set()
            finally:
                connection.close()

        with ServiceThread(service) as handle:
            readers = [
                threading.Thread(target=read_queries, args=(handle.port,)) for _ in range(2)
            ]
            for reader in readers:
                reader.start()
            try:
                assert first.wait(30)
                for epoch, blobs in enumerate(epochs):
                    post_batches(handle.url, blobs, f"mix{epoch}")
                    assert request_json(handle.url + "/close", method="POST")["epoch"] == epoch
                    closed.set()
            finally:
                stop.set()
                for reader in readers:
                    reader.join(60)
            assert not any(reader.is_alive() for reader in readers)
        assert (409, False) in answered  # a reader asked before any epoch closed
        assert {status for status, after_close in answered if not after_close} <= {200, 409}
        assert {status for status, after_close in answered if after_close} == {200}


class TestGridQueries:
    def test_rectangles_are_answered_and_misfit_requests_refused(self, tmp_path):
        engine = Engine.open(make_protocol("grid2d", 16, 1.5, domain_size_y=8, branching=2))
        rng = np.random.default_rng(5)
        engine.session().absorb(
            np.stack([rng.integers(0, 16, 400), rng.integers(0, 8, 400)], axis=1), rng
        )
        estimator = engine.estimator()
        service = AggregationService(engine, num_workers=1, **durable(tmp_path))
        with ServiceThread(service) as handle:
            answer = request_json(handle.url + "/query?rectangles=0:15:0:7,2:5:3:6")
            for bad in (
                "rectangles=0:99999999999999999999:0:1",  # outside int64
                "rectangles=0:3:0:3&frequencies=1",  # a grid has no 1-D vector
                "rectangles=0:16:0:1",  # outside the domain
                "ranges=0:3",
            ):
                with pytest.raises(RuntimeError, match="400"):
                    request_json(handle.url + "/query?" + bad)
        assert answer["n_users"] == 400
        assert answer["rectangles"] == {
            "0:15:0:7": estimator.rectangle_query((0, 15), (0, 7)),
            "2:5:3:6": estimator.rectangle_query((2, 5), (3, 6)),
        }


class TestStoreRecovery:
    def test_kill_and_restore_loses_no_closed_epoch(self, tmp_path):
        options = durable(tmp_path)
        protocol, reports = encode_reports(SPEC, 300, seed=10, chunks=6)
        blobs = [pack_report_batch(protocol.spec(), [report]) for report in reports]

        service = AggregationService(SPEC, num_workers=2, **options)
        handle = ServiceThread(service).start()
        url = handle.url
        for blob in blobs[:3]:
            request_json(url + "/ingest", method="POST", body=blob)
        request_json(url + "/close", method="POST")
        for blob in blobs[3:5]:
            request_json(url + "/ingest", method="POST", body=blob)
        request_json(url + "/close", method="POST")
        before = request_json(url + "/query?ranges=0:31&window=all")
        # epoch 2 is mid-flight when the process dies: only the WAL holds it
        request_json(url + "/ingest", method="POST", body=blobs[5])
        handle.stop(flush=False)

        restored = AggregationService.from_store(
            options["store_dir"], num_workers=2, wal_dir=options["wal_dir"]
        )
        assert restored.engine.epochs == (0, 1)
        assert restored.current_epoch == 2
        with ServiceThread(restored) as handle2:
            url2 = handle2.url
            after = request_json(url2 + "/query?ranges=0:31&window=all")
            assert after["ranges"] == before["ranges"]
            assert after["n_users"] == before["n_users"]
            # the acked batch is replayed from the WAL, never re-sent
            assert request_json(url2 + "/stats")["replayed_batches"] == 1
            closed = request_json(url2 + "/close", method="POST")
            assert closed["epoch"] == 2 and closed["reports"] == 50
            windows = request_json(url2 + "/query?ranges=0:31&window=last:1")
            assert windows["epochs"] == [2]
            for epoch, batches in enumerate((blobs[:3], blobs[3:5], blobs[5:])):
                answer = request_json(url2 + f"/query?frequencies=1&window={epoch}")
                assert answer["frequencies"] == reference_frequencies(
                    protocol.spec(), batches
                )

    def test_graceful_stop_flushes_the_open_epoch(self, tmp_path):
        options = durable(tmp_path)
        protocol, reports = encode_reports(SPEC, 100, seed=11, chunks=2)
        service = AggregationService(SPEC, num_workers=2, **options)
        with ServiceThread(service) as handle:
            for report in reports:
                request_json(
                    handle.url + "/ingest",
                    method="POST",
                    body=pack_report_batch(protocol.spec(), [report]),
                )
            # no explicit /close: the context exit flushes
        from repro.engine import Engine

        engine = Engine.restore(options["store_dir"])
        assert engine.epochs == (0,)
        assert engine.n_reports() == 100

    def test_closed_and_recovered_epochs_are_sealed(self, tmp_path):
        # Each close seals the epoch into the store and then drops its WAL
        # segment: the log holds nothing closed, and a restart finds every
        # epoch sealed, nothing live and nothing to replay.
        blobs, _ = make_blobs(SPEC, 180, seed=12, chunks=6)
        service = AggregationService(SPEC, num_workers=2, **durable(tmp_path))
        with ServiceThread(service) as handle:
            for epoch, pair in enumerate((blobs[:3], blobs[3:])):
                post_batches(handle.url, pair, f"wal{epoch}")
                request_json(handle.url + "/close", method="POST")
            assert service.engine.sealed_epochs == (0, 1)
            assert service.engine.live_epochs == ()
            assert service.wal.scan() == []
            swept = request_json(handle.url + "/checkpoint", method="POST")
            assert swept["epochs"] == [0, 1]

        restored = AggregationService(SPEC, num_workers=2, **durable(tmp_path))
        with ServiceThread(restored) as handle:
            assert restored.engine.sealed_epochs == (0, 1)
            assert restored.engine.live_epochs == ()
            assert restored.current_epoch == 2
            assert restored.wal.scan() == []
            for epoch, pair in enumerate((blobs[:3], blobs[3:])):
                answer = request_json(
                    handle.url + f"/query?frequencies=1&window={epoch}"
                )
                reference = ingest_batches_single_process(SPEC, pair).finalize()
                assert answer["frequencies"] == [
                    float(v) for v in reference.estimated_frequencies()
                ]

    @pytest.mark.parametrize(
        "missing",
        [("store_dir",), ("wal_dir",), ("store_dir", "wal_dir")],
        ids=["no-store", "no-wal", "neither"],
    )
    def test_a_service_without_a_store_and_a_wal_is_refused(self, tmp_path, missing):
        options = {
            name: path for name, path in durable(tmp_path).items() if name not in missing
        }
        flags = [
            part
            for name, path in options.items()
            for part in ("--" + name.replace("_", "-"), path)
        ]
        message = "needs an epoch store .* --store-dir and --wal-dir"
        with pytest.raises(ValueError, match=message):
            AggregationService(SPEC, **options)
        with pytest.raises(SystemExit, match=message):
            cli.main(["serve", "--domain-size", "64", *flags])
        assert os.listdir(tmp_path) == []  # refused before anything ran

    def test_a_store_dir_other_than_the_engines_own_store_is_refused(self, tmp_path):
        engine = Engine.open(SPEC, store_dir=str(tmp_path / "store"))
        other = str(tmp_path / "other")
        with pytest.raises(ValueError, match="not the engine's own epoch store"):
            AggregationService(engine, store_dir=other, wal_dir=str(tmp_path / "wal"))
        assert sorted(os.listdir(tmp_path)) == ["store"]
        same = AggregationService(
            engine, store_dir=str(tmp_path / "store"), wal_dir=str(tmp_path / "wal")
        )
        assert same.engine.store is engine.store

    def test_open_segment_of_a_sealed_epoch_is_not_replayed(self, tmp_path):
        # A crash after /close sealed epoch 0 into the store but before it
        # dropped the epoch's WAL segment leaves that segment open on disk.
        blobs, reference = make_blobs(TREE_SPEC, 300, seed=13, chunks=6)
        store_dir, wal_dir = str(tmp_path / "store"), str(tmp_path / "wal")
        service = AggregationService(
            TREE_SPEC, num_workers=2, store_dir=store_dir, wal_dir=wal_dir
        )
        with ServiceThread(service) as handle:
            post_batches(handle.url, blobs, "cw")
            request_json(handle.url + "/close", method="POST")
        leftover = IngestWAL(wal_dir)
        for index, blob in enumerate(blobs):
            leftover.append(
                0, blob, key=f"cw:{index}", worker=index % 2,
                n_users=report_batch_header(blob)["n_users"],
            )
        leftover.close()

        restored = AggregationService.from_store(
            store_dir, num_workers=2, wal_dir=wal_dir
        )
        with ServiceThread(restored) as handle:
            request_json(handle.url + "/close", method="POST")
            assert restored.engine.n_reports() == 300
            answer = request_json(handle.url + "/query?frequencies=1&window=all")
            assert answer["n_users"] == 300
            assert answer["frequencies"] == reference
            assert restored.current_epoch == 1
            assert restored.wal.scan() == []

    def test_array_layout_batches_in_the_wal_replay(self, tmp_path):
        # A WAL segment written before unary reports travelled as bits
        # holds "array" (uint8) payloads; a restart replays and closes it
        # exactly like the same batches sent as bits.
        protocol, reports = encode_reports(TREE_SPEC, 300, seed=14, chunks=3)
        spec = protocol.spec()
        bits = [pack_report_batch(spec, [report]) for report in reports]
        reference = ingest_batches_single_process(spec, bits).finalize()
        store_dir, wal_dir = str(tmp_path / "store"), str(tmp_path / "wal")
        with ServiceThread(
            AggregationService(TREE_SPEC, num_workers=2, store_dir=store_dir, wal_dir=wal_dir)
        ):
            pass
        wal = IngestWAL(wal_dir)
        for index, report in enumerate(reports):
            blob = pack_report_batch(spec, [array_layout_bytes(report)])
            wal.append(0, blob, key=f"old:{index}", worker=index % 2, n_users=report.n_users)
        wal.close()

        restored = AggregationService.from_store(store_dir, num_workers=2, wal_dir=wal_dir)
        with ServiceThread(restored) as handle:
            assert request_json(handle.url + "/stats")["replayed_batches"] == 3
            closed = request_json(handle.url + "/close", method="POST")
            assert closed["epoch"] == 0 and closed["reports"] == 300
            answer = request_json(handle.url + "/query?frequencies=1&window=all")
            assert answer["frequencies"] == [
                float(v) for v in reference.estimated_frequencies()
            ]

    def test_fsynced_wal_replays_every_acked_batch(self, tmp_path):
        # With wal_sync the gateway appends each record from the executor,
        # one at a time under its WAL lock, and fsyncs it before the ack.
        blobs, reference = make_blobs(SPEC, 240, seed=27, chunks=8)
        store_dir, wal_dir = str(tmp_path / "store"), str(tmp_path / "wal")
        service = AggregationService(
            SPEC, num_workers=2, store_dir=store_dir, wal_dir=wal_dir, wal_sync=True
        )
        handle = ServiceThread(service).start()
        try:
            posters = [
                threading.Thread(
                    target=post_batches, args=(handle.url, blobs[i::2], f"sync{i}")
                )
                for i in range(2)
            ]
            for poster in posters:
                poster.start()
            for poster in posters:
                poster.join(60)
            assert not any(poster.is_alive() for poster in posters)
            stats = request_json(handle.url + "/stats")
            assert stats["accepted"]["batches"] == 8
            assert stats["wal"]["sync"] is True
        finally:
            handle.stop(flush=False)  # crash: the epoch lives only in the WAL

        restored = AggregationService.from_store(store_dir, num_workers=2, wal_dir=wal_dir)
        with ServiceThread(restored) as handle:
            assert request_json(handle.url + "/stats")["replayed_batches"] == 8
            closed = request_json(handle.url + "/close", method="POST")
            assert closed["epoch"] == 0 and closed["reports"] == 240
            assert_matches_reference(handle.url, reference)

    def test_query_labels_match_the_epochs_it_answers(self, tmp_path):
        # An epoch absorbed while a /query finalizes must not leak into
        # the answer's report count or epoch labels.
        blobs, reference = make_blobs(TREE_SPEC, 200, seed=14, chunks=4)
        late = ingest_batches_single_process(
            TREE_SPEC, make_blobs(TREE_SPEC, 300, seed=15, chunks=2)[0]
        ).state
        service = AggregationService(TREE_SPEC, num_workers=2, **durable(tmp_path))
        protocol = service.engine.protocol
        finalize = protocol.estimator_from_state

        def finalize_after_a_close(state):
            if not service.engine.live_epochs:
                service.engine.absorb_shard(late, epoch=1)
            return finalize(state)

        with ServiceThread(service) as handle:
            post_batches(handle.url, blobs, "race")
            request_json(handle.url + "/close", method="POST")
            protocol.estimator_from_state = finalize_after_a_close
            answer = request_json(
                handle.url + "/query?frequencies=1&window=last:1"
            )
            assert service.engine.epochs == (0, 1)
        assert answer["epochs"] == [0]
        assert answer["n_users"] == 200
        assert answer["frequencies"] == reference


class TestLoadgen:
    def test_percentile(self):
        assert percentile([], 99) == 0.0
        assert percentile([5.0], 99) == 5.0
        samples = [float(v) for v in range(1, 101)]
        assert percentile(samples, 50) == pytest.approx(50.5)
        assert percentile(samples, 100) == 100.0

    def test_grid_specs_are_refused(self):
        with pytest.raises(ValueError, match="1-D"):
            generate_batches(
                {"name": "grid2d", "domain_size": 8, "epsilon": 1.0},
                n_users=10,
                batch_size=5,
            )


def reference_frequencies(spec, blobs):
    """Single-process frequency estimates of ``blobs``, as /query sends them."""
    estimator = ingest_batches_single_process(spec, blobs).finalize()
    return [float(v) for v in estimator.estimated_frequencies()]


def make_blobs(spec, n_users, seed, chunks):
    """Framed one-report batches plus their single-process reference."""
    protocol, reports = encode_reports(spec, n_users, seed=seed, chunks=chunks)
    blobs = [pack_report_batch(protocol.spec(), [report]) for report in reports]
    return blobs, reference_frequencies(protocol.spec(), blobs)


def post_batches(url, blobs, prefix, start=0):
    """POST each batch under the idempotency key ``{prefix}:{index}``."""
    for index, blob in enumerate(blobs, start=start):
        request_json(
            url + "/ingest", method="POST", body=blob,
            headers={"Idempotency-Key": f"{prefix}:{index}"},
        )


def assert_matches_reference(url, reference_frequencies):
    """The strongest claim the service makes: answers are bit-identical."""
    answer = request_json(url + "/query?frequencies=1&window=all")
    assert answer["frequencies"] == reference_frequencies


class TestFaultTolerance:
    """Chaos tests: inject a fault, recover, demand bit-identity."""

    @pytest.mark.chaos
    def test_worker_kill_mid_ingest_is_exactly_once(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.service.gateway.SUPERVISE_INTERVAL_S", 0.05)
        blobs, reference = make_blobs(SPEC, 240, seed=20, chunks=8)
        service = AggregationService(SPEC, num_workers=2, **durable(tmp_path))
        with ServiceThread(service) as handle:
            url = handle.url
            for index, blob in enumerate(blobs[:4]):
                request_json(
                    url + "/ingest", method="POST", body=blob,
                    headers={"Idempotency-Key": f"wk:{index}"},
                )
            kill_worker(handle, 0)
            assert request_json(url + "/healthz")["status"] in ("ok", "degraded")
            for index, blob in enumerate(blobs[4:], start=4):
                request_json(
                    url + "/ingest", method="POST", body=blob,
                    headers={"Idempotency-Key": f"wk:{index}"},
                )
            closed = request_json(url + "/close", method="POST")
            assert closed["closed"] and closed["reports"] == 240
            assert_matches_reference(url, reference)
            stats = request_json(url + "/stats")
            assert stats["restart_count"] >= 1
            assert stats["replayed_batches"] >= 1

    @pytest.mark.chaos
    def test_ingest_during_a_respawn_replay_is_counted_once(self, tmp_path, monkeypatch):
        # The supervisor respawns a killed shard, then scans the WAL and
        # replays the shard's records into it.  A batch routed to the
        # revived shard and logged before that scan must reach it once:
        # not by the replay and again by its own send.
        monkeypatch.setattr("repro.service.gateway.SUPERVISE_INTERVAL_S", 0.05)
        blobs, reference = make_blobs(SPEC, 240, seed=20, chunks=8)
        service = AggregationService(SPEC, num_workers=2, **durable(tmp_path))
        with ServiceThread(service) as handle:
            post_batches(handle.url, blobs[:4], "rr")
            read_epoch, scanning = service.wal.read_epoch, threading.Event()

            def slow_scan(epoch):
                scanning.set()
                time.sleep(0.3)  # widen the respawn-to-scan window
                return read_epoch(epoch)

            service.wal.read_epoch = slow_scan
            kill_worker(handle, 0)
            assert scanning.wait(10)
            post_batches(handle.url, blobs[4:], "rr", start=4)
            closed = request_json(handle.url + "/close", method="POST")
            assert closed["reports"] == 240
            assert_matches_reference(handle.url, reference)
            assert request_json(handle.url + "/stats")["replayed_batches"] == 2

    @pytest.mark.chaos
    def test_all_workers_dead_defers_to_wal_and_recovers(self, tmp_path, monkeypatch):
        # No supervisor tick within the test: the close-time repair path.
        monkeypatch.setattr("repro.service.gateway.SUPERVISE_INTERVAL_S", 3600.0)
        blobs, reference = make_blobs(SPEC, 120, seed=21, chunks=4)
        service = AggregationService(SPEC, num_workers=2, **durable(tmp_path))
        with ServiceThread(service) as handle:
            url = handle.url
            request_json(
                url + "/ingest", method="POST", body=blobs[0],
                headers={"Idempotency-Key": "dead:0"},
            )
            kill_worker(handle, 0)
            kill_worker(handle, 1)
            # every shard is dead: the ingest is still acknowledged
            # (deferred to the respawn replay), not 503'd
            for index, blob in enumerate(blobs[1:], start=1):
                reply = request_json(
                    url + "/ingest", method="POST", body=blob,
                    headers={"Idempotency-Key": f"dead:{index}"},
                )
                assert reply["queued"] == 30
            assert request_json(url + "/healthz")["status"] == "degraded"
            closed = request_json(url + "/close", method="POST")
            assert closed["reports"] == 120
            assert_matches_reference(url, reference)
            stats = request_json(url + "/stats")
            assert stats["accepted"]["deferred_batches"] >= 1
            assert stats["restart_count"] >= 2

    @pytest.mark.chaos
    def test_gateway_sigkill_mid_epoch_replays_from_wal(self, tmp_path):
        blobs, reference = make_blobs(SPEC, 250, seed=22, chunks=5)
        wal_dir = str(tmp_path / "wal")
        store_dir = str(tmp_path / "store")
        with ServiceProcess(
            SPEC, store_dir=store_dir, wal_dir=wal_dir, num_workers=2
        ) as victim:
            url = victim.url
            for index, blob in enumerate(blobs[:3]):
                request_json(
                    url + "/ingest", method="POST", body=blob,
                    headers={"Idempotency-Key": f"gw:{index}"},
                )
            request_json(url + "/close", method="POST")
            # epoch 1 in flight: these two are acknowledged, then the
            # gateway dies before any close seals them
            for index, blob in enumerate(blobs[3:], start=3):
                request_json(
                    url + "/ingest", method="POST", body=blob,
                    headers={"Idempotency-Key": f"gw:{index}"},
                )
            victim.kill()

        restored = AggregationService.from_store(
            store_dir, num_workers=2, wal_dir=wal_dir
        )
        with ServiceThread(restored) as handle:
            url = handle.url
            stats = request_json(url + "/stats")
            assert stats["replayed_batches"] == 2
            assert stats["current_epoch"] == 1
            # a client retry of an already-recovered batch is a duplicate
            reply = request_json(
                url + "/ingest", method="POST", body=blobs[4],
                headers={"Idempotency-Key": "gw:4"},
            )
            assert reply.get("duplicate") is True
            closed = request_json(url + "/close", method="POST")
            assert closed["epoch"] == 1 and closed["reports"] == 100
            assert_matches_reference(url, reference)

    @pytest.mark.chaos
    def test_misfit_payload_does_not_crash_loop_wal_replay(self, tmp_path):
        # A batch whose frame decodes but carries another oracle's payload
        # is acknowledged and logged (only its header is checked before
        # the ack).  Its shard must refuse it, not die on it -- neither
        # live nor on every WAL replay after a gateway crash.
        blobs, reference = make_blobs(OLH_SPEC, 120, seed=24, chunks=4)
        _, (oue_frame,) = encode_reports(SPEC, 30, seed=25, chunks=1)
        misfit = pack_report_batch(OLH_SPEC, [oue_frame])
        wal_dir = str(tmp_path / "wal")
        store_dir = str(tmp_path / "store")
        with ServiceProcess(
            OLH_SPEC, store_dir=store_dir, wal_dir=wal_dir, num_workers=2
        ) as victim:
            post_batches(victim.url, blobs[:2], "misfit")
            post_batches(victim.url, [misfit], "misfit-bad")
            post_batches(victim.url, blobs[2:], "misfit", start=2)
            victim.kill()

        restored = AggregationService.from_store(
            store_dir, num_workers=2, wal_dir=wal_dir
        )
        with ServiceThread(restored) as handle:
            url = handle.url
            health = request_json(url + "/healthz")
            assert health["status"] == "ok" and health["workers"]["restarts"] == 0
            closed = request_json(url + "/close", method="POST")
            assert closed["reports"] == 120
            assert_matches_reference(url, reference)
            stats = request_json(url + "/stats")
            assert stats["restart_count"] == 0
            assert sum(worker["errors"] for worker in stats["workers"]) == 1

    def test_chaos_stream_duplicates_reorders_dedup_exactly(self, tmp_path):
        blobs, reference = make_blobs(SPEC, 180, seed=23, chunks=6)
        schedule = chaos_stream(blobs, seed=7, drop=0.3, duplicate=0.5)
        assert delivered_indices(schedule) == list(range(len(blobs)))
        assert len(schedule) > len(blobs)  # seed 7 produces duplicates
        service = AggregationService(SPEC, num_workers=2, **durable(tmp_path))
        with ServiceThread(service) as handle:
            url = handle.url
            for index, blob in schedule:
                request_json(
                    url + "/ingest", method="POST", body=blob,
                    headers={"Idempotency-Key": f"chaos:{index}"},
                )
            closed = request_json(url + "/close", method="POST")
            assert closed["reports"] == 180
            assert_matches_reference(url, reference)
            stats = request_json(url + "/stats")
            assert stats["accepted"]["duplicates_dropped"] == len(schedule) - len(
                blobs
            )

    def test_torn_wal_tail_loses_only_the_unacked_record(self, tmp_path):
        blobs, _ = make_blobs(SPEC, 90, seed=24, chunks=3)
        more, _ = make_blobs(SPEC, 90, seed=29, chunks=3)
        options = dict(
            num_workers=2,
            store_dir=str(tmp_path / "store"),
            wal_dir=str(tmp_path / "wal"),
        )
        service = AggregationService(SPEC, **options)
        handle = ServiceThread(service).start()
        try:
            post_batches(handle.url, blobs, "torn")
        finally:
            handle.stop(flush=False)  # crash: epoch 0 lives only in the WAL
        # tear the tail of the open segment: the last record's append was
        # cut short, so its ack never went out -- recovery must keep the
        # first two batches and drop the torn one
        truncate_wal_tail(service.wal.segment_path(0), 4)

        restored = AggregationService(SPEC, **options)
        handle = ServiceThread(restored).start()
        try:
            stats = request_json(handle.url + "/stats")
            assert stats["accepted"]["reports"] == 60
            assert stats["replayed_batches"] == 2
            # acked into the same segment, after the torn bytes' offset
            post_batches(handle.url, more, "more")
        finally:
            handle.stop(flush=False)

        reference = ingest_batches_single_process(SPEC, blobs[:2] + more).finalize()
        survivor = AggregationService(SPEC, **options)
        with ServiceThread(survivor) as handle:
            closed = request_json(handle.url + "/close", method="POST")
            assert closed["reports"] == 150
            answer = request_json(handle.url + "/query?frequencies=1&window=all")
            assert answer["frequencies"] == [
                float(v) for v in reference.estimated_frequencies()
            ]

    def test_empty_wal_segment_gets_its_header(self, tmp_path):
        # A crash between creating a segment and writing its header
        # leaves a zero-byte file; later records must still be readable.
        blobs, reference = make_blobs(SPEC, 90, seed=30, chunks=3)
        options = dict(
            num_workers=2,
            store_dir=str(tmp_path / "store"),
            wal_dir=str(tmp_path / "wal"),
        )
        os.makedirs(options["wal_dir"])
        open(os.path.join(options["wal_dir"], "epoch-00000000.open"), "wb").close()
        service = AggregationService(SPEC, **options)
        handle = ServiceThread(service).start()
        try:
            assert request_json(handle.url + "/healthz")["status"] == "ok"
            post_batches(handle.url, blobs, "empty")
        finally:
            handle.stop(flush=False)

        restored = AggregationService(SPEC, **options)
        with ServiceThread(restored) as handle:
            closed = request_json(handle.url + "/close", method="POST")
            assert closed["closed"] and closed["reports"] == 90
            assert_matches_reference(handle.url, reference)

    @pytest.mark.parametrize(
        "damage", ["overwritten_header", "closed_segment", "corrupt_middle_record"]
    )
    def test_unreadable_wal_segment_refuses_the_start(self, tmp_path, damage):
        blobs, _ = make_blobs(SPEC, 90, seed=31, chunks=3)
        store_dir, wal_dir = str(tmp_path / "store"), str(tmp_path / "wal")
        service = AggregationService(
            SPEC, num_workers=2, store_dir=store_dir, wal_dir=wal_dir
        )
        handle = ServiceThread(service).start()
        try:
            post_batches(handle.url, blobs, "lost")
        finally:
            handle.stop(flush=False)
        segment = service.wal.segment_path(0)
        if damage == "overwritten_header":
            with open(segment, "r+b") as fh:
                fh.write(b"X")
        elif damage == "corrupt_middle_record":
            # One flipped payload byte in the second of three records: the
            # acknowledged third record follows it, so this is no torn tail.
            with open(segment, "rb") as fh:
                data = bytearray(fh.read())
            _, first = read_wal_segment_header(bytes(data))
            second = first + 12 + struct.unpack_from("<Q", data, first + 4)[0]
            third = second + 12 + struct.unpack_from("<Q", data, second + 4)[0]
            data[third - 1] ^= 0xFF
            with open(segment, "wb") as fh:
                fh.write(data)
        else:
            # what a storeless service of an earlier version left at /close
            segment = segment[: -len(".open")] + ".closed"
            os.replace(service.wal.segment_path(0), segment)
        name = os.path.basename(segment)
        with open(segment, "rb") as fh:
            damaged = fh.read()

        restored = AggregationService(
            SPEC, num_workers=2, store_dir=store_dir, wal_dir=wal_dir
        )
        with pytest.raises(SerializationError, match=name):
            ServiceThread(restored).start()
        with pytest.raises(SystemExit, match=name):
            cli.main([
                "serve", "--domain-size", "64", "--epsilon", "1.0",
                "--method", "flat", "--store-dir", store_dir,
                "--wal-dir", wal_dir,
            ])
        with open(segment, "rb") as fh:  # refused, never skipped or cut
            assert fh.read() == damaged

    @pytest.mark.chaos
    @pytest.mark.parametrize("close_before_crash", [False, True])
    def test_failed_seal_is_rebuilt_from_its_wal_segment(
        self, tmp_path, close_before_crash
    ):
        # A seal that fails at /close leaves the epoch live in RAM and its
        # segment on disk while ingest moves on: the one rebuild path left.
        # A later close that seals the next epoch must not make the orphan
        # look like the epoch in flight.
        blobs, _ = make_blobs(SPEC, 120, seed=32, chunks=4)
        options = dict(
            num_workers=2,
            store_dir=str(tmp_path / "store"),
            wal_dir=str(tmp_path / "wal"),
        )
        service = AggregationService(SPEC, **options)
        seal = service.engine.seal_epoch

        def seal_fails_once(epoch):
            service.engine.seal_epoch = seal
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        service.engine.seal_epoch = seal_fails_once
        handle = ServiceThread(service).start()
        try:
            post_batches(handle.url, blobs[:2], "seal")
            with pytest.raises(RuntimeError, match="500"):
                request_json(handle.url + "/close", method="POST")
            assert service.current_epoch == 1
            assert service.engine.live_epochs == (0,)
            post_batches(handle.url, blobs[2:], "seal", start=2)
            segments = ["epoch-00000000.open", "epoch-00000001.open"]
            if close_before_crash:
                request_json(handle.url + "/close", method="POST")
                segments.pop()  # epoch 1 is sealed: its segment goes
            assert sorted(os.listdir(options["wal_dir"])) == segments
        finally:
            handle.stop(flush=False)

        restored = AggregationService(SPEC, **options)
        with ServiceThread(restored) as handle:
            request_json(handle.url + "/close", method="POST")
            assert restored.current_epoch == 2
            assert restored.engine.epochs == (0, 1)
            assert restored.engine.n_reports() == 120
            assert restored.engine.sealed_epochs == (0, 1)
            assert os.listdir(options["wal_dir"]) == []
            for epoch, pair in enumerate((blobs[:2], blobs[2:])):
                answer = request_json(
                    handle.url + f"/query?frequencies=1&window={epoch}"
                )
                reference = ingest_batches_single_process(SPEC, pair).finalize()
                assert answer["frequencies"] == [
                    float(v) for v in reference.estimated_frequencies()
                ]

    def test_saturated_pool_rejects_with_429_and_retry_after(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.service.workers.MAX_INFLIGHT", 4)
        blobs, _ = make_blobs(SPEC, 60, seed=25, chunks=2)
        service = AggregationService(SPEC, num_workers=2, **durable(tmp_path))
        with ServiceThread(service) as handle:
            for worker in handle.service.pool.workers:
                worker.pending = 4  # every queue artificially at its bound
            with pytest.raises(RuntimeError, match="429.*>= 4 in-flight"):
                request_json(
                    handle.url + "/ingest", method="POST", body=blobs[0],
                    max_retries=0,
                )
            # the rejection carries a Retry-After hint
            conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
            try:
                conn.request(
                    "POST", "/ingest", body=blobs[0],
                    headers={"Content-Type": "application/octet-stream"},
                )
                response = conn.getresponse()
                response.read()
                assert response.status == 429
                assert float(response.getheader("Retry-After")) > 0
            finally:
                conn.close()
            for worker in handle.service.pool.workers:
                worker.pending = 0
            # with retries the client rides out the saturation window
            reply = request_json(
                handle.url + "/ingest", method="POST", body=blobs[0]
            )
            assert reply["queued"] == 30
            stats = request_json(handle.url + "/stats")
            assert stats["accepted"]["rejected_busy"] >= 2

    def test_stuck_connection_gets_408_not_a_held_slot(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.service.gateway.REQUEST_TIMEOUT_S", 0.3)
        service = AggregationService(SPEC, num_workers=1, **durable(tmp_path))
        with ServiceThread(service) as handle:
            with socket.create_connection(("127.0.0.1", handle.port), timeout=30) as sock:
                sock.sendall(b"POST /ingest HTTP/1.1\r\n")  # never finishes
                data = sock.recv(65536)
            assert b"408" in data.split(b"\r\n", 1)[0]
            # the service is fine afterwards
            assert request_json(handle.url + "/healthz")["status"] == "ok"
            stats = request_json(handle.url + "/stats")
            assert stats["timed_out_connections"] == 1

    @pytest.mark.chaos
    def test_pool_reaps_killed_workers_without_zombies(self):
        import asyncio
        import multiprocessing

        blobs, _ = make_blobs(SPEC, 60, seed=26, chunks=2)

        async def run():
            pool = WorkerPool(SPEC, num_workers=2).start()
            try:
                await pool.ingest_on(pool.pick_worker(), blobs[0])
                kill_worker(pool, 0)
                assert pool.dead_indices() == [0]
                respawned = await pool.ensure_alive(force=True)
                assert respawned == [0]
                assert pool.restart_count == 1
                await pool.ingest_on(0, blobs[1])  # replacement works
                stats = await pool.stats()
                assert all(stat["alive"] for stat in stats)
            finally:
                await pool.shutdown(graceful=True)

        asyncio.run(run())
        # shutdown reaped everything: no zombie children survive
        assert multiprocessing.active_children() == []


@contextlib.contextmanager
def serve(log_path, *flags):
    """``python -m repro.cli serve --port 0 FLAGS`` and the URL it serves on.

    The process is SIGKILLed on the way out unless the body ended it.
    """
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    with open(log_path, "w") as log:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *flags],
            stdout=log, stderr=subprocess.STDOUT, env=env,
        )
    try:
        deadline = time.monotonic() + 120
        while True:
            banner = re.search(r"serving \S+ on (http://\S+)", log_path.read_text())
            if banner or process.poll() is not None or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        assert banner, log_path.read_text()
        yield process, banner.group(1)
    finally:
        if process.poll() is None:
            process.kill()
        process.wait(60)


@pytest.mark.chaos
class TestServeProcess:
    """``repro-cli serve`` across a worker SIGKILL, a gateway SIGKILL, a
    restart from its store and WAL alone, and a graceful SIGTERM."""

    PROTOCOL = ["--method", "hh", "--domain-size", "256", "--epsilon", "1.1", "--branching", "4"]
    WINDOW = "window=0,1&ranges=0:127,64:191&quantiles=0.5,0.9"

    def test_no_acked_report_is_lost_across_kills_restart_and_sigterm(
        self, tmp_path, capsys
    ):
        store, wal = str(tmp_path / "store"), str(tmp_path / "wal")
        durable = ["--workers", "2", "--store-dir", store, "--wal-dir", wal]
        with serve(tmp_path / "first.log", *self.PROTOCOL, *durable) as (process, url):
            spec = request_json(url + "/spec")
            _, first = generate_batches(spec, n_users=3000, batch_size=500, seed=11)
            _, crashed = generate_batches(spec, n_users=1500, batch_size=500, seed=12)
            _, pending = generate_batches(spec, n_users=1000, batch_size=500, seed=13)
            post_batches(url, first[:3], "first")
            os.kill(request_json(url + "/stats")["workers"][0]["pid"], signal.SIGKILL)
            post_batches(url, first[3:], "first", start=3)
            assert request_json(url + "/close", method="POST")["reports"] == 3000
            assert request_json(url + "/stats")["restart_count"] >= 1
            assert_matches_reference(url, reference_frequencies(spec, first))
            before = request_json(url + "/query?window=last:1&ranges=0:127")
            post_batches(url, crashed, "crashed")  # acked, never closed
            process.kill()
            assert process.wait(60) == -signal.SIGKILL

        # The store's manifest is the configuration: no protocol flags.
        with serve(tmp_path / "restart.log", *durable) as (process, url):
            stats = request_json(url + "/stats")
            assert stats["current_epoch"] == 1
            assert stats["replayed_batches"] == len(crashed)
            after = request_json(url + "/query?window=last:1&ranges=0:127")
            assert after["ranges"] == before["ranges"]
            closed = request_json(url + "/close", method="POST")
            assert closed["epoch"] == 1 and closed["reports"] == 1500
            assert request_json(url + "/stats")["closed_reports"] == 4500
            assert_matches_reference(url, reference_frequencies(spec, first + crashed))
            gateway = request_json(url + "/query?" + self.WINDOW)
            post_batches(url, pending, "pending")  # epoch 2 is open at SIGTERM
            process.send_signal(signal.SIGTERM)
            assert process.wait(60) == 0

        engine = Engine.restore(store)
        assert engine.sealed_epochs == (0, 1, 2)
        assert engine.epoch_report_counts() == {0: 3000, 1: 1500, 2: 1000}
        capsys.readouterr()
        assert cli.main([
            "engine", "query", "--store-dir", store, "--window", "0,1",
            "--ranges", "0:127,64:191", "--quantiles", "0.5,0.9",
        ]) == 0
        offline = json.loads(capsys.readouterr().out)
        for key in ("epochs", "n_users", "ranges", "quantiles"):
            assert offline[key] == gateway[key], key
