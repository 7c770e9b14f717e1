"""Tests for the client/server streaming API of the range-query protocols.

Covers the core guarantees of the redesign:

* ``run()`` is a thin wrapper: with the same seeded generator, one client
  batch plus one server produces an estimator identical to ``run()``;
* sharding invariance -- ingesting any partition of a report stream on any
  number of servers and merging in any order finalizes to frequencies that
  are *exactly* (``np.array_equal``) those of single-server ingestion;
* reports and accumulator states survive ``to_bytes``/``from_bytes``;
  OUE, SUE and THE reports travel as packed bits, and reports written
  with the older ``"array"`` payloads ingest to the same state;
* the CLI ``encode`` / ``aggregate`` / ``merge`` pipeline reproduces the
  same exactness guarantees on files.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro import (
    FlatRangeQuery,
    HaarHRR,
    HierarchicalHistogram,
    ProtocolUsageError,
    load_server,
    make_protocol,
    protocol_from_spec,
)
from repro.cli import main, write_items
from repro.core.protocol import RangeQueryEstimator
from repro.core.serialization import pack_blob, pack_report_batch, unpack_blob
from repro.core.session import LevelReport, Report, load_server_file
from repro.core.types import Domain
from repro.service import ingest_batches_single_process

PROTOCOL_CASES = [
    pytest.param(lambda: FlatRangeQuery(64, 1.1, oracle="oue"), id="flat-oue"),
    pytest.param(lambda: FlatRangeQuery(64, 1.1, oracle="grr"), id="flat-grr"),
    pytest.param(lambda: FlatRangeQuery(64, 1.1, oracle="hrr"), id="flat-hrr"),
    pytest.param(lambda: FlatRangeQuery(64, 1.1, oracle="sue"), id="flat-sue"),
    pytest.param(lambda: FlatRangeQuery(64, 1.1, oracle="the"), id="flat-the"),
    pytest.param(lambda: FlatRangeQuery(16, 1.1, oracle="she"), id="flat-she"),
    pytest.param(lambda: FlatRangeQuery(16, 1.1, oracle="olh"), id="flat-olh"),
    pytest.param(
        lambda: HierarchicalHistogram(64, 1.1, branching=4, oracle="oue"),
        id="hh-oue-ci",
    ),
    pytest.param(
        lambda: HierarchicalHistogram(64, 1.1, branching=4, oracle="hrr", consistency=False),
        id="hh-hrr",
    ),
    pytest.param(
        lambda: HierarchicalHistogram(16, 1.1, branching=4, oracle="olh"),
        id="hh-olh",
    ),
    pytest.param(
        lambda: HierarchicalHistogram(64, 1.1, branching=4, level_strategy="split"),
        id="hh-split",
    ),
    pytest.param(lambda: HaarHRR(64, 1.1), id="haar"),
]


def _items_for(protocol, n_users=600, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, protocol.domain_size, size=n_users)


def _encode_stream(protocol, items, n_batches=8, seed=42):
    """Encode ``items`` as a stream of report batches from one rng."""
    client = protocol.client()
    rng = np.random.default_rng(seed)
    return [client.encode_batch(batch, rng=rng) for batch in np.array_split(items, n_batches)]


class TestRunIsAThinWrapper:
    @pytest.mark.parametrize("make", PROTOCOL_CASES)
    def test_run_equals_one_client_one_server(self, make):
        protocol = make()
        items = _items_for(protocol)
        via_run = protocol.run(items, rng=np.random.default_rng(9))

        server = protocol.server()
        server.ingest(protocol.client().encode_batch(items, rng=np.random.default_rng(9)))
        via_session = server.finalize()
        assert np.array_equal(
            via_run.estimated_frequencies(), via_session.estimated_frequencies()
        )

    @pytest.mark.parametrize("make", PROTOCOL_CASES)
    def test_estimates_track_the_population(self, make):
        """Statistical sanity: the streamed estimator is near the truth."""
        protocol = make()
        rng = np.random.default_rng(1)
        items = rng.integers(0, protocol.domain_size // 2, size=4000)
        server = protocol.server().ingest(_encode_stream(protocol, items))
        estimator = server.finalize()
        exact = Domain(protocol.domain_size).frequencies(items)
        answer = estimator.range_query((0, protocol.domain_size // 2 - 1))
        truth = float(exact[: protocol.domain_size // 2].sum())
        # GRR's variance grows linearly with D (which is why the paper only
        # uses it inside OLH); give it a correspondingly wider band.
        wide = isinstance(protocol, FlatRangeQuery) and protocol.oracle_name == "grr"
        assert answer == pytest.approx(truth, abs=1.5 if wide else 0.25)


class TestShardingInvariance:
    @pytest.mark.parametrize("make", PROTOCOL_CASES)
    def test_any_sharding_any_merge_order_is_exact(self, make):
        protocol = make()
        reports = _encode_stream(protocol, _items_for(protocol))
        reference = (
            protocol.server().ingest(reports).finalize().estimated_frequencies()
        )

        shards = [protocol.server() for _ in range(3)]
        for index, report in enumerate(reports):
            shards[index % 3].ingest(report)

        orders = [(0, 1, 2), (2, 0, 1), (1, 2, 0)]
        for order in orders:
            states = [shards[i].state.copy() for i in order]
            combined = protocol.server(state=states[0])
            combined.merge(states[1]).merge(states[2])
            assert combined.n_reports == len(_items_for(protocol))
            assert np.array_equal(
                combined.finalize().estimated_frequencies(), reference
            )

    @pytest.mark.parametrize("make", PROTOCOL_CASES)
    def test_merge_is_associative(self, make):
        protocol = make()
        reports = _encode_stream(protocol, _items_for(protocol), n_batches=3)
        parts = [protocol.server().ingest(report).state for report in reports]
        a, b, c = parts

        left = protocol.server(state=a.copy().merge(b.copy()).merge(c.copy()))
        right = protocol.server(state=a.copy().merge(b.copy().merge(c.copy())))
        assert np.array_equal(
            left.finalize().estimated_frequencies(),
            right.finalize().estimated_frequencies(),
        )

    def test_merge_rejects_mismatched_protocols(self):
        a = FlatRangeQuery(64, 1.1).server()
        b = FlatRangeQuery(64, 2.0).server()
        with pytest.raises(ProtocolUsageError):
            a.merge(b)
        hh = HierarchicalHistogram(64, 1.1).server()
        with pytest.raises(ProtocolUsageError):
            a.merge(hh)


class TestSessionBasics:
    @pytest.mark.parametrize("make", PROTOCOL_CASES)
    def test_single_item_encode(self, make):
        protocol = make()
        client = protocol.client()
        rng = np.random.default_rng(5)
        server = protocol.server()
        for item in range(10):
            server.ingest(client.encode(item % protocol.domain_size, rng=rng))
        assert server.n_reports == 10
        estimator = server.finalize()
        assert isinstance(estimator, RangeQueryEstimator)
        assert len(estimator.estimated_frequencies()) == protocol.domain_size

    def test_empty_batch_is_a_noop(self):
        protocol = FlatRangeQuery(64, 1.1)
        server = protocol.server()
        server.ingest(protocol.client().encode_batch(np.array([], dtype=np.int64)))
        assert server.n_reports == 0

    def test_finalize_without_reports_raises(self):
        for protocol in (FlatRangeQuery(64, 1.1), HierarchicalHistogram(64, 1.1), HaarHRR(64, 1.1)):
            with pytest.raises(ProtocolUsageError):
                protocol.server().finalize()

    def test_server_rejects_wrong_report_type(self):
        flat = FlatRangeQuery(64, 1.1)
        haar_report = HaarHRR(64, 1.1).client().encode_batch(np.arange(8))
        with pytest.raises(ProtocolUsageError):
            flat.server().ingest(haar_report)

    def test_ingest_after_finalize_keeps_accumulating(self):
        protocol = FlatRangeQuery(64, 1.1)
        reports = _encode_stream(protocol, _items_for(protocol), n_batches=2)
        incremental = protocol.server().ingest(reports[0])
        incremental.finalize()
        incremental.ingest(reports[1])
        reference = protocol.server().ingest(reports)
        assert np.array_equal(
            incremental.finalize().estimated_frequencies(),
            reference.finalize().estimated_frequencies(),
        )


class TestIngestIsAtomic:
    """A batch that does not fit the server is refused before any of it is folded in."""

    def _primed(self, protocol):
        server = protocol.server()
        server.ingest(protocol.client().encode_batch(np.arange(protocol.domain_size), rng=1))
        return server, server.to_bytes()

    def test_foreign_report_after_a_valid_one_refuses_the_batch(self):
        protocol = FlatRangeQuery(64, 1.1)
        server, before = self._primed(protocol)
        valid = protocol.client().encode_batch(np.arange(64), rng=2)
        foreign = HaarHRR(64, 1.1).client().encode_batch(np.arange(64), rng=3)
        with pytest.raises(ProtocolUsageError, match="cannot ingest a haar report"):
            server.ingest([valid, foreign])
        assert server.to_bytes() == before

    def test_non_report_after_a_valid_one_refuses_the_batch(self):
        protocol = FlatRangeQuery(64, 1.1)
        server, before = self._primed(protocol)
        valid = protocol.client().encode_batch(np.arange(64), rng=2)
        with pytest.raises(ProtocolUsageError, match="expects Report instances"):
            server.ingest([valid, valid.to_bytes()])
        assert server.to_bytes() == before

    def test_unknown_level_refuses_the_report_before_its_known_levels(self):
        protocol = HierarchicalHistogram(64, 1.1, branching=4)
        server, before = self._primed(protocol)
        report = protocol.client().encode_batch(np.arange(64), rng=2)
        stray = LevelReport(
            report.family,
            {**report.level_payloads, 9: report.level_payloads[3]},
            report.level_user_counts,
            report.n_users,
        )
        with pytest.raises(ProtocolUsageError, match="unknown level 9"):
            server.ingest(stray)
        assert server.to_bytes() == before

    def test_missing_level_user_counts_refuse_the_report(self):
        protocol = HierarchicalHistogram(64, 1.1, branching=4)
        server, before = self._primed(protocol)
        report = protocol.client().encode_batch(np.arange(64), rng=2)
        short = LevelReport(
            report.family,
            report.level_payloads,
            report.level_user_counts[:2],
            report.n_users,
        )
        with pytest.raises(ProtocolUsageError, match="too few for level 2"):
            server.ingest(short)
        assert server.to_bytes() == before

    # Payloads that decode but do not fit the level's oracle: (server
    # oracle, misfit report from a valid one of that oracle, match).
    PAYLOAD_MISFITS = {
        "oue-after-olh": (
            "olh", lambda valid: _flat_report("oue"), "olh expects local-hash reports"
        ),
        "hrr-after-olh": (
            "olh", lambda valid: _flat_report("hrr"), "olh expects local-hash reports"
        ),
        "olh-after-oue": (
            "oue", lambda valid: _flat_report("olh"), "oue expects an array"
        ),
        "wrong-g": (
            "olh",
            lambda valid: _refit(
                valid, replace(valid.level_payloads[0], num_buckets=2)
            ),
            "g=2",
        ),
        "wrong-width": (
            "oue", lambda valid: _refit(valid, valid.level_payloads[0][:, 1:]), r"\(64, 63\)"
        ),
        "wrong-length": (
            "oue", lambda valid: _refit(valid, valid.level_payloads[0][1:]), r"\(63, 64\)"
        ),
    }

    @pytest.mark.parametrize("case", sorted(PAYLOAD_MISFITS))
    def test_payload_misfit_after_a_valid_report_refuses_the_batch(self, case):
        oracle, make_misfit, match = self.PAYLOAD_MISFITS[case]
        protocol = FlatRangeQuery(64, 1.1, oracle=oracle)
        server, before = self._primed(protocol)
        valid = protocol.client().encode_batch(np.arange(64), rng=2)
        with pytest.raises(ProtocolUsageError, match=match):
            server.ingest([valid, make_misfit(valid)])
        assert server.to_bytes() == before

    @pytest.mark.parametrize("oracle", ["oue", "sue", "the"])
    def test_unary_entry_outside_zero_one_is_refused(self, oracle):
        protocol = FlatRangeQuery(16, 1.1, oracle=oracle)
        server, before = self._primed(protocol)
        valid = protocol.client().encode_batch(np.arange(16), rng=2)
        entries = valid.level_payloads[0].astype(np.uint8)
        entries[0, 0] = 7
        with pytest.raises(ProtocolUsageError, match="must be 0 or 1"):
            server.ingest([valid, _refit(valid, entries)])
        assert server.to_bytes() == before
        # The same entries as bool hold only bits, so they are accepted.
        server.ingest(_refit(valid, entries.astype(np.bool_)))
        assert server.n_reports == 2 * 16

    def test_misfit_last_level_refuses_the_report_before_its_first_levels(self):
        protocol = HierarchicalHistogram(64, 1.1, branching=4, oracle="olh")
        server, before = self._primed(protocol)
        report = protocol.client().encode_batch(np.arange(64), rng=2)
        last = max(report.level_payloads)
        rows = len(report.level_payloads[last].buckets)
        payloads = {**report.level_payloads, last: np.zeros((rows, 64), np.int64)}
        mixed = LevelReport(report.family, payloads, report.level_user_counts, report.n_users)
        with pytest.raises(ProtocolUsageError, match=f"level {last}"):
            server.ingest(mixed)
        assert server.to_bytes() == before


def _flat_report(oracle: str) -> LevelReport:
    """A valid 64-user flat report under ``oracle`` (domain 64)."""
    return FlatRangeQuery(64, 1.1, oracle=oracle).client().encode_batch(np.arange(64), rng=3)


def _refit(report: LevelReport, payload) -> LevelReport:
    """``report`` with its one flat level's payload replaced."""
    return LevelReport(report.family, {0: payload}, report.level_user_counts, report.n_users)


def array_layout_bytes(report: LevelReport) -> bytes:
    """``report`` packed as before ``"bits"``: every level a uint8 ``"array"``."""
    arrays = {"level_user_counts": np.asarray(report.level_user_counts, np.int64)}
    levels = {}
    for level, payload in sorted(report.level_payloads.items()):
        arrays[f"level_{level}"] = payload.astype(np.uint8)
        levels[str(level)] = {"payload_kind": "array"}
    header = {"report_kind": report.family, "n_users": report.n_users, "levels": levels}
    return pack_blob(header, arrays)


UNARY_FAMILIES = [
    pytest.param(lambda oracle: FlatRangeQuery(64, 1.1, oracle=oracle), id="flat"),
    pytest.param(
        lambda oracle: HierarchicalHistogram(64, 1.1, branching=4, oracle=oracle), id="hh"
    ),
]


class TestBitPayloads:
    """OUE, SUE and THE reports travel as bits; older ``"array"`` reports still ingest."""

    @pytest.mark.parametrize("oracle", ["oue", "sue", "the"])
    @pytest.mark.parametrize("make", UNARY_FAMILIES)
    def test_unary_levels_travel_as_bits(self, make, oracle):
        protocol = make(oracle)
        report = protocol.client().encode_batch(np.arange(64), rng=5)
        header, _ = unpack_blob(report.to_bytes())
        revived = Report.from_bytes(report.to_bytes())
        assert sorted(revived.level_payloads) == sorted(report.level_payloads)
        for level, payload in report.level_payloads.items():
            assert header["levels"][str(level)] == {
                "payload_kind": "bits", "width": payload.shape[1]
            }
            assert payload.dtype == revived.level_payloads[level].dtype == np.bool_
            assert np.array_equal(revived.level_payloads[level], payload)

    @pytest.mark.parametrize(
        "oracle, kind",
        [("she", "array"), ("olh", "localhash"), ("hrr", "hadamard"), ("grr", "array")],
    )
    @pytest.mark.parametrize("make", UNARY_FAMILIES)
    def test_other_payload_kinds_are_unchanged(self, make, oracle, kind):
        report = make(oracle).client().encode_batch(np.arange(64), rng=5)
        header, _ = unpack_blob(report.to_bytes())
        assert {meta["payload_kind"] for meta in header["levels"].values()} == {kind}

    def test_bits_batch_is_at_most_a_seventh_of_the_array_batch(self):
        # The service benchmark's ingest batch: hh B=4 OUE, D=1024, 2,000 users.
        protocol = HierarchicalHistogram(1024, 1.1, branching=4, oracle="oue")
        items = np.random.default_rng(6).integers(0, 1024, size=2000)
        report = protocol.client().encode_batch(items, rng=7)
        bits = pack_report_batch(protocol.spec(), [report])
        arrays = pack_report_batch(protocol.spec(), [array_layout_bytes(report)])
        assert 7 * len(bits) <= len(arrays)

    @pytest.mark.parametrize("oracle", ["oue", "sue", "the"])
    @pytest.mark.parametrize("make", UNARY_FAMILIES)
    def test_array_layout_batches_ingest_like_bits(self, make, oracle):
        protocol = make(oracle)
        reports = _encode_stream(protocol, _items_for(protocol, n_users=300), n_batches=3)
        spec = protocol.spec()
        bits = [pack_report_batch(spec, [report]) for report in reports]
        arrays = [pack_report_batch(spec, [array_layout_bytes(r)]) for r in reports]
        old = Report.from_bytes(array_layout_bytes(reports[0]))
        assert all(p.dtype == np.uint8 for p in old.level_payloads.values())
        assert (
            ingest_batches_single_process(spec, arrays).to_bytes()
            == ingest_batches_single_process(spec, bits).to_bytes()
        )


class TestSerialization:
    @pytest.mark.parametrize("make", PROTOCOL_CASES)
    def test_server_bytes_roundtrip_rebuilds_protocol(self, make):
        protocol = make()
        reports = _encode_stream(protocol, _items_for(protocol))
        server = protocol.server().ingest(reports)
        restored = load_server(server.to_bytes())
        assert restored.protocol.spec() == protocol.spec()
        assert restored.n_reports == server.n_reports
        assert np.array_equal(
            restored.finalize().estimated_frequencies(),
            server.finalize().estimated_frequencies(),
        )

    @pytest.mark.parametrize("make", PROTOCOL_CASES)
    def test_report_bytes_roundtrip(self, make):
        protocol = make()
        reports = _encode_stream(protocol, _items_for(protocol), n_batches=2)
        direct = protocol.server().ingest(reports)
        revived = protocol.server().ingest(
            [Report.from_bytes(report.to_bytes()) for report in reports]
        )
        assert np.array_equal(
            direct.finalize().estimated_frequencies(),
            revived.finalize().estimated_frequencies(),
        )

    @pytest.mark.parametrize("make", PROTOCOL_CASES)
    def test_protocol_spec_roundtrip(self, make):
        protocol = make()
        rebuilt = protocol_from_spec(protocol.spec())
        assert rebuilt.spec() == protocol.spec()
        assert rebuilt.name == protocol.name


class TestRegistryImprovements:
    def test_wavelet_alias(self):
        protocol = make_protocol("wavelet", 64, 1.0)
        assert isinstance(protocol, HaarHRR)

    def test_unknown_kwarg_names_handle_and_parameters(self):
        with pytest.raises(TypeError) as excinfo:
            make_protocol("hh", 64, 1.0, branchin=8)
        message = str(excinfo.value)
        assert "'hh'" in message and "branchin" in message and "branching" in message

    def test_unknown_protocol_lists_aliases(self):
        with pytest.raises(KeyError) as excinfo:
            make_protocol("nope", 64, 1.0)
        assert "wavelet" in str(excinfo.value)


class _FixedEstimator(RangeQueryEstimator):
    def __init__(self, frequencies):
        super().__init__(Domain(len(frequencies)))
        self._frequencies = np.asarray(frequencies, dtype=np.float64)

    def estimated_frequencies(self):
        return self._frequencies.copy()


class TestMonotoneCdfCache:
    def test_quantiles_use_and_invalidate_the_cache(self):
        estimator = _FixedEstimator([0.5, 0.1, 0.2, 0.2])
        assert estimator._monotone_cdf_cache is None
        first = estimator.quantile_query(0.5)
        cached = estimator._monotone_cdf_cache
        assert cached is not None
        assert estimator.quantile_query(0.5) == first
        assert estimator._monotone_cdf_cache is cached

        estimator._frequencies = np.array([0.0, 0.0, 0.0, 1.0])
        estimator.invalidate_cache()
        assert estimator._monotone_cdf_cache is None
        assert estimator.quantile_query(0.5) == 3


class TestCliStreamingPipeline:
    def test_encode_aggregate_merge_matches_single_pass(self, tmp_path):
        data = tmp_path / "users.csv"
        rng = np.random.default_rng(2)
        write_items(str(data), rng.integers(0, 64, size=3000))

        encode_args = [
            "encode",
            "--input", str(data),
            "--domain-size", "64",
            "--epsilon", "1.5",
            "--method", "hh",
            "--branching", "4",
            "--seed", "7",
            "--shards", "3",
            "--output", str(tmp_path / "reports.bin"),
        ]
        assert main(encode_args) == 0
        report_files = [str(tmp_path / f"reports.bin.{i}") for i in range(3)]

        for index, path in enumerate(report_files):
            assert main(["aggregate", "--reports", path,
                         "--output", str(tmp_path / f"shard{index}.state")]) == 0
        assert main(["aggregate", "--reports", *report_files,
                     "--output", str(tmp_path / "single.state")]) == 0

        out_path = tmp_path / "answers.json"
        merge_args = [
            "merge",
            "--states",
            str(tmp_path / "shard2.state"),
            str(tmp_path / "shard0.state"),
            str(tmp_path / "shard1.state"),
            "--ranges", "0:31,16:47",
            "--quantiles", "0.5",
            "--output", str(out_path),
            "--output-state", str(tmp_path / "merged.state"),
        ]
        assert main(merge_args) == 0

        result = json.loads(out_path.read_text())
        assert result["method"] == "TreeOUECI"
        assert result["n_users"] == 3000
        assert result["n_shards"] == 3
        assert set(result["ranges"]) == {"0:31", "16:47"}
        assert "0.5" in result["quantiles"]

        single = load_server_file(str(tmp_path / "single.state"))
        merged = load_server_file(str(tmp_path / "merged.state"))
        assert np.array_equal(
            single.finalize().estimated_frequencies(),
            merged.finalize().estimated_frequencies(),
        )

    def test_aggregate_rejects_mixed_configurations(self, tmp_path):
        data = tmp_path / "users.csv"
        write_items(str(data), np.arange(32))
        for epsilon, name in (("1.0", "a.bin"), ("2.0", "b.bin")):
            assert main([
                "encode", "--input", str(data), "--domain-size", "32",
                "--epsilon", epsilon, "--method", "flat", "--seed", "1",
                "--output", str(tmp_path / name),
            ]) == 0
        with pytest.raises(SystemExit):
            main([
                "aggregate",
                "--reports", str(tmp_path / "a.bin"), str(tmp_path / "b.bin"),
                "--output", str(tmp_path / "out.state"),
            ])
