"""Tests for the unified decomposition core.

Two guarantees anchor the refactor:

* **Bit-identity**: under a fixed seed, flat / hierarchical / Haar outputs
  through the generic ``DecompositionClient`` / ``DecompositionServer`` /
  ``simulate_aggregate`` engine are identical to the pre-refactor
  per-family implementations (the golden key ``run_simulated`` names the
  simulation path).  ``tests/data/golden_decomposition.json`` holds the
  exact (hex-float) frequencies captured from the seed code for 14
  configurations x 3 execution paths; HRR-based paths are allowed a
  <= 1e-12 drift, everything else must match exactly.
* **Codec unification**: one :class:`~repro.core.session.LevelReport`
  codec (``levels`` metadata plus ``level_<key>`` arrays) serves every
  family under its registered decoder name, and refuses a family-tagged
  header without ``levels``.
"""

import json
import pathlib

import numpy as np
import pytest

from repro import FlatRangeQuery, HaarHRR, HierarchicalHistogram
from repro.core.decomposition import Decomposition
from repro.core.session import LevelReport, Report, _pack_payload
from repro.core.serialization import SerializationError, pack_blob

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_decomposition.json"

CASES = {
    "flat-oue": lambda: FlatRangeQuery(64, 1.1, oracle="oue"),
    "flat-grr": lambda: FlatRangeQuery(64, 1.1, oracle="grr"),
    "flat-hrr": lambda: FlatRangeQuery(64, 1.1, oracle="hrr"),
    "flat-sue": lambda: FlatRangeQuery(64, 1.1, oracle="sue"),
    "flat-the": lambda: FlatRangeQuery(64, 1.1, oracle="the"),
    "flat-she": lambda: FlatRangeQuery(16, 1.1, oracle="she"),
    "flat-olh": lambda: FlatRangeQuery(16, 1.1, oracle="olh"),
    "hh-oue-ci": lambda: HierarchicalHistogram(64, 1.1, branching=4, oracle="oue"),
    "hh-hrr": lambda: HierarchicalHistogram(
        64, 1.1, branching=4, oracle="hrr", consistency=False
    ),
    "hh-olh": lambda: HierarchicalHistogram(16, 1.1, branching=4, oracle="olh"),
    "hh-split": lambda: HierarchicalHistogram(
        64, 1.1, branching=4, level_strategy="split"
    ),
    "hh-b2-grr": lambda: HierarchicalHistogram(
        32, 2.0, branching=2, oracle="grr", consistency=True
    ),
    "haar": lambda: HaarHRR(64, 1.1),
    "haar-48": lambda: HaarHRR(48, 0.8),
}

#: Cases whose pipeline contains an HRR oracle; the acceptance contract
#: allows these a <= 1e-12 drift against the pre-refactor goldens.
HRR_CASES = {"flat-hrr", "hh-hrr", "haar", "haar-48"}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def _expected(golden, case, path):
    return np.array([float.fromhex(value) for value in golden[case][path]])


def _check(case, actual, expected):
    if np.array_equal(actual, expected):
        return
    if case in HRR_CASES:
        assert np.allclose(actual, expected, rtol=0.0, atol=1e-12), (
            f"{case}: max drift {np.max(np.abs(actual - expected)):g} > 1e-12"
        )
        return
    raise AssertionError(
        f"{case}: not bit-identical to the pre-refactor output "
        f"(max drift {np.max(np.abs(actual - expected)):g})"
    )


class TestGoldenBitIdentity:
    """New generic engine == pre-refactor implementations, per seed."""

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_run_matches_pre_refactor(self, golden, case):
        protocol = CASES[case]()
        items = np.random.default_rng(0).integers(0, protocol.domain_size, size=600)
        estimator = protocol.run(items, rng=np.random.default_rng(9))
        _check(case, estimator.estimated_frequencies(), _expected(golden, case, "run"))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_run_simulated_matches_pre_refactor(self, golden, case):
        protocol = CASES[case]()
        items = np.random.default_rng(0).integers(0, protocol.domain_size, size=600)
        counts = np.bincount(items, minlength=protocol.domain_size)
        estimator = protocol.simulate_aggregate(counts, rng=np.random.default_rng(11))
        _check(
            case,
            estimator.estimated_frequencies(),
            _expected(golden, case, "run_simulated"),
        )

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_streamed_batches_match_pre_refactor(self, golden, case):
        protocol = CASES[case]()
        items = np.random.default_rng(0).integers(0, protocol.domain_size, size=600)
        client = protocol.client()
        server = protocol.server()
        rng = np.random.default_rng(21)
        for batch in np.array_split(items, 4):
            server.ingest(client.encode_batch(batch, rng=rng))
        _check(
            case,
            server.finalize().estimated_frequencies(),
            _expected(golden, case, "stream"),
        )


class TestDecompositionStructure:
    def test_every_protocol_exposes_its_decomposition(self):
        for make in CASES.values():
            protocol = make()
            decomposition = protocol.decomposition()
            assert isinstance(decomposition, Decomposition)
            assert decomposition is protocol.decomposition()  # cached
            levels = list(decomposition.levels)
            assert levels, "a decomposition must expose at least one level"
            slots = [decomposition.counts_slot(level) for level in levels]
            assert len(set(slots)) == len(slots)
            assert max(slots) < decomposition.counts_size

    def test_client_and_server_share_the_decomposition_labels(self):
        protocol = HierarchicalHistogram(64, 1.1)
        client = protocol.client()
        server = protocol.server()
        assert client.decomposition.label == "hierarchical"
        assert server.state.label == "hierarchical"


class TestUnifiedReportCodec:
    def _report_for(self, protocol, n_users=200, seed=3):
        items = np.random.default_rng(seed).integers(
            0, protocol.domain_size, size=n_users
        )
        return items, protocol.client().encode_batch(
            items, rng=np.random.default_rng(seed + 1)
        )

    @pytest.mark.parametrize(
        "make", [CASES["flat-oue"], CASES["hh-oue-ci"], CASES["haar"]]
    )
    def test_reports_are_level_reports(self, make):
        protocol = make()
        _, report = self._report_for(protocol)
        assert isinstance(report, LevelReport)
        assert report.family == protocol.server().decomposition.label
        revived = Report.from_bytes(report.to_bytes())
        assert isinstance(revived, LevelReport)
        assert revived.family == report.family
        assert sorted(revived.level_payloads) == sorted(report.level_payloads)
        assert np.array_equal(revived.level_user_counts, report.level_user_counts)

    @pytest.mark.parametrize("family", ["flat", "hierarchical", "haar", "grid2d"])
    def test_family_header_without_levels_is_refused(self, family):
        # The codec reads one layout: a registered family tag with no
        # ``levels`` map (what the pre-unification flat and Haar layouts
        # looked like) is a decode error, not a silently empty report.
        protocol = FlatRangeQuery(64, 1.1, oracle="oue")
        _, report = self._report_for(protocol)
        meta, arrays = _pack_payload(report.level_payloads[0], "payload")
        blob = pack_blob(
            {"report_kind": family, "n_users": report.n_users, "payload": meta}, arrays
        )
        with pytest.raises(SerializationError, match="levels"):
            Report.from_bytes(blob)

    def test_unregistered_families_decode_through_the_unified_layout(self):
        # A brand-new Decomposition subclass gets wire round-trips without
        # registering a decoder: unknown report_kind tags fall back to the
        # LevelReport codec as long as the blob uses the unified layout.
        report = LevelReport(
            "somenewfamily",
            {1: np.arange(4), 3: np.arange(2)},
            np.asarray([0, 4, 0, 2], np.int64),
            6,
        )
        revived = Report.from_bytes(report.to_bytes())
        assert isinstance(revived, LevelReport)
        assert revived.family == "somenewfamily"
        assert sorted(revived.level_payloads) == [1, 3]
        assert np.array_equal(revived.level_user_counts, report.level_user_counts)
