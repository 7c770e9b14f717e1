"""Tests for the unified post-processing subsystem (:mod:`repro.core.postprocess`).

Four guarantees anchor the pipeline layer:

* **Bit-identical defaults**: the empty pipeline (and the hierarchical
  ``consistency=True`` -> ``"consistency"`` mapping) reproduces the
  pre-pipeline outputs exactly; the golden decomposition tests pin this
  for all 14 configurations, and the equivalences are re-checked here at
  the pipeline level.
* **Mathematical contracts**: NormSub projects onto the simplex
  (hypothesis-checked), MonotoneCdf yields monotone clipped CDFs, the tree
  processors match the relocated constrained-inference math, and the grid
  processor reconciles shared marginals.
* **Round-trips**: pipeline spellings survive ``spec()`` ->
  ``protocol_from_spec``, serialized states, report files, engine
  checkpoints and the CLI ``--postprocess`` flag.
* **Accuracy**: on the ablation sweep's synthetic populations NormSub
  never increases the whole-workload range-query MSE of flat OUE.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import make_protocol, protocol_from_spec
from repro.cli import main as cli_main
from repro.core.postprocess import (
    FREQUENCIES,
    GRID,
    HAAR,
    TREE,
    GridMarginalConsistency,
    HaarCoefficientThreshold,
    MonotoneCdf,
    NonNegativeClip,
    NormSub,
    PostContext,
    PostPipeline,
    available_pipelines,
    make_pipeline,
    project_onto_simplex,
    tree_enforce_consistency,
)
from repro.core.session import load_server
from repro.engine import Engine
from repro.experiments.runner import build_range_workload
from repro.hierarchy.least_squares import least_squares_levels
from repro.hierarchy.tree import DomainTree
from repro.queries.prefix import monotone_cdf
from repro.queries.workload import true_answers
from repro.wavelet.haar import HaarCoefficients

COMMON_SETTINGS = settings(max_examples=60, deadline=None)


# --------------------------------------------------------------------- #
# registry and pipeline mechanics
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_every_token_resolves(self):
        for token in available_pipelines():
            pipeline = make_pipeline(token)
            assert isinstance(pipeline, PostPipeline)
            assert pipeline.spec == token or token == "none"

    def test_composite_spellings(self):
        pipeline = make_pipeline("consistency+norm_sub")
        assert pipeline.spec == "consistency+norm_sub"
        assert [processor.name for processor in pipeline.processors] == [
            "weighted_averaging",
            "mean_consistency",
            "norm_sub",
        ]

    def test_none_spellings_are_empty(self):
        for spelling in (None, "none", "", "none+none"):
            pipeline = make_pipeline(spelling)
            assert not pipeline
            assert pipeline.spec == "none"

    def test_unknown_token_raises(self):
        with pytest.raises(ValueError, match="unknown post-processing token"):
            make_pipeline("bogus")

    def test_kind_validation_fails_fast(self):
        with pytest.raises(ValueError, match="does not apply to 'frequencies'"):
            make_pipeline("consistency").validate_for(FREQUENCIES)
        with pytest.raises(ValueError, match="does not apply to 'haar'"):
            make_pipeline("norm_sub").validate_for(HAAR)
        make_pipeline("clip+norm_sub").validate_for(TREE)  # tree-compatible

    def test_protocol_constructors_validate_eagerly(self):
        with pytest.raises(ValueError):
            make_protocol("flat", 16, 1.1, postprocess="consistency")
        with pytest.raises(ValueError):
            make_protocol("haar", 16, 1.1, postprocess="norm_sub")
        with pytest.raises(ValueError):
            make_protocol("grid2d", 16, 1.1, postprocess="monotone_cdf")
        with pytest.raises(ValueError):
            make_protocol("hh", 16, 1.1, postprocess="definitely-not-a-token")

    def test_parametric_tokens(self):
        pipeline = make_pipeline("haar_threshold:3.5")
        assert pipeline.spec == "haar_threshold:3.5"
        assert pipeline.processors[0].multiplier == 3.5
        relaxed = make_pipeline("mean_consistency:none")
        assert relaxed.processors[0].root_value is None
        assert make_pipeline("mean_consistency:0.5").processors[0].root_value == 0.5
        with pytest.raises(ValueError, match="does not take"):
            make_pipeline("clip:2.0")
        with pytest.raises(ValueError, match="malformed parameter"):
            make_pipeline("haar_threshold:abc")

    def test_parameterized_processors_round_trip_through_spec(self):
        # A tuned processor instance must survive spec() -> rebuild with
        # its parameters intact (not silently reset to registry defaults).
        protocol = make_protocol(
            "haar", 64, 1.1, postprocess=HaarCoefficientThreshold(multiplier=10.0)
        )
        assert protocol.spec()["postprocess"] == "haar_threshold:10.0"
        rebuilt = protocol_from_spec(protocol.spec())
        counts = np.random.default_rng(28).integers(0, 200, size=64)
        a = protocol.simulate_aggregate(counts, rng=np.random.default_rng(29))
        b = rebuilt.simulate_aggregate(counts, rng=np.random.default_rng(29))
        assert np.array_equal(a.estimated_frequencies(), b.estimated_frequencies())
        default = make_protocol("haar", 64, 1.1, postprocess="haar_threshold")
        c = default.simulate_aggregate(counts, rng=np.random.default_rng(29))
        assert not np.array_equal(a.estimated_frequencies(), c.estimated_frequencies())

    def test_tree_consistency_folding(self):
        assert make_pipeline("consistency").tree_consistent() is True
        assert make_pipeline("consistency+norm_sub").tree_consistent() is False
        assert make_pipeline("least_squares").tree_consistent() is True
        assert make_pipeline("none").tree_consistent() is False
        assert make_pipeline("none").tree_consistent(initial=True) is True


# --------------------------------------------------------------------- #
# processor math
# --------------------------------------------------------------------- #
class TestSimplexProjection:
    @given(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=1,
            max_size=200,
        )
    )
    @COMMON_SETTINGS
    def test_normsub_outputs_live_on_the_simplex(self, values):
        projected = project_onto_simplex(np.asarray(values))
        assert np.all(projected >= 0.0)
        assert np.isclose(projected.sum(), 1.0, atol=1e-9)

    @given(
        st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False),
            min_size=1,
            max_size=100,
        )
    )
    @COMMON_SETTINGS
    def test_projection_is_idempotent(self, values):
        once = project_onto_simplex(np.asarray(values))
        twice = project_onto_simplex(once)
        assert np.allclose(once, twice, atol=1e-9)

    def test_simplex_vectors_are_fixed_points(self):
        rng = np.random.default_rng(0)
        simplex = rng.dirichlet(np.ones(50))
        assert np.allclose(project_onto_simplex(simplex), simplex, atol=1e-12)

    def test_projection_never_increases_distance_to_simplex_points(self):
        rng = np.random.default_rng(1)
        truth = rng.dirichlet(np.ones(64))
        noisy = truth + rng.normal(0, 0.05, size=64)
        projected = project_onto_simplex(noisy)
        assert np.linalg.norm(projected - truth) <= np.linalg.norm(noisy - truth) + 1e-12


class TestFrequencyProcessors:
    def test_clip_clamps_negatives_only(self):
        context = PostContext(kind=FREQUENCIES)
        values = np.asarray([-0.2, 0.0, 0.3, -0.1, 0.5])
        clipped = NonNegativeClip().apply(values, context)
        assert np.array_equal(clipped, [0.0, 0.0, 0.3, 0.0, 0.5])
        assert values[0] == -0.2  # input untouched

    def test_monotone_cdf_processor_contract(self):
        context = PostContext(kind=FREQUENCIES)
        rng = np.random.default_rng(2)
        noisy = rng.dirichlet(np.ones(32)) + rng.normal(0, 0.05, size=32)
        cleaned = MonotoneCdf().apply(noisy, context)
        cdf = np.cumsum(cleaned)
        assert np.all(cleaned >= 0.0)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[-1] <= 1.0 + 1e-12

    def test_monotonize_matches_the_old_inline_logic(self):
        rng = np.random.default_rng(3)
        raw_cdf = np.cumsum(rng.normal(0.03, 0.05, size=40))
        expected = np.clip(np.maximum.accumulate(raw_cdf), 0.0, 1.0)
        assert np.array_equal(MonotoneCdf.monotonize(raw_cdf), expected)

    def test_queries_prefix_delegates_to_the_processor(self, small_cauchy):
        protocol = make_protocol("flat", 64, 1.1)
        estimator = protocol.simulate_aggregate(small_cauchy.counts(), rng=np.random.default_rng(4))
        via_helper = monotone_cdf(estimator)
        via_processor = MonotoneCdf.monotonize(estimator.cdf(), clip=True)
        assert np.array_equal(via_helper, via_processor)
        assert np.all(np.diff(via_helper) >= 0.0)
        assert via_helper.min() >= 0.0 and via_helper.max() <= 1.0


class TestTreeProcessors:
    def _noisy_levels(self, domain, branching, seed):
        tree = DomainTree(domain, branching)
        rng = np.random.default_rng(seed)
        levels = [
            rng.normal(1.0 / tree.level_size(level), 0.05, size=tree.level_size(level))
            for level in range(tree.num_levels)
        ]
        levels[0] = np.array([1.0])
        return tree, levels

    def test_consistency_pipeline_matches_enforce_consistency(self):
        tree, levels = self._noisy_levels(64, 4, seed=5)
        context = PostContext(kind=TREE, branching=4, tree=tree)
        via_pipeline = make_pipeline("consistency").apply(levels, context)
        direct = tree_enforce_consistency(levels, 4, root_value=1.0)
        for a, b in zip(via_pipeline, direct):
            assert np.array_equal(a, b)

    def test_least_squares_pipeline_matches_module(self):
        tree, levels = self._noisy_levels(16, 2, seed=6)
        context = PostContext(kind=TREE, branching=2, tree=tree)
        via_pipeline = make_pipeline("least_squares").apply(levels, context)
        direct = least_squares_levels(tree, levels)
        for a, b in zip(via_pipeline, direct):
            assert np.array_equal(a, b)

    def test_norm_sub_projects_every_non_root_level(self):
        tree, levels = self._noisy_levels(64, 4, seed=7)
        context = PostContext(kind=TREE, branching=4, tree=tree)
        projected = NormSub().apply(levels, context)
        assert np.array_equal(projected[0], levels[0])
        for level in projected[1:]:
            assert np.all(level >= 0.0)
            assert np.isclose(level.sum(), 1.0, atol=1e-9)

    def test_missing_context_fails_cleanly(self):
        _, levels = self._noisy_levels(16, 2, seed=8)
        with pytest.raises(Exception, match="branching"):
            make_pipeline("consistency").apply(levels, PostContext(kind=TREE))
        with pytest.raises(Exception, match="tree"):
            make_pipeline("least_squares").apply(levels, PostContext(kind=TREE, branching=2))


class TestHaarThreshold:
    def test_zeroes_sub_floor_details_and_keeps_strong_ones(self):
        details = [np.asarray([0.5, -0.001, 0.3, 0.0005]), np.asarray([0.002, -0.4])]
        coefficients = HaarCoefficients(smooth=0.5, details=details)
        context = PostContext(kind=HAAR, noise_variances={1: 1e-4, 2: 1e-4})
        out = HaarCoefficientThreshold(multiplier=2.0).apply(coefficients, context)
        assert np.array_equal(out.details[0], [0.5, 0.0, 0.3, 0.0])
        assert np.array_equal(out.details[1], [0.0, -0.4])
        # Input untouched; infinite variances (no users) leave values alone.
        assert coefficients.details[0][1] == -0.001
        context_inf = PostContext(kind=HAAR, noise_variances={1: float("inf"), 2: 1e-4})
        untouched = HaarCoefficientThreshold().apply(coefficients, context_inf)
        assert np.array_equal(untouched.details[0], details[0])

    def test_missing_noise_floor_fails_cleanly(self):
        coefficients = HaarCoefficients(smooth=0.5, details=[np.zeros(2)])
        with pytest.raises(Exception, match="noise variances"):
            HaarCoefficientThreshold().apply(coefficients, PostContext(kind=HAAR))

    def test_protocol_surface_reduces_reconstruction_noise(self):
        counts = np.zeros(64)
        counts[10] = 4000
        counts[40] = 6000
        raw = make_protocol("haar", 64, 1.1).simulate_aggregate(
            counts, rng=np.random.default_rng(9)
        )
        denoised = make_protocol(
            "haar", 64, 1.1, postprocess="haar_threshold"
        ).simulate_aggregate(counts, rng=np.random.default_rng(9))
        truth = counts / counts.sum()
        raw_error = np.mean((raw.estimated_frequencies() - truth) ** 2)
        denoised_error = np.mean((denoised.estimated_frequencies() - truth) ** 2)
        assert denoised_error <= raw_error


class TestGridMarginalConsistency:
    def test_shared_marginals_agree_after_processing(self):
        rng = np.random.default_rng(10)
        tree = DomainTree(16, 2)
        grids = {
            (lx, ly): rng.normal(0.1, 0.05, size=(tree.level_size(lx), tree.level_size(ly)))
            for lx in range(1, 5)
            for ly in range(1, 5)
        }
        out = GridMarginalConsistency().apply(grids, PostContext(kind=GRID))
        for lx in range(1, 5):
            members = [out[(lx, ly)].sum(axis=1) for ly in range(1, 5)]
            for marginal in members[1:]:
                assert np.allclose(marginal, members[0], atol=1e-9)
        # The y-axis pass runs last, so y-marginals agree exactly too.
        for ly in range(1, 5):
            members = [out[(lx, ly)].sum(axis=0) for lx in range(1, 5)]
            for marginal in members[1:]:
                assert np.allclose(marginal, members[0], atol=1e-9)

    def test_protocol_surface_keeps_rectangle_accuracy(self):
        protocol = make_protocol("grid2d", 16, 1.5, branching=2, postprocess="grid_consistency")
        rng = np.random.default_rng(11)
        items = rng.integers(0, 16, size=(20_000, 2))
        estimator = protocol.run(items[:, 0], items[:, 1], rng=np.random.default_rng(12))
        answer = estimator.rectangle_query((0, 15), (0, 15))
        assert answer == pytest.approx(1.0, abs=0.2)


# --------------------------------------------------------------------- #
# default equivalences (the golden tests pin the full 14-config matrix)
# --------------------------------------------------------------------- #
class TestDefaultEquivalence:
    def test_consistency_flag_equals_consistency_pipeline(self):
        counts = np.random.default_rng(13).integers(0, 300, size=64)
        legacy = make_protocol("hh", 64, 1.1, branching=4, consistency=True)
        pipelined = make_protocol(
            "hh", 64, 1.1, branching=4, consistency=False, postprocess="consistency"
        )
        a = legacy.simulate_aggregate(counts, rng=np.random.default_rng(14))
        b = pipelined.simulate_aggregate(counts, rng=np.random.default_rng(14))
        assert np.array_equal(a.estimated_frequencies(), b.estimated_frequencies())
        assert a.is_consistent and b.is_consistent

    def test_explicit_none_equals_default_for_every_family(self):
        counts = np.random.default_rng(15).integers(1, 100, size=32)
        for handle, kwargs in (
            ("flat", {}),
            ("hh", {"consistency": False}),
            ("haar", {}),
        ):
            default = make_protocol(handle, 32, 1.1, **kwargs)
            explicit = make_protocol(handle, 32, 1.1, postprocess="none", **kwargs)
            a = default.simulate_aggregate(counts, rng=np.random.default_rng(16))
            b = explicit.simulate_aggregate(counts, rng=np.random.default_rng(16))
            assert np.array_equal(a.estimated_frequencies(), b.estimated_frequencies()), handle


class TestHierarchicalFlagTruthfulness:
    """An explicit pipeline drives the reported flag and the CI suffix."""

    def test_pipeline_none_overrides_default_consistency(self):
        protocol = make_protocol("hh", 64, 1.1, postprocess="none")
        assert protocol.consistency is False
        assert protocol.name == "TreeOUE"
        counts = np.random.default_rng(30).integers(0, 100, size=64)
        estimator = protocol.simulate_aggregate(counts, rng=np.random.default_rng(31))
        assert estimator.is_consistent is False

    def test_pipeline_consistency_reports_ci(self):
        protocol = make_protocol("hh", 64, 1.1, consistency=False, postprocess="consistency")
        assert protocol.consistency is True
        assert protocol.name == "TreeOUECI"

    def test_consistency_breaking_pipeline_reports_false(self):
        protocol = make_protocol("hh", 64, 1.1, postprocess="consistency+norm_sub")
        assert protocol.consistency is False
        assert protocol.name == "TreeOUE"
        # The reported flag survives the spec round-trip.
        rebuilt = protocol_from_spec(protocol.spec())
        assert rebuilt.consistency is False
        assert rebuilt.spec() == protocol.spec()


class TestWithConsistency:
    """Satellite: idempotent, cache-safe hierarchical post-processing."""

    def _estimator(self):
        counts = np.random.default_rng(17).integers(0, 500, size=64)
        protocol = make_protocol("hh", 64, 1.1, branching=4, consistency=False)
        return protocol.simulate_aggregate(counts, rng=np.random.default_rng(18))

    def test_with_consistency_is_idempotent(self):
        raw = self._estimator()
        once = raw.with_consistency()
        assert once is not raw
        assert once.with_consistency() is once
        assert once.with_consistency().with_consistency() is once

    def test_no_stale_caches_after_post_processing(self):
        raw = self._estimator()
        lefts = np.asarray([0, 3, 10], np.int64)
        rights = np.asarray([63, 40, 20], np.int64)
        # Warm every cache on the raw estimator first.
        raw.range_queries_batch(lefts, rights)
        raw.quantile_queries_batch([0.25, 0.5])
        fixed = raw.with_consistency()
        assert fixed._prefix_cache is None
        assert fixed._monotone_cdf_cache is None
        assert fixed._level_prefix_cache is None
        fresh = self._estimator().with_consistency()
        assert np.array_equal(
            fixed.range_queries_batch(lefts, rights),
            fresh.range_queries_batch(lefts, rights),
        )
        assert np.array_equal(
            fixed.quantile_queries_batch([0.25, 0.5]),
            fresh.quantile_queries_batch([0.25, 0.5]),
        )


# --------------------------------------------------------------------- #
# acceptance: NormSub on the ablation sweep's populations
# --------------------------------------------------------------------- #
class TestNormSubAccuracyAcceptance:
    @pytest.mark.parametrize("domain_size", [64, 256])
    def test_norm_sub_never_increases_workload_mse(self, domain_size):
        """Flat-OUE whole-workload MSE with NormSub <= raw.

        The per-seed guarantee is the item-level one (projection onto a
        convex set containing the truth contracts the L2 error); the
        workload-level comparison uses the ablation sweep's metric -- the
        MSE *mean over repetitions* -- on the sweep's synthetic Cauchy
        populations at its smoke scale (``n = 2^14`` users).
        """
        from repro.experiments.runner import cauchy_counts

        raw_mses, cleaned_mses = [], []
        for seed in range(10):
            counts = cauchy_counts(domain_size, 2**14, 0.4, rng=np.random.default_rng(seed))
            frequencies = counts / counts.sum()
            workload = build_range_workload(domain_size, 2**7, 16)
            truths = true_answers(workload, frequencies)
            raw = make_protocol("flat", domain_size, 1.1)
            cleaned = make_protocol("flat", domain_size, 1.1, postprocess="norm_sub")
            raw_estimator = raw.simulate_aggregate(counts, rng=np.random.default_rng(seed + 100))
            cleaned_estimator = cleaned.simulate_aggregate(
                counts, rng=np.random.default_rng(seed + 100)
            )
            # Same seed -> identical oracle randomness: the pipeline is the
            # only difference, and it is exactly the simplex projection.
            raw_frequencies = raw_estimator.estimated_frequencies()
            cleaned_frequencies = cleaned_estimator.estimated_frequencies()
            assert np.array_equal(project_onto_simplex(raw_frequencies), cleaned_frequencies)
            assert np.all(cleaned_frequencies >= 0.0)
            assert np.isclose(cleaned_frequencies.sum(), 1.0, atol=1e-9)
            # Guaranteed per seed: the projection contracts the item-level
            # L2 error (the truth lies on the simplex).
            assert np.linalg.norm(cleaned_frequencies - frequencies) <= (
                np.linalg.norm(raw_frequencies - frequencies) + 1e-12
            )
            raw_mses.append(float(np.mean((raw_estimator.range_queries(workload) - truths) ** 2)))
            cleaned_mses.append(
                float(
                    np.mean((cleaned_estimator.range_queries(workload) - truths) ** 2)
                )
            )
        assert np.mean(cleaned_mses) <= np.mean(raw_mses)


# --------------------------------------------------------------------- #
# round-trips: spec, serialization, engine, CLI
# --------------------------------------------------------------------- #
PIPELINED_SPECS = {
    "flat": {"postprocess": "norm_sub"},
    "hh": {"branching": 4, "consistency": False, "postprocess": "consistency+norm_sub"},
    "haar": {"postprocess": "haar_threshold"},
    "grid2d": {"domain_size_y": 16, "postprocess": "grid_consistency"},
}


class TestRoundTrips:
    @pytest.mark.parametrize("handle", sorted(PIPELINED_SPECS))
    def test_spec_round_trip(self, handle):
        protocol = make_protocol(handle, 16, 1.1, **PIPELINED_SPECS[handle])
        spec = protocol.spec()
        assert spec["postprocess"] == PIPELINED_SPECS[handle]["postprocess"]
        rebuilt = protocol_from_spec(spec)
        assert rebuilt.spec() == spec

    def test_default_spec_has_no_postprocess_key(self):
        # Pre-pipeline specs must stay byte-identical, so the key is only
        # written when a pipeline is explicitly configured.
        for handle in ("flat", "hh", "haar", "grid2d"):
            assert "postprocess" not in make_protocol(handle, 16, 1.1).spec()

    def test_state_round_trip_preserves_pipeline(self):
        protocol = make_protocol("flat", 32, 1.1, postprocess="norm_sub")
        items = np.random.default_rng(23).integers(0, 32, size=500)
        server = protocol.server()
        server.ingest(protocol.client().encode_batch(items, rng=np.random.default_rng(24)))
        revived = load_server(server.to_bytes())
        assert revived.protocol.spec()["postprocess"] == "norm_sub"
        frequencies = revived.finalize().estimated_frequencies()
        assert np.array_equal(frequencies, server.finalize().estimated_frequencies())
        assert np.isclose(frequencies.sum(), 1.0, atol=1e-9)

    def test_states_merge_across_pipeline_settings(self):
        # Post-processing never touches the sufficient statistics, so
        # shards of differently post-processed (but otherwise identical)
        # protocols are exchangeable.
        raw = make_protocol("flat", 32, 1.1)
        cleaned = make_protocol("flat", 32, 1.1, postprocess="norm_sub")
        rng = np.random.default_rng(25)
        server_a = raw.server()
        server_a.ingest(raw.client().encode_batch(rng.integers(0, 32, 300), rng=rng))
        server_b = cleaned.server()
        server_b.ingest(cleaned.client().encode_batch(rng.integers(0, 32, 300), rng=rng))
        merged = server_b.merge(server_a.state)
        assert merged.n_reports == 600
        frequencies = merged.finalize().estimated_frequencies()
        assert np.isclose(frequencies.sum(), 1.0, atol=1e-9)  # b's pipeline wins

    def test_engine_checkpoint_round_trip_and_override(self, tmp_path):
        protocol = make_protocol("flat", 32, 1.1, postprocess="norm_sub")
        engine = Engine.open(protocol)
        rng = np.random.default_rng(26)
        engine.session(epoch=0).absorb(rng.integers(0, 32, 400), rng=rng)
        engine.session(epoch=1).absorb(rng.integers(0, 32, 400), rng=rng)
        path = str(tmp_path / "svc.ckpt")
        engine.checkpoint(path)
        restored = Engine.restore(path)
        assert restored.spec()["postprocess"] == "norm_sub"
        frequencies = restored.estimator().estimated_frequencies()
        assert np.isclose(frequencies.sum(), 1.0, atol=1e-9)
        # Re-finalize the same shards under a different pipeline.
        raw_view = restored.with_postprocess("none")
        raw_frequencies = raw_view.estimator().estimated_frequencies()
        assert raw_frequencies.min() < 0.0  # OUE noise goes negative
        assert np.array_equal(project_onto_simplex(raw_frequencies), frequencies)
        # The views share the live shards of existing epochs: reports
        # absorbed through one view land in the other too.
        raw_view.session(epoch=1).absorb(rng.integers(0, 32, 100), rng=rng)
        assert restored.n_reports() == raw_view.n_reports() == 900


class TestCliPostprocess:
    def _encode(self, tmp_path, extra=()):
        users = tmp_path / "users.csv"
        users.write_text(
            "\n".join(str(v) for v in np.random.default_rng(27).integers(0, 64, 600))
            + "\n"
        )
        reports = tmp_path / "r.bin"
        cli_main(
            [
                "encode",
                "--input",
                str(users),
                "--domain-size",
                "64",
                "--method",
                "flat",
                "--seed",
                "3",
                "--output",
                str(reports),
                *extra,
            ]
        )
        return reports

    def test_encode_aggregate_merge_applies_pipeline(self, tmp_path, capsys):
        reports = self._encode(tmp_path, extra=["--postprocess", "norm_sub"])
        state = tmp_path / "s.state"
        cli_main(["aggregate", "--reports", str(reports), "--output", str(state)])
        out = tmp_path / "out.json"
        cli_main([ "merge", "--states", str(state), "--dump-frequencies", "--output", str(out), ])
        frequencies = np.asarray(json.loads(out.read_text())["frequencies"])
        assert frequencies.min() >= 0.0
        assert np.isclose(frequencies.sum(), 1.0, atol=1e-9)

    def test_aggregate_accepts_shards_differing_only_in_pipeline(self, tmp_path, capsys):
        # Post-processing never touches the accumulated statistics, so
        # report shards encoded under different pipelines fold together
        # (the first file's pipeline wins).
        plain = self._encode(tmp_path)
        cleaned = tmp_path / "r2.bin"
        users = tmp_path / "users.csv"
        cli_main(
            [
                "encode",
                "--input",
                str(users),
                "--domain-size",
                "64",
                "--method",
                "flat",
                "--postprocess",
                "norm_sub",
                "--seed",
                "4",
                "--output",
                str(cleaned),
            ]
        )
        state = tmp_path / "mixed.state"
        cli_main([ "aggregate", "--reports", str(cleaned), str(plain), "--output", str(state), ])
        out = tmp_path / "mixed.json"
        cli_main(["merge", "--states", str(state), "--dump-frequencies", "--output", str(out)])
        payload = json.loads(out.read_text())
        assert payload["n_users"] == 1200
        frequencies = np.asarray(payload["frequencies"])
        assert np.isclose(frequencies.sum(), 1.0, atol=1e-9)  # first file's pipeline

    def test_engine_query_postprocess_override(self, tmp_path, capsys):
        reports = self._encode(tmp_path)
        checkpoint = tmp_path / "svc.ckpt"
        cli_main(
            [
                "engine",
                "checkpoint",
                "--checkpoint",
                str(checkpoint),
                "--reports",
                str(reports),
            ]
        )
        out = tmp_path / "q.json"
        cli_main(
            [
                "engine",
                "query",
                "--checkpoint",
                str(checkpoint),
                "--dump-frequencies",
                "--postprocess",
                "norm_sub",
                "--output",
                str(out),
            ]
        )
        payload = json.loads(out.read_text())
        assert payload["postprocess"] == "norm_sub"
        frequencies = np.asarray(payload["frequencies"])
        assert frequencies.min() >= 0.0
        assert np.isclose(frequencies.sum(), 1.0, atol=1e-9)

    def test_engine_query_surfaces_window_errors(self, tmp_path, capsys):
        reports = self._encode(tmp_path)
        checkpoint = tmp_path / "svc.ckpt"
        cli_main(
            [
                "engine",
                "checkpoint",
                "--checkpoint",
                str(checkpoint),
                "--reports",
                str(reports),
            ]
        )
        with pytest.raises(SystemExit) as excinfo:
            cli_main(
                [
                    "engine",
                    "query",
                    "--checkpoint",
                    str(checkpoint),
                    "--window",
                    "last:9",
                    "--ranges",
                    "0:5",
                ]
            )
        assert "holds only 1" in str(excinfo.value)

    def test_bad_postprocess_token_exits_cleanly(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            self._encode(tmp_path, extra=["--postprocess", "nope"])
        assert "unknown post-processing token" in str(excinfo.value)
