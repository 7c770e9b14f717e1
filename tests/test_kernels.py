"""Tests for the kernel backend registry and backend equivalence.

Three layers of guarantees:

* **Registry semantics** (always run): selection order (explicit argument
  beats ``REPRO_KERNEL_BACKEND`` beats the numpy default), graceful
  degradation to numpy with a :class:`KernelBackendWarning` when a backend
  is unknown or unavailable, hard :class:`KernelBackendError` from
  ``get_backend``, and the guarantee that the backend is a pure execution
  knob -- never serialized into specs or accumulator configs, and states
  produced under different backends merge freely.
* **Batch encoding** (always run): ``encode_batches`` produces exactly the
  report stream of the equivalent ``encode_batch`` sequence.
* **Narrow unary sums** (always run): the numpy ``unary_sums`` int32
  accumulator for ``bool``/``uint8`` matrices equals an int64 sum, and
  wider integer inputs take the int64 fallback.
* **Exact OLH support** (always run): the division-free numpy
  ``olh_support`` equals a direct int64 count of
  ``((a x + b) mod P) mod g == y`` over generated shapes, bucket counts,
  chunks and the hash family's extreme parameters.
* **numpy/numba equivalence** (skipped when numba is absent): a hypothesis
  sweep driving every kernel with generated populations across seeds,
  dtypes and chunk sizes, asserting bit-identical outputs, plus a rerun of
  the 14 golden configurations under the numba backend (HRR cases allowed
  the contractual <= 1e-12 drift).
"""

import importlib.util
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FlatRangeQuery
from repro.core.kernels import (
    DEFAULT_KERNEL_BACKEND,
    KERNEL_BACKEND_ENV,
    KernelBackend,
    KernelBackendError,
    KernelBackendWarning,
    available_backends,
    clear_backend_cache,
    get_backend,
    resolve_backend,
)
from repro.core.kernels import reference
from repro.frequency_oracles import (
    GeneralizedRandomizedResponse,
    HadamardRandomizedResponse,
    OptimalLocalHashing,
    OptimizedUnaryEncoding,
)

from test_decomposition import CASES, _check, _expected, golden  # noqa: F401

HAVE_NUMBA = importlib.util.find_spec("numba") is not None

needs_numba = pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")

# JIT compilation dominates the first call of every kernel; keep example
# counts moderate and deadlines off.
SWEEP_SETTINGS = settings(max_examples=25, deadline=None)

#: Dtypes the unary (N, D) report matrices may arrive in.  Float dtypes
#: are excluded by contract: ``unary_sums`` consumes the bool matrices the
#: oracles report (decoded from the wire's bits), the uint8 matrices
#: ``unary_perturb`` produces, or int upcasts of them.
UNARY_DTYPES = (np.bool_, np.uint8, np.int32, np.int64)


@pytest.fixture(autouse=True)
def _no_backend_env(monkeypatch):
    """Isolate every test from an ambient REPRO_KERNEL_BACKEND setting."""
    monkeypatch.delenv(KERNEL_BACKEND_ENV, raising=False)


# --------------------------------------------------------------------- #
# registry semantics (no numba required)
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_available_backends_lists_both(self):
        assert available_backends() == ["numba", "numpy"]

    def test_get_numpy_backend(self):
        backend = get_backend("numpy")
        assert isinstance(backend, KernelBackend)
        assert backend.name == "numpy"
        for kernel in KernelBackend.KERNEL_NAMES:
            assert callable(getattr(backend, kernel))
        assert backend.multinomial_level_split is reference.multinomial_level_split

    def test_get_backend_is_cached(self):
        assert get_backend("numpy") is get_backend("NumPy  ".strip())

    def test_get_backend_unknown_raises(self):
        with pytest.raises(KernelBackendError, match="unknown kernel backend"):
            get_backend("fortran")

    def test_resolve_default_is_numpy(self):
        assert resolve_backend(None).name == DEFAULT_KERNEL_BACKEND

    def test_resolve_env_variable(self, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "numpy")
        assert resolve_backend(None).name == "numpy"

    def test_resolve_blank_env_is_default(self, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "   ")
        assert resolve_backend(None).name == DEFAULT_KERNEL_BACKEND

    def test_resolve_passthrough_instance(self):
        backend = KernelBackend("custom", dict(reference.KERNELS))
        assert resolve_backend(backend) is backend

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "no-such-backend")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend("numpy").name == "numpy"

    def test_unknown_name_warns_and_falls_back(self):
        with pytest.warns(KernelBackendWarning, match="unknown kernel backend"):
            backend = resolve_backend("no-such-backend")
        assert backend.name == DEFAULT_KERNEL_BACKEND

    def test_unknown_env_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "no-such-backend")
        with pytest.warns(KernelBackendWarning):
            assert resolve_backend(None).name == DEFAULT_KERNEL_BACKEND

    def test_missing_kernel_rejected(self):
        kernels = dict(reference.KERNELS)
        del kernels["olh_encode"]
        with pytest.raises(KernelBackendError, match="missing kernels"):
            KernelBackend("partial", kernels)

    def test_unavailable_backend_raises_from_get(self, monkeypatch):
        import repro.core.kernels as kernels_module

        def unavailable():
            raise ImportError("No module named 'numba'")

        monkeypatch.setattr(kernels_module, "_load_numba_backend", unavailable)
        monkeypatch.setitem(
            kernels_module._BACKEND_LOADERS, "numba", unavailable
        )
        clear_backend_cache()
        try:
            with pytest.raises(KernelBackendError, match="not available"):
                get_backend("numba")
        finally:
            clear_backend_cache()

    def test_unavailable_backend_degrades_from_resolve(self, monkeypatch):
        import repro.core.kernels as kernels_module

        def unavailable():
            raise ImportError("No module named 'numba'")

        monkeypatch.setitem(
            kernels_module._BACKEND_LOADERS, "numba", unavailable
        )
        clear_backend_cache()
        try:
            with pytest.warns(KernelBackendWarning, match="falling back"):
                backend = resolve_backend("numba")
            assert backend.name == "numpy"
            # The same degradation must hold when the request arrives
            # through the environment (a deployment toggling the knob on a
            # machine without the accelerator installed).
            monkeypatch.setenv(KERNEL_BACKEND_ENV, "numba")
            with pytest.warns(KernelBackendWarning):
                oracle = OptimizedUnaryEncoding(16, 1.0)
            assert oracle.kernel_backend == "numpy"
        finally:
            clear_backend_cache()


class TestBackendIsExecutionKnob:
    def test_oracle_exposes_backend_name(self):
        oracle = OptimizedUnaryEncoding(16, 1.0, kernel_backend="numpy")
        assert oracle.kernel_backend == "numpy"
        assert oracle.kernels is get_backend("numpy")

    def test_backend_not_in_spec_or_config(self, monkeypatch):
        baseline = FlatRangeQuery(32, 1.1, oracle="oue").spec()
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "numpy")
        assert FlatRangeQuery(32, 1.1, oracle="oue").spec() == baseline
        oracle = OptimizedUnaryEncoding(16, 1.0, kernel_backend="numpy")
        config = oracle.make_accumulator().config
        assert "backend" not in str(config).lower()

    def test_states_merge_across_backends(self):
        # Simulate heterogeneous shards with a distinctly-named backend
        # built from the same kernels: merging must only depend on the
        # protocol, never on who computed the sums.
        other = KernelBackend("other", dict(reference.KERNELS))
        protocol = FlatRangeQuery(32, 1.1, oracle="oue")
        items = np.random.default_rng(3).integers(0, 32, size=400)
        rng = np.random.default_rng(4)
        shard_a = protocol.server()
        shard_b = protocol.server()
        client = protocol.client()
        shard_a.ingest(client.encode_batch(items[:200], rng=rng))
        shard_b.ingest(client.encode_batch(items[200:], rng=rng))
        assert shard_a.kernel_backend == "numpy"
        merged = protocol.server()
        merged.merge(shard_a).merge(shard_b)
        assert merged.n_reports == 400
        oracle = OptimizedUnaryEncoding(32, 1.1, kernel_backend=other)
        assert oracle.kernel_backend == "other"

    def test_client_and_server_report_backend(self):
        protocol = FlatRangeQuery(16, 1.0, oracle="oue")
        assert protocol.client().kernel_backend == "numpy"
        assert protocol.server().kernel_backend == "numpy"


class TestEncodeBatches:
    def test_matches_sequential_encode_batch(self):
        protocol = FlatRangeQuery(32, 1.1, oracle="oue")
        items = np.random.default_rng(5).integers(0, 32, size=250)
        expected = []
        rng = np.random.default_rng(6)
        client = protocol.client()
        for start in range(0, len(items), 100):
            expected.append(client.encode_batch(items[start : start + 100], rng=rng))
        actual = client.encode_batches(items, 100, rng=np.random.default_rng(6))
        assert len(actual) == len(expected) == 3
        for got, want in zip(actual, expected):
            assert got.to_bytes() == want.to_bytes()

    def test_rejects_bad_batch_size(self):
        client = FlatRangeQuery(16, 1.0, oracle="grr").client()
        with pytest.raises(ValueError, match="batch_size"):
            client.encode_batches(np.arange(8), 0)


class TestNarrowUnarySums:
    @staticmethod
    def _matrices(dtype):
        rng = np.random.default_rng(9)
        yield "random", rng.integers(0, 2, size=(400, 1024)).astype(dtype)
        yield "all ones", np.ones((300, 70), dtype=dtype)
        yield "zero rows", np.zeros((0, 33), dtype=dtype)
        if dtype == np.uint8:
            yield "all 255", np.full((500, 9), 255, dtype=np.uint8)

    @pytest.mark.parametrize("dtype", [np.bool_, np.uint8])
    def test_int32_path_equals_an_int64_sum(self, dtype):
        for name, reports in self._matrices(dtype):
            sums = reference.unary_sums(reports)
            assert sums.dtype == np.int64, name
            np.testing.assert_array_equal(
                sums, reports.astype(np.int64).sum(axis=0), err_msg=name
            )

    @pytest.mark.parametrize("dtype, entry", [(np.int32, 2**30), (np.int64, 2**40)])
    def test_wider_inputs_take_the_int64_fallback(self, dtype, entry):
        # Four rows of these entries overflow an int32 accumulator.
        reports = np.full((4, 3), entry, dtype=dtype)
        np.testing.assert_array_equal(
            reference.unary_sums(reports), np.full(3, 4 * entry, dtype=np.int64)
        )


def _direct_support(multipliers, offsets, buckets, domain_size, num_buckets):
    """OLH support by definition: an int64 count of ``((a x + b) mod P) mod g == y``."""
    items = np.arange(domain_size, dtype=np.int64)
    hashes = (multipliers[:, None] * items + offsets[:, None]) % reference.HASH_PRIME
    return np.count_nonzero(hashes % num_buckets == buckets[:, None], axis=0).astype(np.int64)


class TestOlhSupportIsExact:
    PRIME = reference.HASH_PRIME

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=0, max_value=400),
        domain=st.integers(min_value=1, max_value=3000),
        buckets=st.integers(min_value=2, max_value=2**16),
        chunk=st.integers(min_value=1, max_value=5000),
        multiplier=st.sampled_from([1, PRIME - 1]),
        offset=st.sampled_from([0, PRIME - 1]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_direct_int64_count(
        self, seed, n, domain, buckets, chunk, multiplier, offset
    ):
        rng = np.random.default_rng(seed)
        multipliers = rng.integers(1, self.PRIME, size=n)
        offsets = rng.integers(0, self.PRIME, size=n)
        # Every third user takes the extreme parameters.
        multipliers[::3], offsets[::3] = multiplier, offset
        # Half the users report their item's true bucket, as honest OLH
        # users mostly do, so matches are common even when g is large.
        items = rng.integers(0, domain, size=n)
        true = (multipliers * items + offsets) % self.PRIME % buckets
        reported = np.where(rng.random(n) < 0.5, true, rng.integers(0, buckets, size=n))
        support = reference.olh_support(multipliers, offsets, reported, domain, buckets, chunk)
        assert support.dtype == np.int64
        np.testing.assert_array_equal(
            support, _direct_support(multipliers, offsets, reported, domain, buckets)
        )

    def test_more_than_255_hits_per_item_in_one_block(self):
        # A small domain packs a thousand users into one block, past
        # what a uint8 count holds.
        rng = np.random.default_rng(5)
        multipliers = rng.integers(1, self.PRIME, size=1000)
        offsets = rng.integers(0, self.PRIME, size=1000)
        reported = (multipliers * 3 + offsets) % self.PRIME % 2
        support = reference.olh_support(multipliers, offsets, reported, 4, 2, 5000)
        assert support[3] == 1000
        np.testing.assert_array_equal(
            support, _direct_support(multipliers, offsets, reported, 4, 2)
        )

    @pytest.mark.parametrize("buckets", [2, PRIME - 1, PRIME, 2**40])
    def test_any_bucket_count_and_reported_bucket(self, buckets):
        # g at or past P leaves the hash unreduced; reported buckets no
        # hash can take match nothing, even those that wrap to a user's
        # true bucket in 32 bits.
        rng = np.random.default_rng(4)
        multipliers = rng.integers(1, self.PRIME, size=300)
        offsets = rng.integers(0, self.PRIME, size=300)
        items = rng.integers(0, 700, size=300)
        reported = (multipliers * items + offsets) % self.PRIME % buckets
        reported[:3] = reported[0] - 2**32, self.PRIME, reported[2] + 2**32
        np.testing.assert_array_equal(
            reference.olh_support(multipliers, offsets, reported, 700, buckets, 64),
            _direct_support(multipliers, offsets, reported, 700, buckets),
        )


# --------------------------------------------------------------------- #
# numpy/numba equivalence sweep (requires numba)
# --------------------------------------------------------------------- #
def _backends():
    return get_backend("numpy"), get_backend("numba")


@needs_numba
class TestNumbaEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=0, max_value=600),
        domain=st.integers(min_value=2, max_value=300),
    )
    @SWEEP_SETTINGS
    def test_grr_perturb(self, seed, n, domain):
        numpy_backend, numba_backend = _backends()
        rng = np.random.default_rng(seed)
        items = rng.integers(0, domain, size=n)
        keep = rng.random(n) < 0.7
        noise = rng.integers(0, domain - 1, size=n)
        expected = numpy_backend.grr_perturb(items, keep, noise)
        actual = numba_backend.grr_perturb(items, keep, noise)
        assert actual.dtype == expected.dtype
        np.testing.assert_array_equal(actual, expected)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=0, max_value=500),
        domain=st.integers(min_value=2, max_value=400),
        buckets=st.integers(min_value=2, max_value=64),
    )
    @SWEEP_SETTINGS
    def test_olh_encode(self, seed, n, domain, buckets):
        numpy_backend, numba_backend = _backends()
        rng = np.random.default_rng(seed)
        multipliers = rng.integers(1, reference.HASH_PRIME, size=n)
        offsets = rng.integers(0, reference.HASH_PRIME, size=n)
        items = rng.integers(0, domain, size=n)
        keep = rng.random(n) < 0.6
        noise = rng.integers(0, buckets - 1, size=n)
        expected = numpy_backend.olh_encode(
            multipliers, offsets, items, buckets, keep, noise
        )
        actual = numba_backend.olh_encode(
            multipliers, offsets, items, buckets, keep, noise
        )
        assert actual.dtype == expected.dtype
        np.testing.assert_array_equal(actual, expected)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=0, max_value=400),
        domain=st.integers(min_value=1, max_value=200),
        buckets=st.integers(min_value=2, max_value=32),
        chunk=st.integers(min_value=1, max_value=700),
    )
    @SWEEP_SETTINGS
    def test_olh_support(self, seed, n, domain, buckets, chunk):
        numpy_backend, numba_backend = _backends()
        rng = np.random.default_rng(seed)
        multipliers = rng.integers(1, reference.HASH_PRIME, size=n)
        offsets = rng.integers(0, reference.HASH_PRIME, size=n)
        reported = rng.integers(0, buckets, size=n)
        expected = numpy_backend.olh_support(
            multipliers, offsets, reported, domain, buckets, chunk
        )
        actual = numba_backend.olh_support(
            multipliers, offsets, reported, domain, buckets, chunk
        )
        assert actual.dtype == expected.dtype
        np.testing.assert_array_equal(actual, expected)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=300),
        domain=st.integers(min_value=1, max_value=200),
        p_zero=st.floats(min_value=0.0, max_value=1.0),
        p_one=st.floats(min_value=0.0, max_value=1.0),
    )
    @SWEEP_SETTINGS
    def test_unary_perturb(self, seed, n, domain, p_zero, p_one):
        numpy_backend, numba_backend = _backends()
        rng = np.random.default_rng(seed)
        uniforms = rng.random((n, domain))
        true_uniforms = rng.random(n)
        items = rng.integers(0, domain, size=n)
        expected = numpy_backend.unary_perturb(
            uniforms, p_zero, items, true_uniforms, p_one
        )
        actual = numba_backend.unary_perturb(
            uniforms, p_zero, items, true_uniforms, p_one
        )
        assert actual.dtype == expected.dtype == np.uint8
        np.testing.assert_array_equal(actual, expected)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=0, max_value=400),
        domain=st.integers(min_value=1, max_value=300),
        dtype_index=st.integers(min_value=0, max_value=len(UNARY_DTYPES) - 1),
    )
    @SWEEP_SETTINGS
    def test_unary_sums(self, seed, n, domain, dtype_index):
        numpy_backend, numba_backend = _backends()
        rng = np.random.default_rng(seed)
        reports = rng.integers(0, 2, size=(n, domain)).astype(UNARY_DTYPES[dtype_index])
        expected = numpy_backend.unary_sums(reports)
        actual = numba_backend.unary_sums(reports)
        assert actual.dtype == expected.dtype == np.int64
        np.testing.assert_array_equal(actual, expected)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=0, max_value=500),
        log_padded=st.integers(min_value=0, max_value=10),
    )
    @SWEEP_SETTINGS
    def test_hrr_encode(self, seed, n, log_padded):
        numpy_backend, numba_backend = _backends()
        padded = 1 << log_padded
        rng = np.random.default_rng(seed)
        items = rng.integers(0, padded, size=n)
        signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        indices = rng.integers(0, padded, size=n)
        keep = rng.random(n) < 0.75
        expected = numpy_backend.hrr_encode(items, signs, indices, keep)
        actual = numba_backend.hrr_encode(items, signs, indices, keep)
        assert actual.dtype == expected.dtype
        np.testing.assert_array_equal(actual, expected)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=0, max_value=800),
        log_padded=st.integers(min_value=0, max_value=10),
    )
    @SWEEP_SETTINGS
    def test_hrr_value_sums(self, seed, n, log_padded):
        numpy_backend, numba_backend = _backends()
        padded = 1 << log_padded
        rng = np.random.default_rng(seed)
        indices = rng.integers(0, padded, size=n)
        values = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        expected = numpy_backend.hrr_value_sums(indices, values, padded)
        actual = numba_backend.hrr_value_sums(indices, values, padded)
        assert actual.dtype == expected.dtype == np.int64
        np.testing.assert_array_equal(actual, expected)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=0, max_value=600),
        domain=st.integers(min_value=1, max_value=300),
    )
    @SWEEP_SETTINGS
    def test_categorical_counts(self, seed, n, domain):
        numpy_backend, numba_backend = _backends()
        rng = np.random.default_rng(seed)
        reports = rng.integers(0, domain, size=n)
        expected = numpy_backend.categorical_counts(reports, domain)
        actual = numba_backend.categorical_counts(reports, domain)
        assert actual.dtype == expected.dtype == np.int64
        np.testing.assert_array_equal(actual, expected)

    def test_categorical_counts_rejects_out_of_domain(self):
        _, numba_backend = _backends()
        with pytest.raises(ValueError, match="outside the domain"):
            numba_backend.categorical_counts(np.array([0, 5]), 4)
        with pytest.raises(ValueError, match="outside the domain"):
            numba_backend.categorical_counts(np.array([-1, 2]), 4)


@needs_numba
class TestNumbaOracleParity:
    """Whole-oracle parity: privatize + accumulate under both backends."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda backend: OptimizedUnaryEncoding(48, 1.2, kernel_backend=backend),
            lambda backend: GeneralizedRandomizedResponse(48, 1.2, kernel_backend=backend),
            lambda backend: OptimalLocalHashing(48, 1.2, kernel_backend=backend),
            lambda backend: HadamardRandomizedResponse(48, 1.2, kernel_backend=backend),
        ],
        ids=["oue", "grr", "olh", "hrr"],
    )
    def test_estimates_identical(self, factory):
        items = np.random.default_rng(17).integers(0, 48, size=1_500)
        results = {}
        for backend in ("numpy", "numba"):
            oracle = factory(backend)
            assert oracle.kernel_backend == backend
            reports = oracle.privatize(items, rng=np.random.default_rng(23))
            results[backend] = oracle.aggregate(reports)
        np.testing.assert_allclose(
            results["numba"], results["numpy"], rtol=0.0, atol=1e-12
        )


@needs_numba
class TestNumbaGoldenConfigs:
    """The 14 golden configurations, executed under the numba backend."""

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_run_matches_golden(self, golden, case, monkeypatch):  # noqa: F811
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "numba")
        protocol = CASES[case]()
        items = np.random.default_rng(0).integers(0, protocol.domain_size, size=600)
        estimator = protocol.run(items, rng=np.random.default_rng(9))
        _check(case, estimator.estimated_frequencies(), _expected(golden, case, "run"))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_streamed_batches_match_golden(self, golden, case, monkeypatch):  # noqa: F811
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "numba")
        protocol = CASES[case]()
        items = np.random.default_rng(0).integers(0, protocol.domain_size, size=600)
        client = protocol.client()
        server = protocol.server()
        assert client.kernel_backend == "numba"
        assert server.kernel_backend == "numba"
        rng = np.random.default_rng(21)
        server.ingest(client.encode_batches(items, -(-len(items) // 4), rng=rng))
        _check(
            case,
            server.finalize().estimated_frequencies(),
            _expected(golden, case, "stream"),
        )
