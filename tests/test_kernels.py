"""Tests for the numpy compute kernels.

* **Batch encoding**: ``encode_batches`` produces exactly the report
  stream of the equivalent ``encode_batch`` sequence.
* **Narrow unary sums**: the ``unary_sums`` int32 accumulator for
  ``bool``/``uint8`` matrices equals an int64 sum, and wider integer
  inputs take the int64 fallback.
* **Exact OLH support**: the division-free ``olh_support`` equals a
  direct int64 count of ``((a x + b) mod P) mod g == y`` over generated
  shapes, bucket counts, chunks and the hash family's extreme parameters.
* **Call-time lookup**: every oracle's encode and ingest, the hierarchy's
  per-level decode and the epoch store call each kernel through the
  module ``get_backend`` returns, so wrapping an attribute of that module
  (as perfbench's tracer does) sees every call.
* **No backend selection**: a ``REPRO_KERNEL_BACKEND`` left in the
  environment neither warns nor changes an estimate.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FlatRangeQuery, make_protocol
from repro.core.kernels import get_backend, reference
from repro.frequency_oracles import BinaryRandomizedResponse


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


def _count_calls(monkeypatch, kernel):
    """Wrap ``kernel`` on the module ``get_backend`` returns; the list of calls."""
    calls = []
    original = getattr(reference, kernel)

    def counted(*args, **kwargs):
        calls.append(kernel)
        return original(*args, **kwargs)

    monkeypatch.setattr(get_backend("numpy"), kernel, counted)
    return calls


def _items():
    return np.arange(200) % 64


class TestCallTimeLookup:
    def test_get_backend_returns_the_kernel_module(self):
        assert get_backend("numpy") is reference

    @pytest.mark.parametrize(
        "oracle, kernel",
        [
            ("olh", "olh_support"),
            ("oue", "unary_sums"),
            ("sue", "unary_sums"),
            ("the", "unary_sums"),
            ("grr", "categorical_counts"),
            ("hrr", "hrr_value_sums"),
        ],
    )
    def test_ingest_calls_the_module_attribute(self, monkeypatch, oracle, kernel):
        protocol = FlatRangeQuery(64, 1.1, oracle=oracle)
        reports = protocol.client().encode_batch(
            _items(), rng=np.random.default_rng(1)
        )
        calls = _count_calls(monkeypatch, kernel)
        protocol.server().ingest(reports)
        assert calls == [kernel]

    @pytest.mark.parametrize(
        "oracle, kernel",
        [
            ("olh", "olh_encode"),
            ("oue", "unary_perturb"),
            ("sue", "unary_perturb"),
            ("grr", "grr_perturb"),
            ("hrr", "hrr_encode"),
        ],
    )
    def test_encode_calls_the_module_attribute(self, monkeypatch, oracle, kernel):
        protocol = FlatRangeQuery(64, 1.1, oracle=oracle)
        calls = _count_calls(monkeypatch, kernel)
        protocol.client().encode_batch(_items(), rng=np.random.default_rng(1))
        assert calls == [kernel]

    def test_binary_rr_accumulate_calls_the_module_attribute(self, monkeypatch):
        oracle = BinaryRandomizedResponse(1.1)
        reports = oracle.privatize(_items() % 2, rng=np.random.default_rng(1))
        calls = _count_calls(monkeypatch, "categorical_counts")
        oracle.accumulate(oracle.make_accumulator(), reports)
        assert calls == ["categorical_counts"]

    def test_hierarchy_ingest_calls_the_kernel_once_per_level(self, monkeypatch):
        # The decode stage perfbench's tracer times: one olh_support call
        # per encoded level (the root is not encoded).
        protocol = make_protocol("hh", 64, 1.1, branching=4, oracle="olh")
        reports = protocol.client().encode_batch(
            _items(), rng=np.random.default_rng(1)
        )
        calls = _count_calls(monkeypatch, "olh_support")
        protocol.server().ingest(reports)
        assert calls == ["olh_support"] * protocol.tree.height


class TestNoBackendSelection:
    @pytest.mark.parametrize("value", ["numba", "no-such-backend"])
    def test_a_stale_backend_variable_changes_nothing(self, monkeypatch, value):
        # REPRO_KERNEL_BACKEND used to select a kernel implementation (and
        # warn on one it could not load); a value left in a deployment's
        # environment is now ignored, silently.
        def estimate():
            protocol = FlatRangeQuery(64, 1.1, oracle="olh")
            server = protocol.server()
            server.ingest(
                protocol.client().encode_batch(
                    _items(), rng=np.random.default_rng(1)
                )
            )
            return server.finalize().estimated_frequencies()

        expected = estimate()
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(estimate(), expected)
