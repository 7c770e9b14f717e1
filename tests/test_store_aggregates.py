"""Tests for the aggregate-segment hierarchy and its supporting kernels.

PR 10 makes windowed queries over sealed epochs O(log k) instead of
O(k) by folding power-of-two runs of epochs into *aggregate segments*
(elementwise int64 sums, same framing as leaf segments).  The contract
under test:

* **Bit-identity**: any window answered through the aggregate planner
  is byte-for-byte identical to the naive per-epoch pushdown sum
  (``use_aggregates=False``), across the golden configurations.
* **Minimal cover**: ``plan_cover`` decomposes a window into aligned
  power-of-two blocks plus leaf epochs, covering each selected epoch
  exactly once and never touching an unselected one.
* **Graceful degradation**: non-contiguous windows fall back to leaf
  segments; SHE (a packed state, no int vectors) never builds
  aggregates; a corrupt aggregate is discarded and the window replanned
  from leaves.
* **column_sums**: the blocked summation kernel is exact under every
  backend.
"""

import importlib.util
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_decomposition import CASES
from test_engine import _items_for

from repro import make_protocol
from repro.core.kernels import get_backend
from repro.core.kernels.reference import column_sums
from repro.engine import (
    PLAN_AGGREGATE,
    PLAN_EPOCH,
    Engine,
    last,
    plan_cover,
    plan_epochs,
)

HAVE_NUMBA = importlib.util.find_spec("numba") is not None
needs_numba = pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")


def _sealed_engine(tmp_path, n_epochs, protocol_factory=None, users=48):
    """``n_epochs`` epochs sealed into a store, or kept in RAM (``tmp_path=None``)."""
    factory = protocol_factory or (
        lambda: make_protocol("hh", 16, 1.2, branching=4)
    )
    protocol = factory()
    store_dir = None if tmp_path is None else str(tmp_path / "store")
    engine = Engine.open(factory(), store_dir=store_dir)
    for epoch in range(n_epochs):
        engine.session(epoch=epoch).absorb(
            _items_for(protocol, users, epoch), rng=np.random.default_rng(epoch)
        )
        if store_dir is not None:
            engine.seal_epoch(epoch)
    return engine


def _states_equal(a, b):
    assert a.n_reports == b.n_reports
    assert a.n_users == b.n_users
    lhs, rhs = a.children, b.children
    assert len(lhs) == len(rhs)
    for left, right in zip(lhs, rhs):
        assert set(left.vectors) == set(right.vectors)
        for name in left.vectors:
            assert np.array_equal(left.vectors[name], right.vectors[name]), name


# --------------------------------------------------------------------- #
# planner: cover correctness
# --------------------------------------------------------------------- #
class TestPlanCover:
    def test_aligned_window_is_single_aggregate(self):
        plan = plan_cover(list(range(8, 16)), lambda level, start: True, max_level=4)
        assert plan == [(PLAN_AGGREGATE, 3, 8)]

    def test_unaligned_window_mixes_levels(self):
        plan = plan_cover(list(range(6, 70)), lambda level, start: True, max_level=10)
        assert (PLAN_AGGREGATE, 5, 32) in plan
        assert plan_epochs(plan) == list(range(6, 70))

    def test_missing_aggregates_fall_back_to_leaves(self):
        plan = plan_cover([0, 1, 2, 3], lambda level, start: False, max_level=4)
        assert plan == [(PLAN_EPOCH, e) for e in range(4)]

    def test_non_contiguous_window_uses_leaves_between_runs(self):
        plan = plan_cover([0, 1, 4, 5], lambda level, start: True, max_level=4)
        assert plan == [
            (PLAN_AGGREGATE, 1, 0),
            (PLAN_AGGREGATE, 1, 4),
        ]
        scattered = plan_cover([1, 3, 5], lambda level, start: True, max_level=4)
        assert scattered == [(PLAN_EPOCH, e) for e in (1, 3, 5)]

    def test_max_level_zero_means_all_leaves(self):
        plan = plan_cover(list(range(16)), lambda level, start: True, max_level=0)
        assert plan == [(PLAN_EPOCH, e) for e in range(16)]

    @settings(max_examples=200, deadline=None)
    @given(
        selected=st.lists(
            st.integers(min_value=0, max_value=200),
            min_size=0,
            max_size=64,
            unique=True,
        ),
        max_level=st.integers(min_value=0, max_value=8),
        denies=st.sets(st.integers(min_value=0, max_value=8)),
    )
    def test_cover_is_exact_and_disjoint(self, selected, max_level, denies):
        """cover(plan) == window, each epoch exactly once, no strays."""
        window = sorted(selected)
        plan = plan_cover(window, lambda level, start: level not in denies, max_level)
        flattened = plan_epochs(plan)
        assert flattened == window  # exact cover, in order, no overlap
        for node in plan:
            if node[0] == PLAN_AGGREGATE:
                _, level, start = node
                assert start % (1 << level) == 0  # alignment invariant
                assert level <= max_level
                assert level not in denies


# --------------------------------------------------------------------- #
# store-backed windows through the hierarchy
# --------------------------------------------------------------------- #
class TestAggregateWindows:
    def test_last_k_spanning_aggregate_boundary(self, tmp_path):
        """``last:8`` over 16 sealed epochs is one aligned L3 block."""
        engine = _sealed_engine(tmp_path, 16)
        store = engine.store
        keys = engine._resolve(last(8))
        assert keys == list(range(8, 16))
        plan = store.plan_window(keys)
        assert plan == [(PLAN_AGGREGATE, 3, 8)]
        planned = store.pushdown_state(keys)
        naive = store.pushdown_state(keys, use_aggregates=False)
        _states_equal(planned, naive)
        # The exact boundary case: a window starting mid-block.
        boundary = engine._resolve(last(9))
        nodes = store.plan_window(boundary)
        assert nodes[0] == (PLAN_EPOCH, 7)
        _states_equal(
            store.pushdown_state(boundary),
            store.pushdown_state(boundary, use_aggregates=False),
        )

    def test_explicit_non_contiguous_windows_use_leaves(self, tmp_path):
        engine = _sealed_engine(tmp_path, 12)
        store = engine.store
        window = [0, 3, 7, 11]
        assert store.plan_window(window) == [(PLAN_EPOCH, e) for e in window]
        _states_equal(
            store.pushdown_state(window),
            store.pushdown_state(window, use_aggregates=False),
        )

    @pytest.mark.parametrize(
        "case", sorted(c for c in CASES if "she" not in c.lower())
    )
    def test_golden_configs_bit_identical_through_aggregates(
        self, case, tmp_path
    ):
        factory = CASES[case]
        protocol = factory()
        if not hasattr(protocol, "domain_size"):  # pragma: no cover
            pytest.skip("windowed estimators need a 1-D domain")
        engine = _sealed_engine(tmp_path, 8, protocol_factory=factory)
        store = engine.store
        if not store.aggregate_keys():
            pytest.skip(f"{case} has no integer pushdown")
        for window in (last(8), last(5), [2, 3, 4, 5]):
            keys = engine._resolve(window)
            planned = store.pushdown_state(keys)
            naive = store.pushdown_state(keys, use_aggregates=False)
            _states_equal(planned, naive)

    def test_she_never_builds_aggregates(self, tmp_path):
        """SHE keeps float partials: no vectors, hence no aggregates."""
        def factory():
            return make_protocol("flat", 16, 1.1, oracle="she")

        engine = _sealed_engine(tmp_path, 8, protocol_factory=factory)
        store = engine.store
        assert store.aggregate_keys() == []
        merged = store.pushdown_state(list(range(8)))
        expected = _sealed_engine(None, 8, protocol_factory=factory).window_state("all")
        merged.meta = expected.meta = {}
        assert merged.to_bytes() == expected.to_bytes()
        assert engine.estimator("all") is not None

    def test_seal_builds_and_restore_reloads(self, tmp_path):
        engine = _sealed_engine(tmp_path, 16)
        keys_before = engine.store.aggregate_keys()
        assert (1, 0) in keys_before and (3, 8) in keys_before
        engine.checkpoint()
        restored = Engine.restore(str(tmp_path / "store"))
        assert restored.store.aggregate_keys() == keys_before
        _states_equal(
            restored.store.pushdown_state(list(range(16))),
            engine.store.pushdown_state(list(range(16)), use_aggregates=False),
        )

    def test_dirty_epoch_invalidates_covering_aggregates(self, tmp_path):
        engine = _sealed_engine(tmp_path, 8)
        store = engine.store
        assert (2, 4) in store.aggregate_keys()
        engine.session(epoch=5).absorb(
            np.arange(16), rng=np.random.default_rng(99)
        )
        remaining = store.aggregate_keys()
        assert (1, 4) not in remaining
        assert (2, 4) not in remaining
        assert (3, 0) not in remaining
        assert (1, 0) in remaining  # untouched block survives
        engine.seal_epoch(5)
        assert (3, 0) in store.aggregate_keys()  # rebuilt bottom-up

    def test_corrupt_aggregate_is_discarded_and_replanned(self, tmp_path):
        engine = _sealed_engine(tmp_path, 8)
        store = engine.store
        naive = store.pushdown_state(list(range(8)), use_aggregates=False)
        entry = store.aggregate_entries()[-1]
        path = os.path.join(str(tmp_path / "store"), entry["file"])
        store.close()
        with open(path, "r+b") as handle:
            handle.seek(32)
            byte = handle.read(1)
            handle.seek(32)
            handle.write(bytes([byte[0] ^ 0x40]))
        restored = Engine.restore(str(tmp_path / "store"))
        healed = restored.store.pushdown_state(list(range(8)))
        _states_equal(healed, naive)  # repaired via leaves, not raised
        key = (entry["level"], entry["start"])
        assert key not in restored.store.aggregate_keys()

    def test_clean_checkpoint_skips_manifest_rewrite(self, tmp_path):
        engine = _sealed_engine(tmp_path, 6)
        engine.checkpoint()
        manifest = os.path.join(str(tmp_path / "store"), "MANIFEST.json")
        stamp = os.stat(manifest).st_mtime_ns
        assert not engine.store.manifest_dirty
        engine.checkpoint()  # nothing dirty, nothing built: no rewrite
        assert os.stat(manifest).st_mtime_ns == stamp


# --------------------------------------------------------------------- #
# column_sums kernel
# --------------------------------------------------------------------- #
class TestColumnSums:
    def test_matches_numpy_sum(self):
        rng = np.random.default_rng(0)
        vectors = [
            rng.integers(-1000, 1000, size=1000, dtype=np.int64)
            for _ in range(7)
        ]
        expected = np.sum(vectors, axis=0, dtype=np.int64)
        assert np.array_equal(column_sums(vectors), expected)

    def test_blocked_path_covers_large_vectors(self):
        n = (1 << 15) * 2 + 17  # spans several blocks plus a ragged tail
        vectors = [np.full(n, 3, dtype=np.int64), np.full(n, -1, dtype=np.int64)]
        out = column_sums(vectors)
        assert out.shape == (n,)
        assert np.all(out == 2)

    def test_out_is_overwritten_not_accumulated(self):
        out = np.full(4, 77, dtype=np.int64)
        result = column_sums([np.arange(4, dtype=np.int64)], out=out)
        assert result is out
        assert np.array_equal(out, [0, 1, 2, 3])

    def test_result_is_writable_even_from_readonly_views(self):
        source = np.arange(8, dtype=np.int64)
        view = source[:]
        view.flags.writeable = False
        result = column_sums([view, view])
        assert result.flags.writeable
        result += 1  # engine merges live states in place into this

    def test_empty_and_mismatch_errors(self):
        with pytest.raises(ValueError):
            column_sums([])
        with pytest.raises(ValueError):
            column_sums([np.arange(3, dtype=np.int64),
                         np.arange(4, dtype=np.int64)])
        zero = column_sums([], out=np.full(3, 9, dtype=np.int64))
        assert np.array_equal(zero, [0, 0, 0])

    @needs_numba
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=5000),
        k=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_numba_matches_reference(self, n, k, seed):
        rng = np.random.default_rng(seed)
        vectors = [
            rng.integers(-(2**40), 2**40, size=n, dtype=np.int64)
            for _ in range(k)
        ]
        reference = get_backend("numpy").column_sums(vectors)
        accelerated = get_backend("numba").column_sums(vectors)
        assert np.array_equal(accelerated, reference)
