"""Tests for the out-of-core epoch store (:mod:`repro.engine.store`).

Three guarantees anchor the store layer:

* **Bit-identity**: a store-backed engine (sealed epochs on disk,
  windows answered via segment pushdown or load-and-merge) reproduces
  the in-RAM engine exactly for all 14 golden configurations, and a
  restart (``Engine.restore(store_dir)``) changes nothing.
* **Incrementality**: ``checkpoint()`` rewrites only dirty epochs'
  segments; clean segments stay byte-identical on disk.
* **Fail-loud durability**: torn segment tails, spec mismatches,
  missing segment files, and pointing the store opener at a regular file
  (a server state, or the monolithic checkpoint that repro 1.10.0 wrote)
  all raise a contextual ``SerializationError`` instead of silently
  corrupting estimates.
* **Crash safety**: a crash at any file operation of a seal, a rewrite
  or an ``absorb_shard`` leaves a store that restores to the state before
  or after the operation, never a mix.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_decomposition import CASES, HRR_CASES
from test_engine import HANDLES, _fingerprint, _items_for

from repro import make_protocol
from repro.core.serialization import (
    MAGIC_SEG,
    SerializationError,
    pack_epoch_segment,
    read_epoch_segment,
    segment_pushdown_children,
    segment_state_bytes,
)
from repro.engine import Engine, EpochStore, last, spec_fingerprint, split_window
from repro.engine import store as store_module

#: A two-epoch hh envelope written by repro 1.10.0's ``Engine.checkpoint(path)``.
ENVELOPE = os.path.join(os.path.dirname(__file__), "data", "engine_checkpoint_1_10_0.ckpt")


def _check(case, actual, expected):
    if np.array_equal(actual, expected):
        return
    assert case in HRR_CASES and np.allclose(
        actual, expected, rtol=0.0, atol=1e-12
    ), f"{case}: store-backed path drifted from the in-RAM goldens"


# --------------------------------------------------------------------- #
# segment codec
# --------------------------------------------------------------------- #
class TestSegmentCodec:
    def _state_blob(self):
        protocol = make_protocol("hh", 16, 1.2, branching=4)
        engine = Engine.open(protocol)
        engine.session(epoch=0).absorb(
            _items_for(protocol, 100, 0), rng=np.random.default_rng(1)
        )
        return engine.session(epoch=0).server.state.to_bytes()

    def test_round_trip_without_pushdown(self):
        blob = self._state_blob()
        segment = pack_epoch_segment(3, "cafe", blob, n_reports=100)
        header, body_offset = read_epoch_segment(segment)
        assert header["epoch"] == 3
        assert header["spec_hash"] == "cafe"
        assert header["n_reports"] == 100
        assert segment_state_bytes(segment, header, body_offset) == blob
        assert "pushdown" not in header

    def test_round_trip_with_pushdown_vectors(self):
        blob = self._state_blob()
        vector = np.arange(12, dtype=np.int64).reshape(3, 4)
        pushdown = {
            "label": "composite",
            "config": {"k": 1},
            "n_users": 100,
            "children": [
                {
                    "oracle_kind": "oue",
                    "config": {"epsilon": 1.2},
                    "n_reports": 100,
                    "vectors": {"counts": vector, "totals": np.array([7], np.int64)},
                }
            ],
        }
        segment = pack_epoch_segment(0, "cafe", blob, pushdown=pushdown)
        header, body_offset = read_epoch_segment(segment)
        children = segment_pushdown_children(segment, header, body_offset)
        assert len(children) == 1
        assert children[0]["oracle_kind"] == "oue"
        assert np.array_equal(children[0]["vectors"]["counts"], vector)
        assert np.array_equal(children[0]["vectors"]["totals"], [7])
        # Vectors are mmap-friendly: 8-byte aligned within the file.
        for child in header["pushdown"]["children"]:
            for entry in child["vectors"]:
                assert (body_offset + entry["offset"]) % 8 == 0

    def test_torn_tail_is_rejected(self):
        segment = pack_epoch_segment(0, "cafe", self._state_blob())
        for cut in (len(MAGIC_SEG) + 2, len(segment) // 2, len(segment) - 1):
            with pytest.raises(SerializationError, match="torn"):
                read_epoch_segment(segment[:cut])
        with pytest.raises(SerializationError):  # not even a whole magic
            read_epoch_segment(segment[:1])

    def test_bit_flip_is_rejected(self):
        segment = bytearray(pack_epoch_segment(0, "cafe", self._state_blob()))
        segment[len(segment) // 2] ^= 0x40
        with pytest.raises(SerializationError, match="CRC"):
            read_epoch_segment(bytes(segment))

    def test_wrong_magic_is_rejected(self):
        with pytest.raises(SerializationError):
            read_epoch_segment(b"NOTASEG!" + b"\x00" * 64)
        assert len(MAGIC_SEG) == 9


# --------------------------------------------------------------------- #
# bit-identity: store-backed == in-RAM, across the golden configs
# --------------------------------------------------------------------- #
def _paired_engines(factory, tmp_path, n_epochs=3, n_users=200):
    """The same ingest replayed into an in-RAM and a store-backed engine."""
    protocol = factory()
    in_ram = Engine.open(factory())
    stored = Engine.open(factory(), store_dir=str(tmp_path / "store"))
    for epoch in range(n_epochs):
        items = _items_for(protocol, n_users, epoch)
        for engine in (in_ram, stored):
            engine.session(epoch=epoch).absorb(
                items, rng=np.random.default_rng(100 + epoch)
            )
        stored.seal_epoch(epoch)
    return protocol, in_ram, stored


@pytest.mark.parametrize("case", sorted(CASES))
class TestGoldenBitIdentity:
    def test_sealed_windows_match_in_ram(self, case, tmp_path):
        protocol, in_ram, stored = _paired_engines(CASES[case], tmp_path)
        assert list(stored.live_epochs) == []
        assert list(stored.sealed_epochs) == [0, 1, 2]
        for window in ("all", last(2), [0, 2]):
            _check(
                case,
                stored.estimator(window).estimated_frequencies(),
                in_ram.estimator(window).estimated_frequencies(),
            )

    def test_restore_from_store_dir_matches(self, case, tmp_path):
        _, in_ram, stored = _paired_engines(CASES[case], tmp_path)
        stored.checkpoint()
        restored = Engine.restore(str(tmp_path / "store"))
        assert restored.epochs == in_ram.epochs
        assert restored.n_reports() == in_ram.n_reports()
        _check(
            case,
            restored.estimator(last(2)).estimated_frequencies(),
            in_ram.estimator(last(2)).estimated_frequencies(),
        )


@pytest.mark.parametrize("handle", sorted(HANDLES))
class TestHandlesRoundTrip:
    """Registry handles (incl. grid2d) through seal -> restore -> query."""

    def test_store_round_trip_is_bit_identical(self, handle, tmp_path):
        protocol = make_protocol(handle, 16, 1.2, **HANDLES[handle])

        def factory():
            return make_protocol(handle, 16, 1.2, **HANDLES[handle])

        _, in_ram, stored = _paired_engines(factory, tmp_path)
        stored.checkpoint()
        restored = Engine.restore(str(tmp_path / "store"))
        for engine in (stored, restored):
            for window in ("all", last(2)):
                assert np.array_equal(
                    _fingerprint(protocol, engine.estimator(window)),
                    _fingerprint(protocol, in_ram.estimator(window)),
                )


class TestPushdownPlan:
    def test_oracle_children_support_pushdown(self, tmp_path):
        _, _, stored = _paired_engines(
            lambda: make_protocol("hh", 16, 1.2, branching=4), tmp_path
        )
        assert all(stored.store.supports_pushdown(e) for e in stored.sealed_epochs)
        state = stored.store.pushdown_state(stored.sealed_epochs)
        assert state is not None
        assert state.n_reports == 600

    def test_she_falls_back_to_load_and_merge(self, tmp_path):
        """SHE keeps float partials: no pushdown, but still bit-identical."""
        factory = lambda: make_protocol("flat", 16, 1.1, oracle="she")
        _, in_ram, stored = _paired_engines(factory, tmp_path)
        assert not any(stored.store.supports_pushdown(e) for e in stored.sealed_epochs)
        assert stored.store.pushdown_state(stored.sealed_epochs) is None
        assert np.array_equal(
            stored.estimator("all").estimated_frequencies(),
            in_ram.estimator("all").estimated_frequencies(),
        )

    def test_split_window_partitions_in_order(self):
        assert split_window([1, 3, 5, 7], live=[3, 7]) == ([3, 7], [1, 5])
        assert split_window([], live=[1]) == ([], [])


# --------------------------------------------------------------------- #
# incremental checkpoints and dirty tracking
# --------------------------------------------------------------------- #
class TestIncrementalCheckpoint:
    def _stored(self, tmp_path, n_epochs=6):
        engine = Engine.open(
            make_protocol("hh", 16, 1.2, branching=4),
            store_dir=str(tmp_path / "store"),
        )
        rng = np.random.default_rng(5)
        for epoch in range(n_epochs):
            engine.session(epoch=epoch).absorb(
                np.arange(16).repeat(4), rng=rng
            )
            engine.seal_epoch(epoch)
        return engine

    def test_checkpoint_rewrites_only_dirty_segments(self, tmp_path):
        engine = self._stored(tmp_path)
        store = engine.store
        written_before = store.segments_written
        engine.checkpoint()  # everything sealed and clean: a manifest-only write
        assert store.segments_written == written_before

        engine.session(epoch=2).absorb(
            np.arange(16), rng=np.random.default_rng(9)
        )  # un-seals epoch 2 and dirties it
        assert 2 in engine.live_epochs
        engine.checkpoint()
        assert store.segments_written == written_before + 1

    def test_clean_segments_stay_byte_identical(self, tmp_path):
        engine = self._stored(tmp_path)
        store = engine.store
        before = {
            epoch: open(store.segment_path(epoch), "rb").read()
            for epoch in engine.sealed_epochs
        }
        engine.session(epoch=4).absorb(np.arange(16), rng=np.random.default_rng(9))
        engine.checkpoint()
        engine.seal_epoch(4)
        for epoch, blob in before.items():
            with open(store.segment_path(epoch), "rb") as fh:
                on_disk = fh.read()
            if epoch == 4:
                assert on_disk != blob
            else:
                assert on_disk == blob

    def test_epoch_stats_reports_sizes_without_unsealing(self, tmp_path):
        engine = self._stored(tmp_path, n_epochs=3)
        stats = engine.epoch_stats()
        assert sorted(stats) == [0, 1, 2]
        for epoch, entry in stats.items():
            assert entry["sealed"] is True
            assert entry["n_reports"] == 64
            assert entry["on_disk"] == os.path.getsize(
                engine.store.segment_path(epoch)
            )
        assert list(engine.live_epochs) == []  # stats never materialized a segment


# --------------------------------------------------------------------- #
# corruption and misuse: every failure names its cause
# --------------------------------------------------------------------- #
class TestCorruption:
    def _store_dir(self, tmp_path, n_epochs=2):
        engine = Engine.open(
            make_protocol("hh", 16, 1.2, branching=4),
            store_dir=str(tmp_path / "store"),
        )
        for epoch in range(n_epochs):
            engine.session(epoch=epoch).absorb(
                np.arange(16).repeat(2), rng=np.random.default_rng(epoch)
            )
            engine.seal_epoch(epoch)
        engine.checkpoint()
        engine.store.close()
        return str(tmp_path / "store")

    def test_torn_segment_tail(self, tmp_path):
        store_dir = self._store_dir(tmp_path)
        path = os.path.join(store_dir, "epoch-00000001.seg")
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 3)
        restored = Engine.restore(store_dir)  # lazy: restore itself succeeds
        # A window whose plan must read the torn leaf fails loud...
        with pytest.raises(SerializationError, match=r"epoch 1.*torn"):
            restored.estimator([1])
        # ...and so does anything that decodes the leaf state directly.
        with pytest.raises(SerializationError, match=r"epoch 1.*torn"):
            restored.store.load_state(1)
        # The "all" window, however, is covered by the L1 aggregate built
        # before the tear, so the (correct) answer survives leaf damage.
        assert restored.estimator("all") is not None

    def test_missing_segment_file(self, tmp_path):
        store_dir = self._store_dir(tmp_path)
        os.remove(os.path.join(store_dir, "epoch-00000000.seg"))
        restored = Engine.restore(store_dir)
        with pytest.raises(SerializationError, match="epoch 0"):
            restored.estimator([0])
        with pytest.raises(SerializationError, match="epoch 0"):
            restored.store.read_state_bytes(0)

    def test_spec_hash_mismatch(self, tmp_path):
        store_dir = self._store_dir(tmp_path)
        manifest_path = os.path.join(store_dir, "MANIFEST.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        other = make_protocol("flat", 16, 1.2).spec()
        manifest["protocol"] = other
        manifest["spec_hash"] = spec_fingerprint(other)
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        restored = Engine.restore(store_dir)
        with pytest.raises(SerializationError, match="spec"):
            restored.estimator("all")

    def test_opening_with_wrong_spec_fails_eagerly(self, tmp_path):
        store_dir = self._store_dir(tmp_path)
        with pytest.raises(SerializationError, match="different .* configuration"):
            EpochStore(store_dir, make_protocol("flat", 16, 1.2).spec())

    def test_monolithic_checkpoint_is_not_a_store(self):
        from repro.cli import _restore_engine

        migrate = r"monolithic engine checkpoint.*repro 1\.10\.0.*attach_store"
        with pytest.raises(SerializationError, match=migrate):
            EpochStore(ENVELOPE, make_protocol("hh", 16, 1.1, branching=4).spec())
        with pytest.raises(SerializationError, match=migrate):
            Engine.restore(ENVELOPE)
        with pytest.raises(SystemExit, match="monolithic"):
            _restore_engine(ENVELOPE)

    @pytest.mark.parametrize(
        "command",
        [["checkpoint", "--reports", "r.bin"], ["info"], ["query", "--ranges", "0:3"]],
        ids=lambda command: command[0],
    )
    def test_engine_subcommands_refuse_the_envelope(self, command):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "engine", command[0],
             "--store-dir", ENVELOPE, *command[1:]],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 1
        assert "monolithic engine checkpoint" in result.stderr
        assert "Traceback" not in result.stderr

    def test_server_state_file_is_not_a_store(self, tmp_path):
        protocol = make_protocol("hh", 16, 1.2, branching=4)
        path = tmp_path / "s.state"
        path.write_bytes(protocol.server().to_bytes())
        with pytest.raises(SerializationError, match="server state file.*merge --states"):
            EpochStore(str(path), protocol.spec())

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(SerializationError, match="MANIFEST"):
            EpochStore(str(tmp_path / "nothing"), create=False)


# --------------------------------------------------------------------- #
# property-based: spill -> evict -> query == in-RAM, any epoch pattern
# --------------------------------------------------------------------- #
class TestStoreProperties:
    @given(
        plan=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),  # epoch key
                st.integers(min_value=1, max_value=30),  # users in this batch
                st.booleans(),  # seal after this batch?
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_any_spill_pattern_matches_in_ram(self, plan, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("store-prop")
        in_ram = Engine.open("hh", domain_size=16, epsilon=1.2, branching=4)
        stored = Engine.open(
            "hh",
            domain_size=16,
            epsilon=1.2,
            branching=4,
            store_dir=str(tmp_path / "store"),
        )
        for step, (epoch, n_users, seal) in enumerate(plan):
            items = np.random.default_rng(step).integers(0, 16, size=n_users)
            for engine in (in_ram, stored):
                engine.session(epoch=epoch).absorb(
                    items, rng=np.random.default_rng(1000 + step)
                )
            if seal:
                stored.seal_epoch(epoch)
        assert stored.epochs == in_ram.epochs
        assert stored.n_reports() == in_ram.n_reports()
        assert np.array_equal(
            stored.estimator("all").estimated_frequencies(),
            in_ram.estimator("all").estimated_frequencies(),
        )
        stored.checkpoint()
        restored = Engine.restore(str(tmp_path / "store"))
        assert np.array_equal(
            restored.estimator("all").estimated_frequencies(),
            in_ram.estimator("all").estimated_frequencies(),
        )


# --------------------------------------------------------------------- #
# crash points: a crash at any file operation restores before or after
# --------------------------------------------------------------------- #
class _Crash(BaseException):
    """A simulated process death; no handler in the store catches it."""


class _CrashingOs:
    """The ``os`` module as the store sees it, dying at one file operation.

    Counts every ``replace`` and ``unlink``.  At call number ``at`` it
    raises :class:`_Crash` just before the call, or just after it with
    ``after=True``; once dead, every later call raises too, since a dead
    process runs no cleanup.
    """

    def __init__(self, at=None, after=False):
        self.at, self.after, self.calls, self.dead = at, after, 0, False

    def __getattr__(self, name):
        return getattr(os, name)

    def _call(self, operation, *args):
        if self.dead:
            raise _Crash()
        index, self.calls = self.calls, self.calls + 1
        if index == self.at and not self.after:
            self.dead = True
            raise _Crash()
        operation(*args)
        if index == self.at:
            self.dead = True
            raise _Crash()

    def replace(self, source, target):
        self._call(os.replace, source, target)

    def unlink(self, path):
        self._call(os.unlink, path)


def _crash_base(store_dir):
    """Epochs 0-2 sealed with 80 reports each; the block [0, 2) is aggregated."""
    engine = Engine.open("hh", domain_size=16, epsilon=1.2, branching=4, store_dir=store_dir)
    for epoch in range(3):
        engine.session(epoch=epoch).absorb(np.arange(80) % 16, rng=np.random.default_rng(epoch))
        engine.seal_epoch(epoch)
    return engine


def _seal_completing_a_block(engine):
    # Epoch 3 completes the blocks [2, 4) and [0, 4).
    engine.session(epoch=3).absorb(np.arange(80) % 16, rng=np.random.default_rng(3))
    engine.seal_epoch(3)


def _rewrite_then_checkpoint(engine):
    engine.session(epoch=1).absorb(np.arange(48) % 16, rng=np.random.default_rng(4))
    engine.checkpoint()


def _absorb_shard_then_seal(engine):
    server = engine.protocol.server()
    server.ingest(engine.client().encode_batch(np.arange(48) % 16, rng=5))
    engine.absorb_shard(server.state, epoch=1)
    engine.seal_epoch(1)


CRASH_OPERATIONS = {
    "seal": _seal_completing_a_block,
    "rewrite": _rewrite_then_checkpoint,
    "absorb_shard": _absorb_shard_then_seal,
}


def _inconsistency(store_dir, expected):
    """What is wrong with the store a crash left behind, or ``None``."""
    try:
        restored = Engine.restore(store_dir)
        counts = restored.epoch_report_counts()
        if counts not in expected:
            return f"restored counts {counts} are neither {expected[0]} nor {expected[1]}"
        for epoch, count in counts.items():
            held = restored.window_state([epoch]).n_reports
            if held != count:
                return f"epoch {epoch}: the manifest counts {count}, its segment holds {held}"
        epochs = list(restored.epochs)
        for start in range(len(epochs)):
            for stop in range(start + 1, len(epochs) + 1):
                window = epochs[start:stop]
                planned = restored.store.pushdown_state(window)
                naive = restored.store.pushdown_state(window, use_aggregates=False)
                if planned.to_bytes() != naive.to_bytes():
                    return f"window {window}: the aggregates disagree with the leaves"
        restored.checkpoint()
        restored.store.close()
        if Engine.restore(store_dir).epoch_report_counts() != counts:
            return "the next checkpoint changed the counts"
    except SerializationError as exc:
        return f"unreadable store: {exc}"
    return None


class TestCrashPoints:
    """A crash just before or just after each ``os.replace`` / ``os.unlink``.

    A raised exception models a process that dies between two file
    operations.  It cannot model losing bytes that were never fsync'd
    (aggregate segments skip the fsync); their CRC, checked on read,
    covers that case.
    """

    def _run(self, store_dir, operation, at=None, after=False):
        engine = _crash_base(store_dir)
        before = engine.epoch_report_counts()
        crashing = _CrashingOs(at, after)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(store_module, "os", crashing)
            try:
                operation(engine)
            except _Crash:
                pass
        engine.store.close()
        return before, crashing

    @pytest.mark.parametrize("name", sorted(CRASH_OPERATIONS))
    def test_every_crash_point_restores_before_or_after(self, name, tmp_path):
        operation = CRASH_OPERATIONS[name]
        before, clean = self._run(str(tmp_path / "clean"), operation)
        after = Engine.restore(str(tmp_path / "clean")).epoch_report_counts()
        assert not clean.dead and after != before
        problems = {}
        for at in range(clean.calls):
            for position in ("before", "after"):
                store_dir = str(tmp_path / f"crash-{at}-{position}")
                _, crashing = self._run(store_dir, operation, at, position == "after")
                assert crashing.dead
                problem = _inconsistency(store_dir, (before, after))
                if problem:
                    problems[f"{position} file operation {at}"] = problem
        assert problems == {}, f"{len(problems)} of {2 * clean.calls} crash points"
