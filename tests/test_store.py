"""Tests for the out-of-core epoch store (:mod:`repro.engine.store`).

Three guarantees anchor the store layer:

* **Bit-identity**: a store-backed engine (sealed epochs on disk,
  windows answered via segment pushdown or load-and-merge) reproduces
  the in-RAM engine exactly for all 14 golden configurations, and a
  restart (``Engine.restore(store_dir)``) changes nothing.
* **One copy of the counts**: every segment holds exactly one region --
  int64 vectors, or a packed state for SHE -- and the two-region stores
  repro 1.11.0 wrote (``tests/data/store_1_11_0``) still open, answer
  bit-identically and take new epochs.
* **Incrementality**: ``checkpoint()`` rewrites only dirty epochs'
  segments; clean segments stay byte-identical on disk.
* **Fail-loud durability**: torn segment tails, spec mismatches,
  missing segment files, and pointing the store opener at a regular file
  (a server state, or the monolithic checkpoint that repro 1.10.0 wrote)
  all raise a contextual ``SerializationError`` instead of silently
  corrupting estimates.
* **Crash safety**: a crash at any file operation of a seal, a rewrite
  or an ``absorb_shard`` leaves a store that restores to the state before
  or after the operation, never a mix, and whose next ``checkpoint()``
  leaves only the files its manifest names.
"""

import json
import os
import shutil
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

#: Stores repro 1.11.0 wrote (hh B=4 and Haar, D=16, epochs 0-3, with
#: their L1 and L2 aggregates), plus that build's answers over them.
STORES_1_11_0 = os.path.join(os.path.dirname(__file__), "data", "store_1_11_0")


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

    PUSHDOWN = {
        "label": "composite",
        "config": {"k": 1},
        "n_users": 100,
        "children": [
            {
                "oracle_kind": "oue",
                "config": {"epsilon": 1.2},
                "n_reports": 100,
                "vectors": {
                    "counts": np.arange(12, dtype=np.int64).reshape(3, 4),
                    "totals": np.array([7], np.int64),
                },
            }
        ],
    }

    def test_round_trip_without_pushdown(self):
        blob = self._state_blob()
        segment = pack_epoch_segment(3, "cafe", n_reports=100, state_blob=blob)
        header, body_offset = read_epoch_segment(segment)
        assert header["epoch"] == 3
        assert header["spec_hash"] == "cafe"
        assert header["n_reports"] == 100
        assert segment_state_bytes(segment, header, body_offset) == blob
        assert "pushdown" not in header
        with pytest.raises(SerializationError, match="no pushdown region"):
            segment_pushdown_children(segment, header, body_offset)

    def test_round_trip_with_pushdown_vectors(self):
        for aggregate in (None, {"level": 1, "start": 4, "count": 2}):
            segment = pack_epoch_segment(
                4, "cafe", n_reports=100, pushdown=self.PUSHDOWN, aggregate=aggregate
            )
            header, body_offset = read_epoch_segment(segment)
            assert "state" not in header
            assert header.get("aggregate") == aggregate
            with pytest.raises(SerializationError, match="no packed state"):
                segment_state_bytes(segment, header, body_offset)
            children = segment_pushdown_children(segment, header, body_offset)
            assert len(children) == 1
            assert children[0]["oracle_kind"] == "oue"
            assert np.array_equal(
                children[0]["vectors"]["counts"], np.arange(12).reshape(3, 4)
            )
            assert np.array_equal(children[0]["vectors"]["totals"], [7])
            # Vectors are mmap-friendly: 8-byte aligned within the file.
            for child in header["pushdown"]["children"]:
                for entry in child["vectors"]:
                    assert (body_offset + entry["offset"]) % 8 == 0

    def test_writer_refuses_both_regions_and_neither(self):
        blob = self._state_blob()
        for regions in ({"state_blob": blob, "pushdown": self.PUSHDOWN}, {}):
            with pytest.raises(ValueError, match="exactly one"):
                pack_epoch_segment(0, "cafe", n_reports=100, **regions)

    def test_torn_tail_is_rejected(self):
        segment = pack_epoch_segment(0, "cafe", n_reports=100, state_blob=self._state_blob())
        for cut in (len(MAGIC_SEG) + 2, len(segment) // 2, len(segment) - 1):
            with pytest.raises(SerializationError, match="torn"):
                read_epoch_segment(segment[:cut])
        with pytest.raises(SerializationError):  # not even a whole magic
            read_epoch_segment(segment[:1])

    def test_bit_flip_is_rejected(self):
        segment = bytearray(
            pack_epoch_segment(0, "cafe", n_reports=100, pushdown=self.PUSHDOWN)
        )
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


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_segment_holds_one_region(case, tmp_path):
    """Leaves and aggregates hold vectors, or (SHE only) a packed state."""
    _, _, stored = _paired_engines(CASES[case], tmp_path, n_epochs=4, n_users=50)
    store = stored.store
    she = "she" in case
    assert store.aggregate_keys() == ([] if she else [(1, 0), (1, 2), (2, 0)])
    files = [store.segment_path(epoch) for epoch in store.epochs()]
    files += [
        os.path.join(store.directory, entry["file"]) for entry in store.aggregate_entries()
    ]
    for path in files:
        with open(path, "rb") as handle:
            header = read_epoch_segment(handle.read())[0]
        regions = {"state", "pushdown"} & header.keys()
        assert regions == ({"state"} if she else {"pushdown"}), path


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
        """SHE keeps float partials: no vectors, but still bit-identical."""

        def factory():
            return make_protocol("flat", 16, 1.1, oracle="she")

        _, in_ram, stored = _paired_engines(factory, tmp_path)
        assert not any(stored.store.supports_pushdown(e) for e in stored.sealed_epochs)
        merged = stored.store.pushdown_state(stored.sealed_epochs)
        expected = in_ram.window_state("all")
        merged.meta = expected.meta = {}
        assert merged.to_bytes() == expected.to_bytes()
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

    def test_only_a_handles_first_checkpoint_lists_the_directory(self, tmp_path, monkeypatch):
        engine = self._stored(tmp_path)
        store_dir = engine.store.directory
        # What a crash of an earlier process might leave behind.
        strays = ["epoch-00000002.7.seg", "agg-L1-00000008.seg", "epoch-00000003.seg.tmp.1"]
        for name in strays:
            open(os.path.join(store_dir, name), "wb").close()
        listdir, listings = os.listdir, []

        def counting_listdir(path="."):
            listings.append(os.path.abspath(path))
            return listdir(path)

        monkeypatch.setattr(os, "listdir", counting_listdir)
        for epoch in (2, 4, 2, 7, 2):
            engine.session(epoch=epoch).absorb(np.arange(16), rng=np.random.default_rng(epoch))
            engine.checkpoint()
            manifest = _manifest(store_dir)
            named = {entry["file"] for entry in manifest["epochs"].values()}
            named.update(entry["file"] for entry in manifest.get("aggregates", {}).values())
            assert set(listdir(store_dir)) == named | {"MANIFEST.json"}
        assert listings == [os.path.abspath(store_dir)]
        # A fresh handle sweeps in full once more.
        restored = Engine.restore(store_dir)
        restored.checkpoint()
        restored.checkpoint()
        assert listings == [os.path.abspath(store_dir)] * 2

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
            restored.store.load_state(0)

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

    @pytest.mark.parametrize("fmt", [0, 3, "2"])
    def test_unknown_manifest_format_is_refused(self, tmp_path, fmt):
        store_dir = self._store_dir(tmp_path)
        manifest_path = os.path.join(store_dir, "MANIFEST.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        assert manifest["format"] == 2
        manifest["format"] = fmt
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(SerializationError, match=f"manifest format {fmt!r} is not supported"):
            Engine.restore(store_dir)


# --------------------------------------------------------------------- #
# stores written by repro 1.11.0: both regions per segment, format 1
# --------------------------------------------------------------------- #
WINDOWS_1_11_0 = {"last:2": last(2), "all": "all", "0,2,3": [0, 2, 3]}


def _manifest(store_dir):
    with open(os.path.join(store_dir, "MANIFEST.json")) as handle:
        return json.load(handle)


def _packed_states(store_dir):
    """Each epoch's packed state, read straight from its two-region segment."""
    states = {}
    for key, entry in _manifest(store_dir)["epochs"].items():
        with open(os.path.join(store_dir, entry["file"]), "rb") as handle:
            blob = handle.read()
        header, body_offset = read_epoch_segment(blob)
        assert {"state", "pushdown"} <= header.keys()
        states[int(key)] = segment_state_bytes(blob, header, body_offset)
    return states


def _answers(estimator, ranges):
    return {
        "frequencies": [float(v).hex() for v in estimator.estimated_frequencies()],
        "ranges": [float(estimator.range_query(r)).hex() for r in ranges],
    }


@pytest.mark.parametrize("name", ["hh", "haar"])
class TestStoresOfRepro1_11_0:
    """This build reads, answers over and extends a 1.11.0 store in place."""

    def _copy(self, name, tmp_path):
        return str(shutil.copytree(os.path.join(STORES_1_11_0, name), tmp_path / name))

    def test_load_state_equals_the_packed_state(self, name, tmp_path):
        store_dir = self._copy(name, tmp_path)
        assert _manifest(store_dir)["format"] == 1
        packed = _packed_states(store_dir)
        store = Engine.restore(store_dir).store
        assert store.epochs() == sorted(packed) == [0, 1, 2, 3]
        assert store.aggregate_keys() == [(1, 0), (1, 2), (2, 0)]
        for epoch, blob in packed.items():
            assert store.load_state(epoch).to_bytes() == blob

    def test_windows_answer_bit_identically(self, name, tmp_path):
        with open(os.path.join(STORES_1_11_0, "answers.json")) as handle:
            recorded = json.load(handle)
        ranges = [tuple(r) for r in recorded["ranges"]]
        store_dir = self._copy(name, tmp_path)
        engine = Engine.restore(store_dir)
        in_ram = Engine.open(engine.spec())
        for epoch, blob in _packed_states(store_dir).items():
            in_ram.adopt_state(blob, epoch=epoch)
        for label, window in WINDOWS_1_11_0.items():
            answers = _answers(engine.estimator(window), ranges)
            # Vectors and packed states give the same bits in this build...
            assert answers == _answers(in_ram.estimator(window), ranges), label
            # ...and the bits 1.11.0 answered (HRR may drift by 1 ulp-ish
            # across numpy builds, as in the decomposition goldens).
            for key, values in recorded["answers"][name][label].items():
                actual = np.array([float.fromhex(v) for v in answers[key]])
                expected = np.array([float.fromhex(v) for v in values])
                _check(name, actual, expected)

    def test_engine_query_answers_from_the_cli(self, name, tmp_path, capsys):
        from repro.cli import main

        store_dir = self._copy(name, tmp_path)
        assert main([
            "engine", "query", "--store-dir", store_dir, "--window", "all",
            "--ranges", "0:7",
        ]) == 0
        answer = json.loads(capsys.readouterr().out)
        assert answer["epochs"] == [0, 1, 2, 3]
        estimator = Engine.restore(store_dir).estimator("all")
        assert answer["ranges"]["0:7"] == estimator.range_query((0, 7))

    def test_a_new_epoch_seals_into_the_old_store(self, name, tmp_path):
        store_dir = self._copy(name, tmp_path)
        packed = _packed_states(store_dir)
        old = {
            entry["file"]: open(os.path.join(store_dir, entry["file"]), "rb").read()
            for entry in _manifest(store_dir)["epochs"].values()
        }
        engine = Engine.restore(store_dir)
        in_ram = Engine.open(engine.spec())
        for epoch, blob in packed.items():
            in_ram.adopt_state(blob, epoch=epoch)
        for target in (engine, in_ram):
            target.session(epoch=4).absorb(np.arange(16), rng=np.random.default_rng(4))
        engine.seal_epoch(4)
        engine.checkpoint()
        manifest = _manifest(store_dir)
        assert manifest["format"] == store_module.MANIFEST_FORMAT == 2
        assert sorted(manifest["epochs"]) == ["0", "1", "2", "3", "4"]
        with open(os.path.join(store_dir, manifest["epochs"]["4"]["file"]), "rb") as fh:
            header = read_epoch_segment(fh.read())[0]
        assert "pushdown" in header and "state" not in header
        for file_name, blob in old.items():
            with open(os.path.join(store_dir, file_name), "rb") as fh:
                assert fh.read() == blob, file_name
        restored = Engine.restore(store_dir)
        assert restored.n_reports() == 4 * 60 + 16
        for window in ("all", last(2), [1, 4]):
            assert np.array_equal(
                restored.estimator(window).estimated_frequencies(),
                in_ram.estimator(window).estimated_frequencies(),
            )


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
    left_behind = sorted(os.listdir(store_dir))
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
        if sorted(os.listdir(store_dir)) != left_behind:
            return "restoring and reading the store added or removed files"
        restored.checkpoint()
        restored.store.close()
        manifest = _manifest(store_dir)
        named = {entry["file"] for entry in manifest["epochs"].values()}
        named.update(entry["file"] for entry in manifest.get("aggregates", {}).values())
        stray = set(os.listdir(store_dir)) - named - {"MANIFEST.json"}
        if stray:
            return f"the next checkpoint left files its manifest does not name: {sorted(stray)}"
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
