"""Tests for the epoch-aware aggregation-service façade (:mod:`repro.engine`).

Three guarantees anchor the engine layer:

* **Bit-identity with the session path**: a single-epoch engine queried
  with ``window="all"`` reproduces ``protocol.run`` exactly, pinned
  against the same hex-float goldens as the decomposition engine for all
  14 configurations (HRR-based cases keep their <= 1e-12 allowance).
* **Durability**: engine -> store checkpoint -> restore -> estimator is
  bit-identical for every registry handle (flat, tree, wavelet alias,
  grid2d), epochs merge exactly in any order, and pre-engine v1 payloads
  (bare server states) still load as an epoch through ``load_server``.
* **Window semantics**: ``all`` / ``last(k)`` / explicit epoch lists
  resolve deterministically and fail loudly on unknown epochs.
"""

import json

import numpy as np
import pytest

from test_decomposition import CASES, HRR_CASES, _expected, golden  # noqa: F401

from repro import HierarchicalGrid2D, HierarchicalHistogram, make_protocol
from repro.core.exceptions import ProtocolUsageError
from repro.core.serialization import MAGIC
from repro.engine import Engine, InvalidWindowError, last, parse_window, resolve_window


def _check(case, actual, expected):
    if np.array_equal(actual, expected):
        return
    assert case in HRR_CASES and np.allclose(
        actual, expected, rtol=0.0, atol=1e-12
    ), f"{case}: engine path drifted from the session goldens"


class TestGoldenBitIdentity:
    """Single-epoch window='all' engine == the plain session path."""

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_single_epoch_window_all_matches_run_goldens(self, golden, case):
        protocol = CASES[case]()
        items = np.random.default_rng(0).integers(0, protocol.domain_size, size=600)
        engine = Engine.open(protocol)
        engine.session().absorb(items, rng=np.random.default_rng(9))
        estimator = engine.estimator(window="all")
        _check(case, estimator.estimated_frequencies(), _expected(golden, case, "run"))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_checkpoint_restore_preserves_goldens(self, golden, case, tmp_path):
        protocol = CASES[case]()
        items = np.random.default_rng(0).integers(0, protocol.domain_size, size=600)
        store_dir = str(tmp_path / "store")
        engine = Engine.open(protocol, store_dir=store_dir)
        engine.session().absorb(items, rng=np.random.default_rng(9))
        engine.seal_epoch(0)
        restored = Engine.restore(store_dir)
        _check(
            case,
            restored.estimator().estimated_frequencies(),
            _expected(golden, case, "run"),
        )


#: Registry handles exercised by the round-trip suite (wavelet = alias).
HANDLES = {
    "flat": {},
    "hh": {"branching": 4},
    "wavelet": {},
    "grid2d": {"domain_size_y": 16},
}


def _items_for(protocol, n_users, seed):
    rng = np.random.default_rng(seed)
    if isinstance(protocol, HierarchicalGrid2D):
        return np.stack(
            [
                rng.integers(0, protocol.domain_size_x, size=n_users),
                rng.integers(0, protocol.domain_size_y, size=n_users),
            ],
            axis=1,
        )
    return rng.integers(0, protocol.domain_size, size=n_users)


def _fingerprint(protocol, estimator) -> np.ndarray:
    """A deterministic array of query answers for equality checks."""
    if isinstance(protocol, HierarchicalGrid2D):
        rects = [((0, 7), (0, 7)), ((2, 13), (5, 11)), ((0, 15), (0, 15))]
        return np.asarray(
            [estimator.rectangle_query(rx, ry) for rx, ry in rects]
        )
    return np.asarray(estimator.estimated_frequencies())


@pytest.mark.parametrize("handle", sorted(HANDLES))
class TestCheckpointRestoreRoundTrip:
    def _engine(self, handle, n_epochs=3):
        protocol = make_protocol(handle, 16, 1.2, **HANDLES[handle])
        engine = Engine.open(protocol)
        rng = np.random.default_rng(7)
        for epoch in range(n_epochs):
            engine.session(epoch=epoch).ingest(
                engine.client().encode_batch(_items_for(protocol, 400, epoch), rng=rng)
            )
        return protocol, engine

    def test_round_trip_is_bit_identical(self, handle, tmp_path):
        protocol, engine = self._engine(handle)
        store_dir = str(tmp_path / "store")
        engine.attach_store(store_dir)
        engine.checkpoint()
        restored = Engine.restore(store_dir)
        assert restored.sealed_epochs == engine.epochs
        assert restored.epochs == engine.epochs
        assert restored.n_reports() == engine.n_reports()
        for window in ("all", last(2), [0, 2]):
            assert np.array_equal(
                _fingerprint(protocol, engine.estimator(window)),
                _fingerprint(restored.protocol, restored.estimator(window)),
            )

    def test_windows_are_merge_order_invariant(self, handle):
        protocol, engine = self._engine(handle)
        # The same reports folded as one epoch, and as three epochs
        # adopted in reversed order, answer identically.
        single = Engine.open(protocol)
        session = single.session(epoch=0)
        rng = np.random.default_rng(7)
        for epoch in range(3):
            session.ingest(
                single.client().encode_batch(_items_for(protocol, 400, epoch), rng=rng)
            )
        reversed_engine = Engine.open(protocol)
        for new_epoch, epoch in enumerate(reversed(engine.epochs)):
            reversed_engine.adopt_state(
                engine.session(epoch=epoch).snapshot(), epoch=new_epoch
            )
        expected = _fingerprint(protocol, single.estimator())
        assert np.array_equal(
            _fingerprint(protocol, engine.estimator("all")), expected
        )
        assert np.array_equal(
            _fingerprint(protocol, reversed_engine.estimator("all")), expected
        )

    def test_v1_server_state_restores_as_single_epoch(self, handle, tmp_path):
        from repro.cli import _engine_from_state_files

        protocol, engine = self._engine(handle, n_epochs=1)
        server = engine.session(epoch=0).server
        path = tmp_path / "s.state"
        path.write_bytes(server.state.copy().to_bytes())  # a pre-engine v1 payload
        assert path.read_bytes().startswith(MAGIC)
        restored = _engine_from_state_files([str(path)])  # merge's loader
        assert restored.epochs == (0,)
        assert restored.n_reports() == server.n_reports
        assert np.array_equal(
            _fingerprint(protocol, restored.estimator()),
            _fingerprint(protocol, engine.estimator()),
        )


class TestWindows:
    def _engine(self, n_epochs=4):
        engine = Engine.open("hh", domain_size=32, epsilon=1.1, branching=4)
        rng = np.random.default_rng(3)
        for epoch in range(n_epochs):
            engine.session(epoch=epoch).absorb(
                rng.integers(0, 32, size=200), rng=rng
            )
        return engine

    def test_resolution_forms(self):
        engine = self._engine()
        epochs = engine.epochs
        assert resolve_window("all", epochs) == [0, 1, 2, 3]
        assert resolve_window(None, epochs) == [0, 1, 2, 3]
        assert resolve_window(2, epochs) == [2, 3]
        assert resolve_window(last(3), epochs) == [1, 2, 3]
        assert resolve_window(last(4), epochs) == [0, 1, 2, 3]
        assert resolve_window([3, 0], epochs) == [0, 3]  # ascending, dedup order
        assert engine.n_reports(last(2)) == 400

    def test_window_reports_and_estimates_compose(self):
        engine = self._engine()
        total = sum(
            engine.session(epoch=epoch).n_reports for epoch in engine.epochs
        )
        assert engine.n_reports("all") == total
        merged = engine.window_state([1, 2])
        assert merged.n_reports == engine.n_reports([1, 2])
        assert merged.meta == {"epochs": [1, 2]}
        # Live shards are untouched by window materialisation.
        assert engine.session(epoch=1).server.state.meta == {"epoch": 1}

    def test_window_errors(self):
        engine = self._engine()
        with pytest.raises(ProtocolUsageError, match="unknown epoch"):
            engine.estimator(window=[0, 9])
        with pytest.raises(ProtocolUsageError, match="at least one epoch"):
            engine.estimator(window=[])
        with pytest.raises(ProtocolUsageError, match="k >= 1"):
            engine.estimator(window=last(0))
        with pytest.raises(ProtocolUsageError, match="holds only 4"):
            engine.estimator(window=last(99))
        with pytest.raises(ProtocolUsageError, match="unknown window string"):
            engine.estimator(window="yesterday")
        with pytest.raises(ProtocolUsageError, match="invalid window"):
            engine.estimator(window=True)
        empty = Engine.open("flat", domain_size=8, epsilon=1.0)
        # An empty service has nothing in *every* window -- monitoring may
        # poll sliding windows before the first epoch exists.
        assert empty.n_reports() == 0
        assert empty.n_reports(last(7)) == 0
        assert empty.n_reports([0]) == 0
        with pytest.raises(ProtocolUsageError, match="no epochs"):
            empty.estimator()

    def test_window_errors_are_clean_value_errors(self):
        """Malformed windows raise ValueError subclasses, never KeyError.

        The three contract cases: empty selections, unknown epoch keys,
        and last:K with K larger than the number of held epochs.
        """
        engine = self._engine()  # epochs 0..3
        for window in ([], [0, 9], last(5), "yesterday"):
            with pytest.raises(ValueError):
                engine.estimator(window=window)
        with pytest.raises(InvalidWindowError):
            engine.window_state(last(99))
        try:
            engine.estimator(window=[7])
        except KeyError:  # pragma: no cover - the defect this test pins
            raise AssertionError("unknown epochs must not raise KeyError")
        except ValueError:
            pass

    def test_parse_window_cli_forms(self):
        assert parse_window("all") == "all"
        assert parse_window("") == "all"
        assert parse_window("last:3") == last(3)
        assert parse_window("0,2,5") == [0, 2, 5]
        with pytest.raises(ValueError, match="malformed window"):
            parse_window("last:x")
        with pytest.raises(ValueError, match="malformed window"):
            parse_window("a,b")


class TestEngineLifecycle:
    def test_open_accepts_protocol_spec_and_handle(self):
        protocol = HierarchicalHistogram(32, 1.1, branching=4)
        for engine in (
            Engine.open(protocol),
            Engine.open(protocol.spec()),
            Engine.open("hh", domain_size=32, epsilon=1.1, branching=4),
        ):
            assert engine.spec() == protocol.spec()
        with pytest.raises(ProtocolUsageError, match="domain_size and epsilon"):
            Engine.open("hh")
        with pytest.raises(ProtocolUsageError, match="client"):
            Engine.open(object())

    def test_session_reuse_and_auto_epochs(self):
        engine = Engine.open("flat", domain_size=8, epsilon=1.0)
        first = engine.session()
        assert first.epoch == 0
        again = engine.session(epoch=0)
        assert again.server is first.server
        assert engine.session().epoch == 1
        assert engine.epochs == (0, 1)

    def test_adopt_state_refuses_existing_epoch(self):
        engine = Engine.open("flat", domain_size=8, epsilon=1.0)
        session = engine.session(epoch=0)
        session.absorb(np.arange(8), rng=0)
        with pytest.raises(ProtocolUsageError, match="already exists"):
            engine.adopt_state(session.snapshot(), epoch=0)

    def test_adopt_state_rejects_other_configurations(self):
        engine = Engine.open("flat", domain_size=8, epsilon=1.0)
        other = Engine.open("flat", domain_size=8, epsilon=2.0)
        other.session().absorb(np.arange(8), rng=0)
        with pytest.raises(ProtocolUsageError, match="differently configured"):
            engine.adopt_state(other.session(epoch=0).snapshot())

    def test_simulate_matches_simulate_aggregate(self):
        protocol = HierarchicalHistogram(32, 1.1, branching=4)
        counts = np.full(32, 25)
        direct = protocol.simulate_aggregate(counts, rng=np.random.default_rng(4))
        via_engine = Engine.open(protocol).simulate(
            counts, rng=np.random.default_rng(4)
        )
        assert np.array_equal(
            direct.estimated_frequencies(), via_engine.estimated_frequencies()
        )

    def test_simulate_requires_an_aggregate_driver(self):
        engine = Engine.open(HierarchicalGrid2D(16, 16, 1.1))
        with pytest.raises(ProtocolUsageError, match="aggregate simulation"):
            engine.simulate(np.ones(16))

    def test_server_snapshot_restore_round_trip(self):
        protocol = HierarchicalHistogram(32, 1.1, branching=4)
        server = protocol.server()
        server.ingest(protocol.client().encode_batch(np.arange(32), rng=0))
        frozen = server.snapshot()
        before = server.finalize().estimated_frequencies()
        server.ingest(protocol.client().encode_batch(np.arange(32), rng=1))
        assert server.n_reports == 64
        server.restore(frozen)
        assert server.n_reports == 32
        assert np.array_equal(server.finalize().estimated_frequencies(), before)
        other = HierarchicalHistogram(32, 2.0, branching=4).server()
        with pytest.raises(ProtocolUsageError):
            other.restore(frozen)


class TestEngineCli:
    def _encode(self, tmp_path, shards=1):
        from repro.cli import main, write_items

        data = tmp_path / "users.csv"
        write_items(str(data), np.random.default_rng(2).integers(0, 32, size=600))
        assert main([
            "encode", "--input", str(data), "--domain-size", "32",
            "--epsilon", "1.1", "--method", "hh", "--seed", "5",
            "--shards", str(shards), "--output", str(tmp_path / "r.bin"),
        ]) == 0
        if shards == 1:
            return [str(tmp_path / "r.bin")]
        return [str(tmp_path / f"r.bin.{i}") for i in range(shards)]

    def test_fresh_checkpoint_respects_explicit_epoch(self, tmp_path):
        from repro.cli import main

        (report,) = self._encode(tmp_path)
        store_dir = str(tmp_path / "store")
        # --epoch on a brand-new store must key the first shard,
        # e.g. a service using dates (20260730) rather than 0, 1, 2...
        assert main([
            "engine", "checkpoint", "--store-dir", store_dir,
            "--reports", report, "--epoch", "20260730",
        ]) == 0
        assert Engine.restore(store_dir).epochs == (20260730,)

    def test_info_reports_both_checkpointed_epochs_and_a_window_plan(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        store_dir = str(tmp_path / "store")
        for report in self._encode(tmp_path, shards=2):
            assert main([
                "engine", "checkpoint", "--store-dir", store_dir, "--reports", report,
            ]) == 0
        capsys.readouterr()
        assert main(["engine", "info", "--store-dir", store_dir]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["epochs"] == info["store"]["sealed_epochs"] == [0, 1]
        assert info["epoch_reports"] == {"0": 300, "1": 300}
        assert main(["engine", "info", "--store-dir", store_dir, "--aggregates"]) == 0
        detail = json.loads(capsys.readouterr().out)
        assert detail["epochs"] == [0, 1]
        # One level-1 aggregate block covers both sealed epochs.
        assert detail["store"]["window_plan"] == [["agg", 1, 0]]
        assert main([
            "engine", "query", "--store-dir", store_dir, "--window", "last:1",
            "--ranges", "0:15", "--quantiles", "0.5",
        ]) == 0
        answer = json.loads(capsys.readouterr().out)
        assert answer["epochs"] == [1] and answer["n_users"] == 300

    def test_aggregate_output_is_byte_identical_to_a_plain_server(self, tmp_path):
        from repro.cli import main
        from repro.core.session import load_report_file

        (report_path,) = self._encode(tmp_path)
        state_path = tmp_path / "s.state"
        assert main([
            "aggregate", "--reports", report_path, "--output", str(state_path),
        ]) == 0
        protocol, report = load_report_file(report_path)
        expected = protocol.server().ingest(report).to_bytes()
        assert state_path.read_bytes() == expected

    def test_merge_output_state_is_byte_identical_to_a_plain_server(self, tmp_path):
        from repro.cli import main
        from repro.core.session import load_report_file

        reports = self._encode(tmp_path, shards=2)
        for index, report in enumerate(reports):
            assert main([
                "aggregate", "--reports", report,
                "--output", str(tmp_path / f"s{index}.state"),
            ]) == 0
        assert main([
            "merge", "--states", str(tmp_path / "s0.state"),
            str(tmp_path / "s1.state"), "--ranges", "0:15",
            "--output", str(tmp_path / "out.json"),
            "--output-state", str(tmp_path / "merged.state"),
        ]) == 0
        server = None
        for path in reports:
            protocol, report = load_report_file(path)
            server = server or protocol.server()
            server.ingest(report)
        assert (tmp_path / "merged.state").read_bytes() == server.to_bytes()


class TestConcurrentShardAdoption:
    """The engine's concurrency contract: the epoch map is thread-safe.

    Shard workers (or service threads) may adopt and absorb states from
    many threads at once; the engine must neither lose a shard, corrupt
    an epoch, nor double-assign an epoch key.  These are regression tests
    for the internal lock -- without it, ``_next_epoch`` races hand two
    threads the same fresh key and one shard silently vanishes (or
    ``adopt_state`` raises on a key it was never given).
    """

    N_THREADS = 8
    SHARDS_PER_THREAD = 6

    def _shard_states(self, protocol, seed):
        rng = np.random.default_rng(seed)
        states = []
        for index in range(self.N_THREADS * self.SHARDS_PER_THREAD):
            server = protocol.server()
            items = rng.integers(0, protocol.domain_size, size=20)
            server.ingest(
                protocol.client().encode_batch(items, rng=np.random.default_rng(index))
            )
            states.append(server.state.copy())
        return states

    def test_threaded_adopt_state_assigns_unique_epochs(self):
        import threading

        protocol = make_protocol("flat", 32, 1.0)
        states = self._shard_states(protocol, seed=21)
        engine = Engine.open(protocol)
        failures = []

        def adopt(thread_index):
            try:
                for state in states[thread_index :: self.N_THREADS]:
                    engine.adopt_state(state.to_bytes())
            except Exception as exc:  # noqa: BLE001 - surfaced via assert
                failures.append(exc)

        threads = [
            threading.Thread(target=adopt, args=(index,))
            for index in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        assert len(engine.epochs) == len(states)
        assert engine.epochs == tuple(range(len(states)))
        assert engine.n_reports() == 20 * len(states)

    def test_threaded_absorb_shard_merges_exactly(self):
        import threading

        protocol = make_protocol("hh", 32, 1.0, branching=4)
        states = self._shard_states(protocol, seed=22)
        engine = Engine.open(protocol)
        failures = []

        def absorb(thread_index):
            try:
                for state in states[thread_index :: self.N_THREADS]:
                    engine.absorb_shard(state.to_bytes(), epoch=7)
            except Exception as exc:  # noqa: BLE001 - surfaced via assert
                failures.append(exc)

        threads = [
            threading.Thread(target=absorb, args=(index,))
            for index in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        assert engine.epochs == (7,)
        # merge is associative + commutative: any interleaving of the
        # threaded absorption reproduces the sequential fold exactly
        reference = states[0].copy()
        for state in states[1:]:
            reference.merge(state)
        merged = engine.window_state("all")
        merged.meta = {}
        reference.meta = {}
        assert merged.to_bytes() == reference.to_bytes()

    def test_threaded_sessions_share_one_epoch_safely(self):
        import threading

        protocol = make_protocol("flat", 16, 1.0)
        engine = Engine.open(protocol)
        barrier = threading.Barrier(self.N_THREADS)
        sessions = []
        lock = threading.Lock()

        def open_session():
            barrier.wait()
            session = engine.session(epoch=3)
            with lock:
                sessions.append(session)

        threads = [
            threading.Thread(target=open_session) for _ in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # every thread got a view of the SAME shard, not racing fresh ones
        assert engine.epochs == (3,)
        assert len({id(session.server) for session in sessions}) == 1
