"""The epoch-aware aggregation-service façade.

The paper's protocols assume one static population aggregated once; a
long-running aggregation service instead absorbs *continuous* traffic.
:class:`Engine` is the production-facing layer that turns the per-protocol
client/server objects into managed, durable, epoch-partitioned state:

* **Epochs.**  ``engine.session(epoch=...)`` opens (or re-opens) one epoch
  -- a time slice of the report stream, e.g. an hour or a day of traffic.
  Each epoch is its own :class:`~repro.core.session.CompositeAccumulator`
  shard, stamped with its epoch key in the accumulator's ``meta``, so
  ingestion never touches historical state.
* **Windows.**  ``engine.estimator(window=...)`` answers queries over any
  subset of epochs -- ``"all"``, ``last(k)``, or an explicit key list.
  The selected shards are merged *lazily* (exact integer merges into a
  copy; live epochs are never mutated) and the merged state feeds the
  existing estimator/batch-query kernels unchanged, so a single-epoch
  ``window="all"`` engine is bit-identical to the plain session path.
  ``engine.query(window=...)`` also returns the resolved epoch keys and
  their report count, all from one resolution under the engine lock.
* **Durability.**  An engine persists through its out-of-core
  :class:`~repro.engine.store.EpochStore` alone
  (``Engine.open(..., store_dir=...)``): live epochs stay in RAM,
  :meth:`Engine.seal_epoch` writes a finished epoch to its own
  memory-mapped segment file and evicts it, :meth:`Engine.checkpoint` is
  *incremental* -- only dirty epochs are rewritten, manifest fsync'd
  last -- and :meth:`Engine.restore` maps segments lazily, so RSS scales
  with the queried window instead of the total epoch count.  Windowed
  queries over sealed epochs sum the segments' pre-aggregated integer
  vectors (query pushdown), bit-identically to the in-RAM merge path.

Example::

    from repro.engine import Engine, last

    engine = Engine.open("hh", domain_size=1024, epsilon=1.1, branching=4,
                         store_dir="epochstore")
    for day, items in enumerate(daily_batches):
        engine.session(epoch=day).absorb(items, rng=rng)
        engine.seal_epoch(day)

    engine = Engine.restore("epochstore")
    weekly = engine.estimator(window=last(7))
    print(weekly.range_query((100, 400)))
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.exceptions import ProtocolUsageError
from repro.core.rng import RngLike
from repro.core.session import (
    AccumulatorState,
    CompositeAccumulator,
    ProtocolServer,
    Report,
    protocol_from_spec,
)
from repro.engine.store import EpochStore
from repro.engine.windows import ALL, WindowLike, resolve_window, split_window


def _is_protocol_like(obj) -> bool:
    return all(callable(getattr(obj, name, None)) for name in ("client", "server", "spec"))


class EpochSession:
    """A handle on one epoch of an :class:`Engine`.

    A session is a thin view: it shares the engine's per-epoch server, so
    two sessions opened on the same epoch fold into the same shard.  It
    adds the user-facing conveniences of the façade -- ``absorb`` raw
    items through the engine's client, ``ingest`` pre-encoded reports,
    snapshot the shard, or finalize an estimator over just this epoch.
    """

    def __init__(self, engine: "Engine", epoch: int, server: ProtocolServer) -> None:
        self._engine = engine
        self._epoch = epoch
        self._server = server

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EpochSession(epoch={self._epoch}, n_reports={self.n_reports})"

    @property
    def engine(self) -> "Engine":
        """The owning engine."""
        return self._engine

    @property
    def epoch(self) -> int:
        """This session's epoch key."""
        return self._epoch

    @property
    def server(self) -> ProtocolServer:
        """The live per-epoch aggregation server (shared, not a copy)."""
        return self._server

    @property
    def n_reports(self) -> int:
        """Reports folded into this epoch so far."""
        return self._server.n_reports

    def ingest(self, reports: Union[Report, Iterable[Report]]) -> "EpochSession":
        """Fold pre-encoded privatized reports into this epoch's shard."""
        self._server.ingest(reports)
        self._engine._note_mutation(self._epoch)
        return self

    def absorb(self, items: np.ndarray, rng: RngLike = None) -> "EpochSession":
        """Encode raw private items through the engine's client and ingest.

        One call is exactly one ``encode_batch`` + ``ingest`` round trip,
        so ``engine.session().absorb(items, rng)`` followed by
        ``engine.estimator()`` reproduces ``protocol.run(items, rng)``
        bit-for-bit.
        """
        self._server.ingest(self._engine.client().encode_batch(items, rng=rng))
        self._engine._note_mutation(self._epoch)
        return self

    def snapshot(self) -> CompositeAccumulator:
        """An independent deep copy of this epoch's accumulator state."""
        return self._server.snapshot()

    def estimator(self):
        """An estimator over this epoch alone (``window=[epoch]``)."""
        return self._engine.estimator(window=[self._epoch])


class Engine:
    """Epoch-aware aggregation service for one protocol configuration.

    Construct with :meth:`open`; see the module docstring for the model.
    All epochs share the engine's protocol configuration -- one engine is
    one logical aggregation service, not a multi-tenant registry.

    **Concurrency contract.**  The epoch map itself is thread-safe: every
    operation that creates, adopts, absorbs or enumerates epoch shards
    (:meth:`session`, :meth:`adopt_state`, :meth:`absorb_shard`,
    :meth:`window_state`, :meth:`estimator`, :meth:`checkpoint`, ...) runs
    under one internal re-entrant lock, so concurrent shard adoption from
    many threads never loses, duplicates or misnumbers an epoch -- this
    is what lets a multi-process ingest service (:mod:`repro.service`)
    fold worker shards in from whatever thread completes first.  The
    *contents* of a single epoch shard are not locked: ``ingest`` into
    one :class:`EpochSession` must come from one thread at a time (the
    usual arrangement -- e.g. one worker process per shard -- satisfies
    this for free), while readers are safe because windows materialise
    from snapshots, never from live state.
    """

    def __init__(self, protocol) -> None:
        if not _is_protocol_like(protocol):
            raise ProtocolUsageError(
                f"Engine needs a protocol exposing client()/server()/spec(); "
                f"got {type(protocol).__name__}"
            )
        self._protocol = protocol
        self._servers: Dict[int, ProtocolServer] = {}
        self._client = None
        # Out-of-core backing (attach_store): sealed epochs live only in
        # the store; _dirty tracks live epochs whose state has outrun
        # their last written segment.
        self._store: Optional[EpochStore] = None
        self._dirty: set = set()
        # Guards the epoch map (see the concurrency contract above).
        # Re-entrant because compound operations (absorb_shard,
        # with_postprocess) call the locked primitives while holding it.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def open(
        cls,
        spec=None,
        domain_size: Optional[int] = None,
        epsilon: Optional[float] = None,
        store_dir: Optional[str] = None,
        **kwargs,
    ) -> "Engine":
        """Open an engine for one protocol configuration.

        ``spec`` may be a live protocol object, a spec dict (as produced by
        ``protocol.spec()``), or a registry handle string -- the latter
        requires ``domain_size`` and ``epsilon`` (plus any constructor
        keywords), mirroring :func:`repro.make_protocol`.

        ``store_dir`` attaches an out-of-core
        :class:`~repro.engine.store.EpochStore` (created on first use):
        sealed epochs live on disk as lazily mapped segments and
        ``checkpoint()`` becomes incremental.  With ``spec=None`` the
        store must already exist and the protocol configuration is taken
        from its manifest -- this is the restore path.
        """
        if spec is None:
            if store_dir is None:
                raise ProtocolUsageError(
                    "Engine.open() needs a protocol (handle, spec dict, or "
                    "protocol object) or a store_dir holding an existing "
                    "epoch store"
                )
            store = EpochStore(store_dir, create=False)
            engine = cls(protocol_from_spec(store.spec))
            engine._store = store
            return engine
        if isinstance(spec, str):
            from repro import make_protocol  # deferred: repro imports engine

            if domain_size is None or epsilon is None:
                raise ProtocolUsageError(
                    "Engine.open(handle, ...) requires domain_size and epsilon"
                )
            engine = cls(make_protocol(spec, domain_size, epsilon, **kwargs))
        elif isinstance(spec, dict):
            engine = cls(protocol_from_spec(spec))
        else:
            engine = cls(spec)
        if store_dir is not None:
            engine.attach_store(store_dir)
        return engine

    def attach_store(self, store_dir: str) -> "Engine":
        """Attach (opening or creating) an out-of-core epoch store.

        An existing store must have been written for an identically
        configured protocol (assembly-only spec keys ignored).  Epochs
        already sealed in the store become queryable immediately -- they
        are mapped lazily, never materialized wholesale.  A live epoch
        that collides with a sealed one is refused: restore *from* the
        store first, then ingest.
        """
        with self._lock:
            if self._store is not None:
                raise ProtocolUsageError(
                    f"engine is already backed by the store at "
                    f"{self._store.directory}"
                )
            store = EpochStore(store_dir, spec=self.spec())
            collisions = sorted(set(self._servers) & set(store.epochs()))
            if collisions:
                raise ProtocolUsageError(
                    f"live epoch(s) {collisions} collide with sealed epochs "
                    f"in the store at {store_dir}; restore from the store "
                    "first (Engine.open(None, store_dir=...)), then ingest"
                )
            self._store = store
        return self

    @property
    def store(self) -> Optional[EpochStore]:
        """The attached out-of-core store (``None`` for in-RAM engines)."""
        return self._store

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def protocol(self):
        """The protocol configuration this engine aggregates for."""
        return self._protocol

    def spec(self) -> dict:
        """The protocol's registry spec (see ``protocol.spec()``)."""
        return self._protocol.spec()

    @property
    def epochs(self) -> Tuple[int, ...]:
        """Epoch keys currently held (live and sealed), in ascending order."""
        with self._lock:
            return tuple(sorted(self._known_epochs()))

    def _known_epochs(self) -> set:
        known = set(self._servers)
        if self._store is not None:
            known.update(self._store.epochs())
        return known

    @property
    def live_epochs(self) -> Tuple[int, ...]:
        """Epoch keys currently materialized in RAM, in ascending order."""
        with self._lock:
            return tuple(sorted(self._servers))

    @property
    def sealed_epochs(self) -> Tuple[int, ...]:
        """Epoch keys held only by the store, in ascending order."""
        with self._lock:
            if self._store is None:
                return ()
            return tuple(
                sorted(set(self._store.epochs()) - set(self._servers))
            )

    def _epoch_reports(self, epoch: int) -> int:
        """One epoch's report count, live state winning over the manifest."""
        server = self._servers.get(epoch)
        if server is not None:
            return server.n_reports
        return self._store.n_reports(epoch)

    def n_reports(self, window: WindowLike = ALL) -> int:
        """Total reports across the selected window.

        A fresh engine reports 0 for *any* window -- an empty service has
        nothing in every window -- so monitoring can poll sliding windows
        before the first epoch exists.  Sealed epochs are counted from
        the store manifest without loading a single segment.
        """
        with self._lock:
            if not self._known_epochs():
                return 0
            return sum(
                self._epoch_reports(epoch) for epoch in self._resolve(window)
            )

    def epoch_report_counts(self) -> Dict[int, int]:
        """Per-epoch report counts, without materializing sealed epochs."""
        with self._lock:
            return {
                epoch: self._epoch_reports(epoch)
                for epoch in sorted(self._known_epochs())
            }

    def epoch_stats(self) -> Dict[int, dict]:
        """Per-epoch accounting for monitoring and ``engine info``.

        Each entry reports ``n_reports``, the serialized state size in
        ``bytes`` (live epochs pay one in-memory serialization; sealed
        epochs reuse the manifest's recorded segment size), whether the
        epoch is ``sealed`` (on disk only), and -- when store-backed --
        the ``on_disk`` segment size and ``dirty`` flag.
        """
        with self._lock:
            stats: Dict[int, dict] = {}
            for epoch in sorted(self._known_epochs()):
                server = self._servers.get(epoch)
                entry: dict = {"sealed": server is None}
                if server is not None:
                    entry["n_reports"] = server.n_reports
                    entry["bytes"] = len(server.to_bytes())
                else:
                    entry["n_reports"] = self._store.n_reports(epoch)
                    entry["bytes"] = self._store.on_disk_size(epoch)
                if self._store is not None:
                    in_store = epoch in self._store
                    entry["on_disk"] = (
                        self._store.on_disk_size(epoch) if in_store else 0
                    )
                    entry["dirty"] = epoch in self._dirty or (
                        server is not None and not in_store
                    )
                stats[epoch] = entry
            return stats

    def describe(self) -> str:
        """Single-line summary used by the CLI and logs."""
        name = getattr(self._protocol, "name", type(self._protocol).__name__)
        return (
            f"Engine({name}, epochs={list(self.epochs)}, "
            f"reports={self.n_reports()})"
        )

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def client(self):
        """The engine's shared stateless client-side encoder (cached)."""
        if self._client is None:
            self._client = self._protocol.client()
        return self._client

    def _next_epoch(self) -> int:
        known = self._known_epochs()
        return max(known) + 1 if known else 0

    def _note_mutation(self, epoch: int) -> None:
        """Record that a live epoch's statistics changed (store dirtiness)."""
        if self._store is None:
            return
        with self._lock:
            self._dirty.add(int(epoch))
            self._store.mark_dirty(int(epoch))

    def _load_sealed(self, epoch: int) -> ProtocolServer:
        """Materialize one sealed epoch back into RAM (clean until mutated)."""
        state = self._store.load_state(epoch)
        server = self._protocol.server(state=state)
        server.state.meta.setdefault("epoch", epoch)
        self._servers[epoch] = server
        return server

    def session(self, epoch: Optional[int] = None) -> EpochSession:
        """Open a session on ``epoch`` (default: the next fresh epoch).

        Re-opening an existing epoch returns a session over the same
        shard; a new epoch key creates an empty shard stamped with
        ``meta={"epoch": key}``.  Opening a *sealed* epoch loads its
        segment back into RAM (it stays clean -- and is not rewritten at
        the next checkpoint -- until mutated).
        """
        with self._lock:
            if epoch is None:
                epoch = self._next_epoch()
            epoch = int(epoch)
            server = self._servers.get(epoch)
            if server is None:
                if self._store is not None and epoch in self._store:
                    server = self._load_sealed(epoch)
                else:
                    server = self._protocol.server()
                    server.state.meta.setdefault("epoch", epoch)
                    self._servers[epoch] = server
        return EpochSession(self, epoch, server)

    def adopt_state(
        self,
        state: Union[AccumulatorState, bytes, bytearray, memoryview],
        epoch: Optional[int] = None,
    ) -> EpochSession:
        """Adopt an existing accumulator state as a new epoch shard.

        ``state`` is a :class:`CompositeAccumulator` or its packed bytes
        (e.g. a ``repro-cli aggregate`` file) of an identically configured
        protocol; it becomes epoch ``epoch`` (default: next fresh key).
        Adopting into an existing epoch is refused -- merge through a
        window instead, so historical shards stay immutable (to *combine*
        shards of one time slice, see :meth:`absorb_shard`).
        """
        if isinstance(state, (bytes, bytearray, memoryview)):
            state = AccumulatorState.from_bytes(bytes(state))
        with self._lock:
            if epoch is None:
                epoch = self._next_epoch()
            epoch = int(epoch)
            if epoch in self._known_epochs():
                raise ProtocolUsageError(
                    f"epoch {epoch} already exists in this engine; windows, not "
                    "adoption, combine existing epochs"
                )
            server = self._protocol.server(state=state)
            server.state.meta.setdefault("epoch", epoch)
            self._servers[epoch] = server
            self._note_mutation(epoch)
        return EpochSession(self, epoch, server)

    def absorb_shard(
        self,
        state: Union[AccumulatorState, bytes, bytearray, memoryview],
        epoch: Optional[int] = None,
    ) -> EpochSession:
        """Merge one shard's accumulator into an epoch, creating it if new.

        This is the epoch-close hook of sharded ingestion: N workers each
        accumulate a slice of one time window, and on epoch close every
        shard is absorbed into the same epoch key.  Unlike
        :meth:`adopt_state`, absorbing into an existing epoch *merges*
        (exactly -- integer sufficient statistics, so any absorption order
        is bit-identical to single-server ingestion of the same reports).
        The adopt-or-merge decision and the merge itself run under the
        engine lock, so concurrent absorption from many threads is safe.
        """
        if isinstance(state, (bytes, bytearray, memoryview)):
            state = AccumulatorState.from_bytes(bytes(state))
        with self._lock:
            if epoch is None:
                epoch = self._next_epoch()
            epoch = int(epoch)
            server = self._servers.get(epoch)
            if server is None and self._store is not None and epoch in self._store:
                # Absorbing into a sealed epoch un-seals it first.
                server = self._load_sealed(epoch)
            if server is None:
                return self.adopt_state(state, epoch=epoch)
            server.merge(state)
            self._note_mutation(epoch)
        return EpochSession(self, epoch, server)

    # ------------------------------------------------------------------ #
    # windowed queries
    # ------------------------------------------------------------------ #
    def _resolve(self, window: WindowLike) -> List[int]:
        return resolve_window(window, sorted(self._known_epochs()))

    def window_state(self, window: WindowLike = ALL) -> CompositeAccumulator:
        """The merged accumulator state of the selected epochs (a copy).

        Merging is exact (integer sufficient statistics), commutative and
        associative, so any window materialises bit-identically regardless
        of how its epochs were sharded.  The returned state is independent
        of the live shards and records the window in ``meta["epochs"]``.

        On a store-backed engine the sealed part of the window is
        answered by *query pushdown* when every selected segment carries
        pre-aggregated vectors: the store plans the window as a cover of
        power-of-two aggregate segments plus leaves (O(log k) nodes for
        a contiguous window) and sums the mapped int64 statistics
        elementwise -- exactly the accumulator merge -- so no sealed
        epoch is ever fully decoded.  Segments without a pushdown region
        (e.g. SHE's exact-summation states) fall back to full
        load-and-merge; either way the result is bit-identical to an
        all-live merge, and no sealed epoch is re-materialized into the
        engine's epoch map.
        """
        with self._lock:
            return self._merge_window(self._resolve(window))

    def _merge_window(self, selected: List[int]) -> CompositeAccumulator:
        """Merge resolved epoch keys into one state; the caller holds the lock."""
        live, sealed = split_window(selected, self._servers)
        merged: Optional[CompositeAccumulator] = None
        if sealed:
            merged = self._store.pushdown_state(sealed)
            if merged is None:
                for epoch in sealed:
                    state = self._store.load_state(epoch)
                    merged = state if merged is None else merged.merge(state)
        for epoch in live:
            if merged is None:
                merged = self._servers[epoch].snapshot()
            else:
                merged.merge(self._servers[epoch].state)
        merged.meta = {"epochs": list(selected)}
        return merged

    def estimator(self, window: WindowLike = ALL):
        """Finalize an estimator over the selected window of epochs.

        The merge is lazy -- nothing is combined until an estimator is
        requested -- and feeds the family's existing estimator and batch
        query kernels unchanged.  A single-epoch window over a live shard
        finalizes it directly, which is bit-identical to the plain
        client/server session path.
        """
        return self.query(window)[1]

    def query(self, window: WindowLike = ALL) -> Tuple[List[int], object, int]:
        """Answer one window: ``(epoch keys, estimator, report count)``.

        The window is resolved once and merged under the engine lock, and
        the report count is the merged state's own, so the three always
        describe the same epochs even while another thread absorbs a new
        one.  Resolving ``last:K`` or ``all`` separately for each would
        let such an epoch land in between and mislabel the answer.
        Finalization runs after the lock is released, except for a
        single live epoch, which is finalized in place.
        """
        with self._lock:
            selected = self._resolve(window)
            if len(selected) == 1 and selected[0] in self._servers:
                server = self._servers[selected[0]]
                return selected, server.finalize(), server.n_reports
            state = self._merge_window(selected)
        finalize = getattr(self._protocol, "estimator_from_state", None)
        if finalize is not None:
            return selected, finalize(state), state.n_reports
        return selected, self._protocol.server(state=state).finalize(), state.n_reports

    def with_postprocess(self, postprocess) -> "Engine":
        """A view of this engine under a different post-processing pipeline.

        Post-processing runs at assembly (finalize) time only, so an
        existing service can be re-finalized under any pipeline without
        re-ingesting a single report.  ``postprocess`` is a registry
        string (``"none"``, ``"norm_sub"``, ``"consistency+norm_sub"``,
        ...); the returned engine shares the live shards of every epoch
        existing at call time (ingest into those through either view and
        both see the reports) but finalizes its estimators through the new
        pipeline.  This is what the CLI's ``engine query --postprocess``
        uses.
        """
        spec = self.spec()
        spec["postprocess"] = postprocess
        clone = Engine(protocol_from_spec(spec))
        with self._lock:
            for epoch in self.live_epochs:
                # Adopt the live shard itself (not a copy): states are
                # exchangeable across postprocess settings because the
                # pipeline never touches the sufficient statistics.
                clone.adopt_state(self._servers[epoch].state, epoch=epoch)
            # Sealed epochs stay sealed: the clone reads the same store
            # (spec hashes ignore assembly-only keys, so the segments are
            # exchangeable too).  The clone is a query view -- it borrows
            # the store and must not checkpoint into it.
            clone._store = self._store
            clone._dirty = set(self._dirty)
        return clone

    def simulate(self, true_counts: np.ndarray, rng: RngLike = None):
        """Statistically equivalent aggregate simulation (Section 5).

        Façade over the protocol's aggregate-simulation driver: samples an
        estimator straight from the exact histogram without materialising
        per-user reports.  The sample is *not* folded into any epoch --
        simulation produces estimates, not mergeable state.
        """
        driver = getattr(self._protocol, "simulate_aggregate", None)
        if driver is None:
            name = getattr(self._protocol, "name", type(self._protocol).__name__)
            raise ProtocolUsageError(
                f"{name} does not support aggregate simulation"
            )
        return driver(true_counts, rng=rng)

    # ------------------------------------------------------------------ #
    # sealing, checkpoint, restore
    # ------------------------------------------------------------------ #
    def seal_epoch(self, epoch: int) -> "Engine":
        """Write one epoch to its own segment and evict it from RAM.

        The epoch stays fully queryable -- windows read it back through
        the store's lazy memory maps (and, when eligible, through query
        pushdown) -- but it no longer occupies RSS.  Sealing an
        already-sealed epoch is a no-op; the segment is only rewritten
        when the live state has outrun it.  Requires an attached store.
        """
        with self._lock:
            self._require_store("seal_epoch")
            epoch = int(epoch)
            server = self._servers.get(epoch)
            if server is None:
                if epoch in self._store:
                    return self
                raise ProtocolUsageError(
                    f"cannot seal unknown epoch {epoch}; "
                    f"available epochs: {list(self.epochs)}"
                )
            if epoch in self._dirty or not self._store.has_segment(epoch):
                self._store.write_segment(epoch, server.state)
            # Sealing may have just completed one or more aligned blocks:
            # fold them into aggregate segments now, while the leaves are
            # hot, so later windowed queries read O(log k) segments.
            self._store.build_aggregates([epoch])
            if self._store.manifest_dirty:
                self._store.save_manifest()
            del self._servers[epoch]
            self._dirty.discard(epoch)
        return self

    def _require_store(self, operation: str) -> None:
        if self._store is None:
            raise ProtocolUsageError(
                f"{operation} needs a store-backed engine; open with "
                "Engine.open(..., store_dir=...) or attach_store()"
            )

    def checkpoint(self) -> "Engine":
        """Persist the engine state durably into its epoch store.

        The checkpoint is *incremental*: only live epochs whose statistics
        have changed since their last segment write -- plus live epochs
        that never had a segment -- are rewritten, missing aggregate
        blocks are materialized, then the manifest is rewritten and
        fsync'd last.  Clean sealed epochs are never touched, and a fully
        clean store (nothing dirty, nothing built) skips the manifest
        rewrite entirely, which is what makes the checkpoint cost
        O(dirty) instead of O(total).  Requires an attached store.
        """
        with self._lock:
            self._require_store("checkpoint")
            for epoch in sorted(self._servers):
                if epoch in self._dirty or not self._store.has_segment(epoch):
                    self._store.write_segment(epoch, self._servers[epoch].state)
            self._store.build_aggregates()
            if self._store.manifest_dirty:
                self._store.save_manifest()
            self._dirty.clear()
        return self

    @classmethod
    def restore(cls, store_dir: str) -> "Engine":
        """Reopen a store-backed engine from its epoch store directory.

        Restore is lazy: the manifest is read, and segments are mapped
        only when a window queries them.  Equivalent to
        ``Engine.open(None, store_dir=store_dir)``.
        """
        return cls.open(None, store_dir=store_dir)
