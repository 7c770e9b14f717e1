"""Client/server streaming sessions for LDP range-query protocols.

The paper's protocols are distributed by nature: every user randomizes her
item locally and an untrusted aggregator combines the reports.  This module
makes that split first-class instead of hiding it inside a batch
``run()`` call:

* :class:`ProtocolClient` is the stateless user side.  ``encode(item)`` /
  ``encode_batch(items)`` perform only the epsilon-LDP randomization and
  produce a typed :class:`Report` -- the one object that ever leaves a
  user's device.
* :class:`ProtocolServer` is the aggregator side.  ``ingest(reports)``
  folds reports into a compact sufficient-statistics accumulator,
  ``merge(other)`` combines the accumulators of independently run server
  shards, and ``finalize()`` turns the current state into a
  :class:`~repro.core.protocol.RangeQueryEstimator`.
* :class:`AccumulatorState` is the mergeable, serializable state a server
  carries.  ``merge`` is exactly associative and commutative -- every
  concrete accumulator stores integer (or exact dyadic) sums -- so any
  sharding of a report stream, merged in any order, finalizes to an
  estimator that is bit-for-bit identical to single-server ingestion.
  ``to_bytes()`` / ``from_bytes()`` round-trip the state through a stable,
  pickle-free wire format (:mod:`repro.core.serialization`), enabling
  persistence and cross-process aggregation.

:meth:`RangeQueryProtocol.run` is a thin convenience wrapper over one
client plus one server; the experiments, benchmarks and CLI all keep
working unchanged on top of this streaming model.
"""

from __future__ import annotations

import abc
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    TYPE_CHECKING,
    Union,
)

import numpy as np

from repro.core.exceptions import ProtocolUsageError
from repro.core.rng import RngLike, ensure_rng
from repro.core.serialization import (
    SerializationError,
    _is_count,
    pack_blob,
    pack_child,
    unpack_blob,
    unpack_child,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.protocol import RangeQueryEstimator, RangeQueryProtocol


# --------------------------------------------------------------------- #
# accumulator states
# --------------------------------------------------------------------- #
#: Registry mapping ``state_kind`` tags to decoders ``(header, arrays) -> state``.
_STATE_DECODERS: Dict[str, Callable[[dict, Dict[str, np.ndarray]], "AccumulatorState"]] = {}


def register_state_decoder(
    kind: str, decoder: Callable[[dict, Dict[str, np.ndarray]], "AccumulatorState"]
) -> None:
    """Register a decoder for :meth:`AccumulatorState.from_bytes` dispatch."""
    _STATE_DECODERS[str(kind)] = decoder


class AccumulatorState(abc.ABC):
    """Mergeable, serializable sufficient statistics of an aggregation.

    Concrete states guarantee *exact* merge associativity and
    commutativity: merging any sharding of the same report stream in any
    order yields bit-identical statistics, because all internal sums are
    integers (or exact dyadic rationals for the Laplace-based SHE oracle).
    """

    #: Serialization tag; concrete classes override and register a decoder.
    state_kind: ClassVar[str] = "abstract"

    @property
    @abc.abstractmethod
    def n_reports(self) -> int:
        """Number of user reports folded into this state."""

    @abc.abstractmethod
    def merge(self, other: "AccumulatorState") -> "AccumulatorState":
        """Fold ``other`` into this state in place and return ``self``."""

    @abc.abstractmethod
    def to_bytes(self) -> bytes:
        """Serialize this state with :func:`repro.core.serialization.pack_blob`."""

    @staticmethod
    def from_bytes(data: bytes) -> "AccumulatorState":
        """Decode any registered accumulator state from its packed bytes."""
        header, arrays = unpack_blob(data)
        kind = header.get("state_kind")
        decoder = _STATE_DECODERS.get(kind) if isinstance(kind, str) else None
        if decoder is None:
            raise SerializationError(f"unknown accumulator state kind {kind!r}")
        try:
            return decoder(header, arrays)
        except SerializationError:
            raise
        except (KeyError, ValueError, TypeError, IndexError, AttributeError) as exc:
            # A structurally valid blob with an inconsistent header (e.g. a
            # mutated field) must fail as a decode error, not leak the
            # decoder's internal KeyError/ValueError.
            raise SerializationError(
                f"corrupt {kind!r} accumulator state: {exc!r}"
            ) from exc

    def copy(self) -> "AccumulatorState":
        """An independent deep copy (default: serialize and re-load)."""
        return AccumulatorState.from_bytes(self.to_bytes())


#: Protocol-spec keys that only affect estimate assembly (finalize), never
#: the accumulated sufficient statistics.  ``consistency`` is itself a
#: post-processing step (constrained inference at finalize time), and an
#: explicit ``postprocess`` pipeline overrides -- and re-derives -- the
#: ``consistency`` flag, so the two keys form one assembly-time identity.
_ASSEMBLY_ONLY_SPEC_KEYS = ("postprocess", "consistency")


def spec_sans_postprocess(spec: Optional[dict]) -> Optional[dict]:
    """A protocol spec with its assembly-time keys stripped.

    Post-processing runs at assembly time only -- it never touches the
    sufficient statistics -- so reports, accumulator states and store
    segments of specs that differ *only* in ``postprocess`` (and the
    ``consistency`` flag it derives) are exchangeable: they merge, ingest
    and fingerprint alike.  This is how ``engine query --postprocess``
    and the service's ``/query?postprocess=`` re-finalize existing
    statistics under a different pipeline.  Anything but a dict is
    returned unchanged.
    """
    if not isinstance(spec, dict):
        return spec
    return {
        key: value for key, value in spec.items() if key not in _ASSEMBLY_ONLY_SPEC_KEYS
    }


def _comparable_config(config: dict) -> dict:
    """A config dict whose embedded protocol spec is :func:`spec_sans_postprocess`-ed."""
    protocol = config.get("protocol")
    if isinstance(protocol, dict):
        config = {**config, "protocol": spec_sans_postprocess(protocol)}
    return config


class CompositeAccumulator(AccumulatorState):
    """An accumulator made of child accumulators plus a user counter.

    This is the state shape shared by every protocol server: the flat
    protocol has a single child (its oracle accumulator), the hierarchical
    protocol one child per tree level, and HaarHRR one child per detail
    height.  ``config`` carries the owning protocol's spec so that merges
    across incompatible configurations fail loudly and a server can be
    rebuilt from the state alone (see :func:`load_server`).

    ``meta`` is free-form JSON-able annotation that rides along without
    affecting identity: the :mod:`repro.engine` façade stamps each epoch
    shard with its epoch key there.  It is excluded from merge
    compatibility checks, and a state with empty ``meta`` serializes
    byte-for-byte identically to a pre-``meta`` state.
    """

    state_kind = "composite"

    def __init__(
        self,
        label: str,
        config: dict,
        children: List[AccumulatorState],
        n_users: int = 0,
        meta: Optional[dict] = None,
    ) -> None:
        self.label = str(label)
        self.config = dict(config)
        self.children = list(children)
        self.n_users = int(n_users)
        self.meta = dict(meta) if meta else {}

    @property
    def n_reports(self) -> int:
        return self.n_users

    def _check_compatible(self, other: "CompositeAccumulator") -> None:
        if not isinstance(other, CompositeAccumulator):
            raise ProtocolUsageError(
                f"cannot merge {type(other).__name__} into a composite accumulator"
            )
        if self.label != other.label or len(self.children) != len(other.children):
            raise ProtocolUsageError(
                f"cannot merge accumulator {other.label!r} into {self.label!r}"
            )
        if _comparable_config(self.config) != _comparable_config(other.config):
            raise ProtocolUsageError(
                "cannot merge accumulators of differently configured protocols: "
                f"{self.config} != {other.config}"
            )

    def merge(self, other: AccumulatorState) -> "CompositeAccumulator":
        self._check_compatible(other)
        for child, other_child in zip(self.children, other.children):
            child.merge(other_child)
        self.n_users += other.n_users
        return self

    def to_bytes(self) -> bytes:
        arrays = {
            f"child_{index}": pack_child(child.to_bytes())
            for index, child in enumerate(self.children)
        }
        header = {
            "state_kind": self.state_kind,
            "label": self.label,
            "config": self.config,
            "n_users": self.n_users,
            "num_children": len(self.children),
        }
        if self.meta:
            # Written only when present so pre-meta states stay
            # byte-for-byte stable.
            header["meta"] = self.meta
        return pack_blob(header, arrays)

    @classmethod
    def _decode(cls, header: dict, arrays: Dict[str, np.ndarray]) -> "CompositeAccumulator":
        children = [
            AccumulatorState.from_bytes(unpack_child(arrays[f"child_{index}"]))
            for index in range(int(header["num_children"]))
        ]
        return cls(
            label=header["label"],
            config=header["config"],
            children=children,
            n_users=int(header["n_users"]),
            meta=header.get("meta"),
        )


register_state_decoder(CompositeAccumulator.state_kind, CompositeAccumulator._decode)


# --------------------------------------------------------------------- #
# oracle payload (de)serialization
# --------------------------------------------------------------------- #
def _pack_payload(payload: Any, prefix: str) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Describe one oracle report payload as ``(meta, named arrays)``.

    The payload's type picks its kind: HRR and OLH reports by class, and
    a 2-D ``bool`` matrix (what OUE, SUE and THE report) as ``"bits"`` --
    ``np.packbits`` along each row plus the row ``width``, one bit per
    entry on the wire.  Any other ndarray is an ``"array"``.  Imports are
    deferred so that :mod:`repro.core` never depends on
    :mod:`repro.frequency_oracles` at module load time.
    """
    from repro.frequency_oracles.hrr import HadamardReports
    from repro.frequency_oracles.olh import LocalHashReports

    if isinstance(payload, HadamardReports):
        meta = {"payload_kind": "hadamard", "padded_size": int(payload.padded_size)}
        arrays = {
            f"{prefix}.indices": np.asarray(payload.indices),
            f"{prefix}.values": np.asarray(payload.values),
        }
        return meta, arrays
    if isinstance(payload, LocalHashReports):
        meta = {"payload_kind": "localhash", "num_buckets": int(payload.num_buckets)}
        arrays = {
            f"{prefix}.multipliers": np.asarray(payload.multipliers),
            f"{prefix}.offsets": np.asarray(payload.offsets),
            f"{prefix}.buckets": np.asarray(payload.buckets),
        }
        return meta, arrays
    if isinstance(payload, np.ndarray):
        if payload.dtype == np.bool_ and payload.ndim == 2:
            meta = {"payload_kind": "bits", "width": int(payload.shape[1])}
            return meta, {prefix: np.packbits(payload, axis=1)}
        return {"payload_kind": "array"}, {prefix: payload}
    raise SerializationError(
        f"cannot serialize oracle payload of type {type(payload).__name__}"
    )


def _unpack_payload(meta: dict, arrays: Dict[str, np.ndarray], prefix: str) -> Any:
    """Inverse of :func:`_pack_payload`.

    ``"bits"`` is read strictly: ``width`` must be a non-negative integer
    and the block a 2-D ``uint8`` array of exactly ``ceil(width / 8)``
    columns, since ``np.unpackbits`` would silently zero-pad or trim a
    width that disagrees with it.  ``"array"`` payloads (what unary
    reports were before ``"bits"``) still decode unchanged.
    """
    from repro.frequency_oracles.hrr import HadamardReports
    from repro.frequency_oracles.olh import LocalHashReports

    kind = meta.get("payload_kind")
    if kind == "hadamard":
        return HadamardReports(
            indices=arrays[f"{prefix}.indices"],
            values=arrays[f"{prefix}.values"],
            padded_size=int(meta["padded_size"]),
        )
    if kind == "localhash":
        return LocalHashReports(
            multipliers=arrays[f"{prefix}.multipliers"],
            offsets=arrays[f"{prefix}.offsets"],
            buckets=arrays[f"{prefix}.buckets"],
            num_buckets=int(meta["num_buckets"]),
        )
    if kind == "bits":
        width, block = meta.get("width"), arrays[prefix]
        if not _is_count(width):
            raise SerializationError(f"bits width {width!r} is not a non-negative integer")
        columns = -(-width // 8)
        if block.dtype != np.uint8 or block.ndim != 2 or block.shape[1] != columns:
            raise SerializationError(
                f"bits block of width {width} must be uint8 of shape (N, {columns}), "
                f"got {block.dtype} {block.shape}"
            )
        return np.unpackbits(block, axis=1, count=width).view(np.bool_)
    if kind == "array":
        return arrays[prefix]
    raise SerializationError(f"unknown oracle payload kind {kind!r}")


# --------------------------------------------------------------------- #
# reports
# --------------------------------------------------------------------- #
#: Registry mapping ``report_kind`` tags to decoders.
_REPORT_DECODERS: Dict[str, Callable[[dict, Dict[str, np.ndarray]], "Report"]] = {}


def register_report_decoder(
    kind: str, decoder: Callable[[dict, Dict[str, np.ndarray]], "Report"]
) -> None:
    """Register a decoder for :meth:`Report.from_bytes` dispatch."""
    _REPORT_DECODERS[str(kind)] = decoder


class Report(abc.ABC):
    """The privatized payload a batch of clients uploads to a server.

    A report contains only randomized data -- each entry individually
    satisfies epsilon-LDP -- plus the bookkeeping a server needs to fold it
    into its accumulator (how many users it covers and, for level-sampled
    protocols, how many landed on each level).
    """

    #: Serialization tag; concrete classes override and register a decoder.
    kind: ClassVar[str] = "abstract"

    #: Number of users whose randomized values this report carries.
    n_users: int

    @abc.abstractmethod
    def to_bytes(self) -> bytes:
        """Serialize with :func:`repro.core.serialization.pack_blob`."""

    @staticmethod
    def from_bytes(data: bytes) -> "Report":
        """Decode any registered report type from its packed bytes."""
        header, arrays = unpack_blob(data)
        kind = header.get("report_kind")
        decoder = _REPORT_DECODERS.get(kind) if isinstance(kind, str) else None
        if decoder is None:
            # Every decomposition family serializes through the unified
            # LevelReport layout, so reports of families added after this
            # module (new Decomposition subclasses) decode without having
            # to register anything.  The layout is sniffed strictly (a
            # string tag, a dict levels map, a user count) so corrupt or
            # foreign blobs still fail fast here.
            if (
                isinstance(kind, str)
                and kind
                and isinstance(header.get("levels"), dict)
                and "n_users" in header
            ):
                decoder = LevelReport._decode
            else:
                raise SerializationError(f"unknown report kind {kind!r}")
        try:
            return decoder(header, arrays)
        except SerializationError:
            raise
        except (KeyError, ValueError, TypeError, IndexError, AttributeError) as exc:
            # Same contract as AccumulatorState.from_bytes: inconsistent
            # headers surface as decode errors, not internal exceptions.
            raise SerializationError(f"corrupt {kind!r} report: {exc!r}") from exc


class LevelReport(Report):
    """The one report shape shared by every decomposition family.

    ``family`` is the decomposition tag ("flat", "hierarchical", "haar",
    "grid2d"); ``level_payloads`` maps each level key to the oracle payload
    of the users assigned there, and ``level_user_counts`` is the family's
    bookkeeping array (see
    :class:`~repro.core.decomposition.Decomposition.counts_slot`).

    One codec serves all families: ``family`` (not the class-level
    ``kind``) is the wire tag written as ``report_kind``, and the layout
    is ``levels`` metadata plus ``level_<key>`` arrays, one
    :func:`_pack_payload` entry per level (unary levels travel as
    ``"bits"``).  The decoder is registered under every family tag, with
    a fallback for families added later; a header without ``levels`` is
    refused.
    """

    def __init__(
        self,
        family: str,
        level_payloads: Optional[Dict[int, Any]] = None,
        level_user_counts: Optional[np.ndarray] = None,
        n_users: int = 0,
    ) -> None:
        self.family = str(family)
        self.level_payloads: Dict[int, Any] = (
            {} if level_payloads is None else level_payloads
        )
        self.level_user_counts = (
            np.zeros(1, np.int64)
            if level_user_counts is None
            else np.asarray(level_user_counts, dtype=np.int64)
        )
        self.n_users = int(n_users)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LevelReport(family={self.family!r}, "
            f"levels={sorted(self.level_payloads)}, n_users={self.n_users})"
        )

    def to_bytes(self) -> bytes:
        arrays: Dict[str, np.ndarray] = {
            "level_user_counts": np.asarray(self.level_user_counts, dtype=np.int64)
        }
        level_meta: Dict[str, dict] = {}
        for level, payload in sorted(self.level_payloads.items()):
            meta, payload_arrays = _pack_payload(payload, f"level_{level}")
            level_meta[str(level)] = meta
            arrays.update(payload_arrays)
        header = {
            "report_kind": self.family,
            "n_users": int(self.n_users),
            "levels": level_meta,
        }
        return pack_blob(header, arrays)

    @classmethod
    def _decode(cls, header: dict, arrays: Dict[str, np.ndarray]) -> "LevelReport":
        family = header["report_kind"]
        n_users = int(header["n_users"])
        payloads = {
            int(level): _unpack_payload(meta, arrays, f"level_{int(level)}")
            for level, meta in (header["levels"] or {}).items()
        }
        counts = arrays.get("level_user_counts")
        if counts is None:
            counts = np.asarray([n_users], np.int64)
        return cls(family, payloads, counts, n_users)


for _family in ("flat", "hierarchical", "haar", "grid2d"):
    register_report_decoder(_family, LevelReport._decode)


def iter_level_payloads(payloads: Dict[int, Any]):
    """Level/payload pairs in ascending level order.

    Clients build payload dicts level by level, so insertion order is
    almost always already ascending; this reuses the dict's own iteration
    in that case and only falls back to sorting for externally built
    (e.g. deserialized) reports.
    """
    previous: Optional[int] = None
    for level in payloads:
        if previous is not None and level < previous:
            return sorted(payloads.items())
        previous = level
    return payloads.items()


# --------------------------------------------------------------------- #
# client / server roles
# --------------------------------------------------------------------- #
class ProtocolClient(abc.ABC):
    """Stateless user-side encoder of one range-query protocol.

    A client holds only protocol configuration (domain, epsilon, method
    parameters) -- never data -- so a single instance can encode for any
    number of users, and constructing one per device is equally valid.
    """

    def __init__(self, protocol: "RangeQueryProtocol") -> None:
        self._protocol = protocol

    @property
    def protocol(self) -> "RangeQueryProtocol":
        """The protocol configuration this client encodes for."""
        return self._protocol

    @abc.abstractmethod
    def encode_batch(self, items: np.ndarray, rng: RngLike = None) -> Report:
        """Randomize one report per user for a batch of private items.

        Only the returned :class:`Report` may leave the clients; each
        user's entry individually satisfies epsilon-LDP.  An empty batch
        yields an empty report that servers ingest as a no-op.
        """

    def encode(self, item: int, rng: RngLike = None) -> Report:
        """Randomize a single user's item (convenience over a 1-batch)."""
        return self.encode_batch(np.asarray([item]), rng=rng)

    def encode_batches(
        self, items: np.ndarray, batch_size: int, rng: RngLike = None
    ) -> List[Report]:
        """Encode ``items`` as consecutive chunks of ``batch_size`` users.

        The chunking is the transport framing (one :class:`Report` per
        chunk -- what a device fleet uploads and what
        :meth:`ProtocolServer.ingest` consumes); inside each chunk the
        encoding is fully vectorised.  Chunks are encoded sequentially
        against one generator, so the report stream is exactly what the
        equivalent sequence of :meth:`encode_batch` calls would produce
        for the same seed.
        """
        if int(batch_size) < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        batch_size = int(batch_size)
        rng = ensure_rng(rng)
        items = np.asarray(items)
        return [
            self.encode_batch(items[start : start + batch_size], rng=rng)
            for start in range(0, len(items), batch_size)
        ]

    @property
    def kernel_backend(self) -> str:
        """Name of the kernel backend the client's oracles compute with."""
        for oracle in getattr(self, "_oracles", {}).values():
            backend = getattr(oracle, "kernel_backend", None)
            if backend:
                return str(backend)
        return "numpy"


class ProtocolServer(abc.ABC):
    """Incremental, mergeable aggregator of one range-query protocol.

    Servers never see raw items: they fold privatized :class:`Report`
    batches into a compact :class:`AccumulatorState` -- ``O(D)`` integer
    sums independent of the number of users for every oracle except SHE,
    whose exact-summation state grows by ``O(D)`` per ingested *batch*
    (see :class:`~repro.frequency_oracles.base.ExactSumAccumulator`) --
    merge exactly with other shards of the same protocol, and can
    finalize into an estimator at any point; further ``ingest`` /
    ``merge`` calls after a ``finalize`` are allowed.
    """

    def __init__(
        self, protocol: "RangeQueryProtocol", state: Optional[AccumulatorState] = None
    ) -> None:
        self._protocol = protocol
        empty = self._empty_state()
        if state is None:
            state = empty
        else:
            if not isinstance(state, CompositeAccumulator):
                raise ProtocolUsageError(
                    f"expected a CompositeAccumulator state, got {type(state).__name__}"
                )
            empty._check_compatible(state)
        self._state = state

    @property
    def protocol(self) -> "RangeQueryProtocol":
        """The protocol configuration this server aggregates for."""
        return self._protocol

    @property
    def state(self) -> CompositeAccumulator:
        """The live accumulator state (shared, not a copy)."""
        return self._state

    @property
    def n_reports(self) -> int:
        """Total number of user reports ingested or merged so far."""
        return self._state.n_reports

    @property
    def kernel_backend(self) -> str:
        """Name of the kernel backend the server's oracles compute with.

        Purely an execution property -- it is never part of the protocol
        spec or the accumulator state, so shards running different
        backends merge freely.
        """
        for oracle in getattr(self, "_oracles", {}).values():
            backend = getattr(oracle, "kernel_backend", None)
            if backend:
                return str(backend)
        return "numpy"

    @abc.abstractmethod
    def _empty_state(self) -> CompositeAccumulator:
        """A fresh zero-report accumulator for this protocol configuration."""

    @abc.abstractmethod
    def _check_report(self, report: Report) -> None:
        """Raise :class:`ProtocolUsageError` unless ``report`` fits this server."""

    @abc.abstractmethod
    def _ingest_one(self, report: Report) -> None:
        """Fold a single report batch, already checked, into the state."""

    def ingest(self, reports: Union[Report, Iterable[Report]]) -> "ProtocolServer":
        """Fold one report or an iterable of reports into the accumulator.

        Every report is checked before any is folded in, so a batch that
        does not fit this server (another family, an unknown level, a
        payload its level's oracle cannot take) raises
        :class:`ProtocolUsageError` and leaves the state untouched.
        """
        # Fast path: a single report skips the iteration machinery -- this
        # is the per-report hot path of streaming ingestion.
        if isinstance(reports, Report):
            self._check_report(reports)
            self._ingest_one(reports)
            return self
        reports = list(reports)
        for report in reports:
            if not isinstance(report, Report):
                raise ProtocolUsageError(
                    f"ingest expects Report instances, got {type(report).__name__}"
                )
            self._check_report(report)
        for report in reports:
            self._ingest_one(report)
        return self

    def merge(
        self, other: Union["ProtocolServer", AccumulatorState]
    ) -> "ProtocolServer":
        """Fold another shard's accumulated state into this server.

        ``other`` may be a server of the same protocol configuration or a
        bare :class:`AccumulatorState`.  Merging is exact: any merge order
        over any sharding reproduces single-server ingestion bit-for-bit.
        """
        state = other.state if isinstance(other, ProtocolServer) else other
        self._state.merge(state)
        return self

    @abc.abstractmethod
    def finalize(self) -> "RangeQueryEstimator":
        """Build the estimator for everything aggregated so far."""

    def to_bytes(self) -> bytes:
        """Serialize the accumulator state (protocol spec included)."""
        return self._state.to_bytes()

    def snapshot(self) -> CompositeAccumulator:
        """An independent deep copy of the current accumulator state.

        The snapshot is fully decoupled from the live server: further
        ``ingest`` / ``merge`` calls do not touch it, so it can serve as a
        durable checkpoint or as the base of a lazily merged window (see
        :mod:`repro.engine`).
        """
        return self._state.copy()

    def restore(
        self, state: Union[AccumulatorState, bytes, bytearray, memoryview]
    ) -> "ProtocolServer":
        """Replace the live state with a snapshot of the same configuration.

        ``state`` is a :class:`CompositeAccumulator` (e.g. from
        :meth:`snapshot`) or its packed bytes.  The state is adopted as-is
        (not copied); it must belong to an identically configured protocol.
        """
        if isinstance(state, (bytes, bytearray, memoryview)):
            state = AccumulatorState.from_bytes(bytes(state))
        if not isinstance(state, CompositeAccumulator):
            raise ProtocolUsageError(
                f"expected a CompositeAccumulator state, got {type(state).__name__}"
            )
        self._empty_state()._check_compatible(state)
        self._state = state
        return self

    def _require_reports(self) -> None:
        if self._state.n_reports <= 0:
            raise ProtocolUsageError("cannot finalize a server with zero reports")


# --------------------------------------------------------------------- #
# the generic decomposition engine
# --------------------------------------------------------------------- #
class DecompositionClient(ProtocolClient):
    """The one user-side encoder shared by every decomposition family.

    Driven entirely by the protocol's
    :class:`~repro.core.decomposition.Decomposition`: it validates the
    batch, samples a level per user (or replicates users across all
    levels), maps each level's items to coefficients, privatizes them
    through the per-level oracles and packs everything into a
    :class:`LevelReport`.  Flat, hierarchical, Haar and grid clients are
    thin instantiations of this class.
    """

    def __init__(self, protocol) -> None:
        super().__init__(protocol)
        self._decomposition = protocol.decomposition()
        self._oracles = {
            level: self._decomposition.make_level_oracle(level)
            for level in self._decomposition.levels
        }

    @property
    def decomposition(self):
        """The :class:`~repro.core.decomposition.Decomposition` in use."""
        return self._decomposition

    def encode_batch(self, items: np.ndarray, rng: RngLike = None) -> LevelReport:
        decomposition = self._decomposition
        rng = ensure_rng(rng)
        items = decomposition.validate_items(np.asarray(items))
        n_users = len(items)
        level_user_counts = np.zeros(decomposition.counts_size, dtype=np.int64)
        decomposition.record_total(level_user_counts, n_users)
        payloads: Dict[int, Any] = {}
        if n_users == 0:
            return LevelReport(decomposition.label, payloads, level_user_counts, 0)
        assignments = decomposition.assign_levels(items, rng)
        if assignments is None:
            for level in decomposition.levels:
                level_user_counts[decomposition.counts_slot(level)] = n_users
                payloads[level] = decomposition.encode_level(
                    items, level, self._oracles[level], rng
                )
            return LevelReport(decomposition.label, payloads, level_user_counts, n_users)
        # Single-pass level split: one stable argsort groups the users of
        # every level instead of one O(N) boolean mask per level.  Stable
        # ordering preserves each level's original user order, so the
        # grouped items -- and therefore every downstream rng draw -- are
        # bit-identical to the per-level masking this replaces.
        order = np.argsort(assignments, kind="stable")
        sorted_assignments = assignments[order]
        sorted_items = items[order]
        for level in decomposition.levels:
            start = np.searchsorted(sorted_assignments, level, side="left")
            stop = np.searchsorted(sorted_assignments, level, side="right")
            count = int(stop - start)
            level_user_counts[decomposition.counts_slot(level)] = count
            if count == 0:
                continue
            payloads[level] = decomposition.encode_level(
                sorted_items[start:stop], level, self._oracles[level], rng
            )
        return LevelReport(decomposition.label, payloads, level_user_counts, n_users)


class DecompositionServer(ProtocolServer):
    """The one aggregator shared by every decomposition family.

    Holds a :class:`CompositeAccumulator` with one child oracle accumulator
    per decomposition level; ``ingest`` folds each report's per-level
    payloads into the matching children, and ``finalize`` hands the
    per-level debiased estimates to the decomposition's assembly (which
    applies any consistency hook).  Merging and serialization are entirely
    inherited -- a new protocol family gets sharded aggregation and the CLI
    ``encode``/``aggregate``/``merge`` workflow for free.
    """

    def __init__(self, protocol, state: Optional[AccumulatorState] = None) -> None:
        self._decomposition = protocol.decomposition()
        self._oracles = {
            level: self._decomposition.make_level_oracle(level)
            for level in self._decomposition.levels
        }
        self._child_index = {
            level: index for index, level in enumerate(self._decomposition.levels)
        }
        super().__init__(protocol, state)

    @property
    def decomposition(self):
        """The :class:`~repro.core.decomposition.Decomposition` in use."""
        return self._decomposition

    def _empty_state(self) -> CompositeAccumulator:
        decomposition = self._decomposition
        return CompositeAccumulator(
            decomposition.label,
            {"protocol": self._protocol.spec()},
            [self._oracles[level].make_accumulator() for level in decomposition.levels],
        )

    def _check_report(self, report: Report) -> None:
        decomposition = self._decomposition
        if (
            not isinstance(report, LevelReport)
            or report.family != decomposition.label
        ):
            raise ProtocolUsageError(
                f"{decomposition.label} server cannot ingest a "
                f"{getattr(report, 'family', type(report).__name__)} report"
            )
        if report.n_users <= 0:
            return
        n_counts = len(report.level_user_counts)
        for level, payload in report.level_payloads.items():
            if level not in self._child_index:
                raise ProtocolUsageError(
                    f"report contains unknown level {level!r} for a "
                    f"{decomposition.label} decomposition"
                )
            slot = decomposition.counts_slot(level)
            if slot >= n_counts:
                raise ProtocolUsageError(
                    f"report has {n_counts} level user counts, too few for "
                    f"level {level!r} of a {decomposition.label} decomposition"
                )
            try:
                self._oracles[level].check_payload(
                    payload, int(report.level_user_counts[slot])
                )
            except ValueError as exc:
                raise ProtocolUsageError(
                    f"level {level!r} payload does not fit the "
                    f"{decomposition.label} server: {exc}"
                ) from exc

    def _ingest_one(self, report: Report) -> None:
        if report.n_users <= 0:
            return
        decomposition = self._decomposition
        oracles = self._oracles
        children = self._state.children
        child_index = self._child_index
        level_user_counts = report.level_user_counts
        for level, payload in iter_level_payloads(report.level_payloads):
            oracles[level].accumulate(
                children[child_index[level]],
                payload,
                n_users=int(level_user_counts[decomposition.counts_slot(level)]),
            )
        self._state.n_users += report.n_users

    def finalize(self):
        self._require_reports()
        decomposition = self._decomposition
        level_user_counts = np.zeros(decomposition.counts_size, dtype=np.int64)
        decomposition.record_total(level_user_counts, self._state.n_users)
        level_estimates: Dict[int, np.ndarray] = {}
        for level in decomposition.levels:
            accumulator = self._state.children[self._child_index[level]]
            level_user_counts[decomposition.counts_slot(level)] = accumulator.n_reports
            if accumulator.n_reports > 0:
                level_estimates[level] = self._oracles[level].finalize(accumulator)
        return decomposition.assemble(
            level_estimates, level_user_counts, self._state.n_users
        )


# --------------------------------------------------------------------- #
# rebuilding protocols and servers from serialized state
# --------------------------------------------------------------------- #
def protocol_from_spec(spec: dict):
    """Reconstruct a protocol from the dict produced by ``protocol.spec()``.

    Returns whatever class the registry maps the spec's ``name`` to -- a
    :class:`~repro.core.protocol.RangeQueryProtocol` for the 1-D families,
    a bare :class:`~repro.core.decomposition.DecompositionRoles` protocol
    (e.g. the 2-D grid) otherwise.
    """
    from repro import make_protocol  # deferred: repro imports this module

    spec = dict(spec)
    try:
        name = spec.pop("name")
        domain_size = spec.pop("domain_size")
        epsilon = spec.pop("epsilon")
    except KeyError as exc:
        raise SerializationError(f"protocol spec is missing {exc}") from exc
    kwargs = {key: value for key, value in spec.items() if value is not None}
    return make_protocol(name, domain_size, epsilon, **kwargs)


def load_server(data: bytes) -> ProtocolServer:
    """Rebuild a server (protocol included) from ``server.to_bytes()`` output."""
    state = AccumulatorState.from_bytes(data)
    if not isinstance(state, CompositeAccumulator):
        raise SerializationError(
            f"expected a protocol server state, got {type(state).__name__}"
        )
    spec = state.config.get("protocol")
    if not isinstance(spec, dict):
        raise SerializationError("server state does not embed a protocol spec")
    protocol = protocol_from_spec(spec)
    return protocol.server(state=state)


# --------------------------------------------------------------------- #
# file helpers used by the CLI and the sharded-aggregation example
# --------------------------------------------------------------------- #
def save_report_file(path: str, protocol: "RangeQueryProtocol", report: Report) -> None:
    """Write one encoded report batch plus its protocol spec to ``path``."""
    blob = pack_blob(
        {"file_kind": "report", "protocol": protocol.spec()},
        {"report": pack_child(report.to_bytes())},
    )
    with open(path, "wb") as handle:
        handle.write(blob)


def load_report_bytes(
    data: bytes, source: str = "<bytes>"
) -> Tuple["RangeQueryProtocol", Report]:
    """Decode a report blob as written by :func:`save_report_file`.

    ``source`` labels error messages (a path, ``"<stdin>"``, ...); the
    pipe-friendly twin of :func:`load_report_file`.
    """
    header, arrays = unpack_blob(data)
    if header.get("file_kind") != "report":
        raise SerializationError(f"{source} is not an encoded report file")
    protocol = protocol_from_spec(header["protocol"])
    report = Report.from_bytes(unpack_child(arrays["report"]))
    return protocol, report


def load_report_file(path: str) -> Tuple["RangeQueryProtocol", Report]:
    """Read a file written by :func:`save_report_file`."""
    with open(path, "rb") as handle:
        return load_report_bytes(handle.read(), source=path)


def save_server_file(path: str, server: ProtocolServer) -> None:
    """Write a server's accumulator state to ``path``."""
    with open(path, "wb") as handle:
        handle.write(server.to_bytes())


def load_server_file(path: str) -> ProtocolServer:
    """Rebuild a server from a file written by :func:`save_server_file`."""
    with open(path, "rb") as handle:
        return load_server(handle.read())
