"""Abstract interfaces for LDP range-query protocols.

Every method the paper studies (flat, hierarchical histograms, HaarHRR) is a
*protocol*: a recipe for what each user sends under epsilon-LDP and how the
untrusted aggregator turns the collected reports into an *estimator* that can
answer arbitrary range queries.  The execution model mirrors the real
deployment topology -- many clients, a fleet of aggregation servers:

* :class:`RangeQueryProtocol` is the pure configuration object (domain
  size, privacy budget, method parameters).  It is a factory for the two
  runtime roles: :meth:`RangeQueryProtocol.client` builds the stateless
  user-side encoder (:class:`~repro.core.session.ProtocolClient`, whose
  ``encode`` / ``encode_batch`` emit privatized
  :class:`~repro.core.session.Report` payloads) and
  :meth:`RangeQueryProtocol.server` builds the incremental aggregator
  (:class:`~repro.core.session.ProtocolServer`, whose ``ingest`` folds
  reports into a mergeable, serializable accumulator and whose
  ``finalize`` produces the estimator).  Server shards ``merge`` exactly:
  any sharding of a report stream, combined in any order, finalizes to the
  same estimator as single-server ingestion.
* :meth:`RangeQueryProtocol.run` is a convenience wrapper -- one client,
  one server, one batch -- so scripts and experiments can stay one-liners.
  :meth:`RangeQueryProtocol.simulate_aggregate` produces a statistically
  equivalent estimator directly from the true histogram, the same
  simulation device the paper uses to scale its OUE experiments.
* :class:`RangeQueryEstimator` answers point, range, prefix and quantile
  queries from the aggregated noisy view.

Concrete implementations live in :mod:`repro.flat`, :mod:`repro.hierarchy`
and :mod:`repro.wavelet`; the role interfaces live in
:mod:`repro.core.session`.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.exceptions import InvalidRangeError, ProtocolUsageError
from repro.core.rng import RngLike, ensure_rng
from repro.core.types import Domain, PrivacyParams, RangeSpec

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.session import AccumulatorState, ProtocolClient, ProtocolServer
    from repro.queries.workload import RangeWorkload

RangeLike = Union[RangeSpec, Tuple[int, int]]

#: Workload forms accepted by the batch query methods: an array-native
#: workload object (anything exposing ``lefts``/``rights`` arrays, e.g.
#: :class:`repro.queries.workload.RangeWorkload`), an ``(N, 2)`` integer
#: array, a ``(lefts, rights)`` pair of arrays, or an iterable of
#: :class:`RangeSpec` / ``(left, right)`` tuples.
WorkloadLike = Union["RangeWorkload", np.ndarray, Tuple, Iterable[RangeLike]]


def _as_range(query: RangeLike) -> RangeSpec:
    if isinstance(query, RangeSpec):
        return query
    left, right = query
    return RangeSpec(int(left), int(right))


def as_query_arrays(queries: WorkloadLike) -> Tuple[np.ndarray, np.ndarray]:
    """Coerce any accepted workload form into ``(lefts, rights)`` arrays.

    Duck-types on ``lefts``/``rights`` attributes so :mod:`repro.core`
    never imports :mod:`repro.queries` (which imports this module).  The
    returned arrays are *not* validated here; batch kernels validate the
    whole workload in one vectorised pass.
    """
    if hasattr(queries, "lefts") and hasattr(queries, "rights"):
        return (
            np.asarray(queries.lefts, dtype=np.int64),
            np.asarray(queries.rights, dtype=np.int64),
        )
    if isinstance(queries, np.ndarray):
        if queries.ndim != 2 or queries.shape[1] != 2:
            raise InvalidRangeError(
                f"a workload array must have shape (N, 2), got {queries.shape}"
            )
        arr = queries.astype(np.int64, copy=False)
        return arr[:, 0], arr[:, 1]
    if (
        isinstance(queries, tuple)
        and len(queries) == 2
        and isinstance(queries[0], np.ndarray)
        and isinstance(queries[1], np.ndarray)
    ):
        return (
            np.asarray(queries[0], dtype=np.int64),
            np.asarray(queries[1], dtype=np.int64),
        )
    pairs = []
    for query in queries:
        if isinstance(query, RangeSpec):
            pairs.append(query.as_tuple())
        else:
            # Strict two-element unpacking: a malformed query (e.g. an
            # endpoint array that should have been half of a
            # (lefts, rights) tuple) fails loudly instead of being
            # silently truncated to its first two values.
            left, right = query
            pairs.append((left, right))
    if not pairs:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    arr = np.asarray(pairs, dtype=np.int64)
    return arr[:, 0], arr[:, 1]


def validate_query_arrays(
    lefts: np.ndarray, rights: np.ndarray, domain_size: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """One-shot vectorised validation of a workload of closed ranges.

    Checks ``0 <= left <= right`` element-wise (and ``right <
    domain_size`` when a domain bound is given) and returns the endpoints
    as flat ``int64`` arrays.  Shared by the estimator batch kernels and
    :class:`repro.queries.workload.RangeWorkload` so the rules cannot
    diverge.
    """
    lefts = np.asarray(lefts, dtype=np.int64).reshape(-1)
    rights = np.asarray(rights, dtype=np.int64).reshape(-1)
    if lefts.shape != rights.shape:
        raise InvalidRangeError(
            f"lefts and rights must have equal length, got {len(lefts)} vs {len(rights)}"
        )
    if lefts.size:
        if int(lefts.min()) < 0:
            raise InvalidRangeError("range left endpoints must be >= 0")
        if np.any(lefts > rights):
            index = int(np.argmax(lefts > rights))
            raise InvalidRangeError(
                f"range left endpoint {int(lefts[index])} exceeds right "
                f"endpoint {int(rights[index])}"
            )
        if domain_size is not None and int(rights.max()) >= domain_size:
            index = int(np.argmax(rights >= domain_size))
            raise InvalidRangeError(
                f"range [{int(lefts[index])}, {int(rights[index])}] exceeds "
                f"domain of size {domain_size}"
            )
    return lefts, rights


class RangeQueryEstimator(abc.ABC):
    """Aggregated, bias-corrected view of the population held by the server.

    Subclasses must implement :meth:`estimated_frequencies`, returning the
    estimated fractional frequency of every item in the domain.  The default
    implementations of range / prefix / CDF / quantile queries are expressed
    in terms of prefix sums of those frequencies, which is exact for any
    *consistent* estimator (flat, post-processed hierarchical, Haar).
    Subclasses that hold richer structure (e.g. an inconsistent hierarchical
    tree) override :meth:`range_query` to use their native decomposition.
    """

    def __init__(self, domain: Domain) -> None:
        self._domain = domain
        self._prefix_cache: Optional[np.ndarray] = None
        self._monotone_cdf_cache: Optional[np.ndarray] = None

    @property
    def domain(self) -> Domain:
        """The discrete domain the estimator answers queries over."""
        return self._domain

    @property
    def domain_size(self) -> int:
        """Number of items ``D`` in the domain."""
        return self._domain.size

    @abc.abstractmethod
    def estimated_frequencies(self) -> np.ndarray:
        """Estimated fractional frequency of every item (length ``D``)."""

    def _prefix_sums(self) -> np.ndarray:
        """Cached cumulative sums of the estimated frequencies."""
        if self._prefix_cache is None:
            freqs = np.asarray(self.estimated_frequencies(), dtype=np.float64)
            self._prefix_cache = np.concatenate(([0.0], np.cumsum(freqs)))
        return self._prefix_cache

    def _monotone_cdf(self) -> np.ndarray:
        """Cached monotonized CDF used by quantile queries.

        Monotonizing the (possibly noisy, non-monotone) CDF is a valid LDP
        post-processing step; caching it makes repeated quantile queries
        O(log D) instead of O(D) each.
        """
        if self._monotone_cdf_cache is None:
            self._monotone_cdf_cache = np.maximum.accumulate(self.cdf())
        return self._monotone_cdf_cache

    def invalidate_cache(self) -> None:
        """Drop cached prefix sums (call after mutating internal state)."""
        self._prefix_cache = None
        self._monotone_cdf_cache = None

    def point_query(self, item: int) -> float:
        """Estimated frequency of a single item."""
        if item < 0 or item >= self.domain_size:
            raise InvalidRangeError(
                f"item {item} outside domain of size {self.domain_size}"
            )
        return float(self.estimated_frequencies()[item])

    def _validate_query_arrays(
        self, lefts: np.ndarray, rights: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One-shot vectorised validation of a workload against the domain."""
        return validate_query_arrays(lefts, rights, self.domain_size)

    def range_query(self, query: RangeLike) -> float:
        """Estimated fraction of users whose item lies in ``[a, b]``."""
        spec = _as_range(query).validate_for_domain(self.domain_size)
        prefix = self._prefix_sums()
        return float(prefix[spec.right + 1] - prefix[spec.left])

    def range_queries_batch(self, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
        """Answer a whole workload of ranges with one prefix-sum gather.

        This is the batch kernel every estimator exposes: ``lefts`` and
        ``rights`` are equal-length integer arrays of inclusive endpoints,
        validated in one vectorised pass, and the answers come back as one
        float array with zero per-query Python work.  Subclasses holding
        richer structure (e.g. an inconsistent hierarchical tree) override
        this with their native vectorised decomposition.
        """
        lefts, rights = self._validate_query_arrays(lefts, rights)
        if not lefts.size:
            return np.zeros(0)
        prefix = self._prefix_sums()
        return prefix[rights + 1] - prefix[lefts]

    def range_queries(self, queries: WorkloadLike) -> np.ndarray:
        """Vectorised evaluation of many range queries.

        Accepts an array-native workload (``RangeWorkload``, an ``(N, 2)``
        array, or a ``(lefts, rights)`` array pair) as well as any iterable
        of :class:`RangeSpec` / ``(left, right)`` tuples; all forms are
        answered by :meth:`range_queries_batch`.
        """
        return self.range_queries_batch(*as_query_arrays(queries))

    def prefix_query(self, item: int) -> float:
        """Estimated fraction of users with item ``<= item``."""
        return self.range_query((0, item))

    def prefix_queries(self, endpoints: Sequence[int]) -> np.ndarray:
        """Vectorised prefix masses ``P[z <= b]`` for an array of endpoints."""
        rights = np.asarray(endpoints, dtype=np.int64).reshape(-1)
        return self.range_queries_batch(np.zeros(rights.size, np.int64), rights)

    def cdf(self) -> np.ndarray:
        """Estimated cumulative distribution function over the whole domain."""
        return self._prefix_sums()[1:].copy()

    def quantile_query(self, phi: float) -> int:
        """Smallest item ``j`` whose estimated prefix mass reaches ``phi``.

        Implements the binary search over prefix queries described in
        Section 4.7 of the paper.  ``phi`` must lie in ``[0, 1]``.  Thin
        wrapper over :meth:`quantile_queries_batch`.
        """
        return int(self.quantile_queries_batch([phi])[0])

    def quantile_queries_batch(self, phis: Sequence[float]) -> np.ndarray:
        """Evaluate an array of quantile queries with one ``searchsorted``.

        ``np.searchsorted`` over the noisy cdf is not safe without
        enforcing monotonicity first; the monotone cdf is cached across
        calls, so a workload of ``Q`` quantiles costs ``O(Q log D)`` total
        with no per-phi Python work.  Returns an ``int64`` array.
        """
        phis = np.asarray(phis, dtype=np.float64).reshape(-1)
        # The negated comparison also catches NaN (for which both `< 0`
        # and `> 1` are False), matching the seed's per-phi check.
        invalid = ~((phis >= 0.0) & (phis <= 1.0))
        if np.any(invalid):
            raise ValueError(f"phi must be in [0, 1], got {phis[invalid][0]}")
        monotone = self._monotone_cdf()
        indices = np.searchsorted(monotone, phis, side="left")
        return np.minimum(indices, self.domain_size - 1).astype(np.int64)

    def quantile_queries(self, phis: Sequence[float]) -> List[int]:
        """Evaluate several quantile queries (list form of the batch kernel)."""
        return self.quantile_queries_batch(phis).tolist()


class RangeQueryProtocol(abc.ABC):
    """Configuration of an LDP range-query mechanism.

    Parameters
    ----------
    domain_size:
        Size ``D`` of the discrete input domain.
    epsilon:
        The local differential privacy budget.
    """

    #: Human-readable name used by the experiment harness ("TreeOUECI", ...).
    name: str = "abstract"

    def __init__(self, domain_size: int, epsilon: float) -> None:
        self._domain = Domain(int(domain_size))
        self._privacy = PrivacyParams(float(epsilon))

    @property
    def domain(self) -> Domain:
        """The discrete input domain."""
        return self._domain

    @property
    def domain_size(self) -> int:
        """Size ``D`` of the input domain."""
        return self._domain.size

    @property
    def privacy(self) -> PrivacyParams:
        """The privacy budget wrapper."""
        return self._privacy

    @property
    def epsilon(self) -> float:
        """The epsilon privacy budget."""
        return self._privacy.epsilon

    # ------------------------------------------------------------------ #
    # client / server factories
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def client(self) -> "ProtocolClient":
        """The stateless user-side encoder for this configuration."""

    @abc.abstractmethod
    def server(self, state: Optional["AccumulatorState"] = None) -> "ProtocolServer":
        """An incremental aggregator, optionally resumed from ``state``.

        ``state`` is an accumulator previously obtained from another
        server's ``state`` property or deserialized with
        :meth:`~repro.core.session.AccumulatorState.from_bytes`; it must
        belong to an identically configured protocol.
        """

    @abc.abstractmethod
    def spec(self) -> dict:
        """JSON-able description sufficient to rebuild this protocol.

        The returned dict always contains ``name`` (the
        ``PROTOCOL_REGISTRY`` handle), ``domain_size`` and ``epsilon``;
        remaining keys are constructor keyword arguments.  Serialized
        reports and accumulator states embed this spec so servers can be
        reconstructed from bytes alone (see
        :func:`repro.core.session.load_server`).
        """

    def run(self, items: np.ndarray, rng: RngLike = None) -> RangeQueryEstimator:
        """Execute the protocol end-to-end on raw private items.

        Each entry of ``items`` is one user's private value.  This is a
        thin wrapper over the streaming roles -- one client encodes the
        whole population, one server ingests the single report batch and
        finalizes -- kept for scripts and experiments that do not need
        sharded or incremental aggregation.
        """
        rng = ensure_rng(rng)
        items = np.asarray(items)
        # encode_batch performs the full domain validation; only the
        # zero-user check lives here so the error matches run()'s contract.
        if items.ndim == 1 and len(items) == 0:
            raise ProtocolUsageError("cannot run the protocol with zero users")
        server = self.server()
        server.ingest(self.client().encode_batch(items, rng=rng))
        return server.finalize()

    def simulate_aggregate(
        self, true_counts: np.ndarray, rng: RngLike = None
    ) -> RangeQueryEstimator:
        """Execute a statistically equivalent simulation of the protocol.

        ``true_counts`` is the exact histogram of the population.  The
        default implementation materialises the items and calls :meth:`run`;
        subclasses override it with the faster aggregate-level simulations
        described in Section 5 of the paper (e.g. Binomial sampling of the
        aggregator's noisy counts for OUE).  This is the internal driver
        behind :meth:`repro.engine.Engine.simulate`.
        """
        counts = np.asarray(true_counts, dtype=np.int64)
        items = np.repeat(np.arange(len(counts)), counts)
        return self.run(items, rng=ensure_rng(rng))

    @abc.abstractmethod
    def theoretical_range_variance(self, range_length: int, n_users: int) -> float:
        """Upper bound on the variance of a worst-case query of this length.

        Mirrors the paper's Fact 1 (flat), Theorem 4.3 / Eq. (1)-(2)
        (hierarchical) and Eq. (3) (Haar).
        """

    def describe(self) -> str:
        """Single-line description used in experiment reports."""
        return f"{self.name}(D={self.domain_size}, eps={self.epsilon:g})"
