"""Abstract frequency-oracle interface (Section 3.2 of the paper).

A *frequency oracle* is the building block every range-query method rests
on: an epsilon-LDP protocol through which each user reports a randomized
view of a one-hot (or signed one-hot) vector, and from which the aggregator
can recover an unbiased estimate of the population's item frequencies.

All oracles in this package share:

* ``privatize(items, rng)``            -- user-side randomization, vectorised
  over users; returns oracle-specific report arrays.
* ``aggregate(reports, n_users)``      -- server-side aggregation and bias
  correction; returns estimated fractional frequencies of length ``D``.
* ``estimate(items, rng)``             -- convenience: privatize then
  aggregate.
* ``estimate_from_counts(counts, rng)``-- a statistically equivalent
  *aggregate simulation* that samples the aggregator's view directly from
  the true histogram.  This is the device the paper itself uses for OUE at
  population sizes of 2^26 and we provide it for every oracle.
* ``variance_per_user()`` / ``variance(n)`` -- the theoretical estimator
  variance ``psi_F(eps)`` and ``V_F = psi_F(eps) / N``.
"""

from __future__ import annotations

import abc
import math
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.core.rng import RngLike, ensure_rng
from repro.core.serialization import pack_blob
from repro.core.session import AccumulatorState, register_state_decoder
from repro.core.types import Domain, PrivacyParams


class OracleAccumulator(AccumulatorState):
    """Mergeable sufficient statistics of one frequency oracle.

    Every oracle reduces its reports to a handful of named *integer* sum
    vectors (report counts, bit sums, support counts, signed Hadamard
    sums) plus the number of contributing users.  Integer sums make
    ``merge`` exactly associative and commutative: aggregating a report
    stream in shards and merging in any order is bit-for-bit identical to
    a single-pass aggregation.  ``config`` pins the oracle parameters so
    that accumulators of differently configured oracles refuse to merge.
    """

    state_kind = "oracle"

    def __init__(
        self,
        oracle_kind: str,
        config: Mapping[str, Any],
        vectors: Mapping[str, np.ndarray],
        n_reports: int = 0,
    ) -> None:
        self.oracle_kind = str(oracle_kind)
        self.config = dict(config)
        self.vectors: Dict[str, np.ndarray] = {
            name: np.asarray(vector, dtype=np.int64) for name, vector in vectors.items()
        }
        self._n_reports = int(n_reports)

    @property
    def n_reports(self) -> int:
        return self._n_reports

    def add_reports(self, count: int) -> None:
        """Record ``count`` additional contributing users."""
        self._n_reports += int(count)

    def _check_compatible(self, other: "OracleAccumulator") -> None:
        if type(other) is not type(self):
            raise ValueError(
                f"cannot merge {type(other).__name__} into {type(self).__name__}"
            )
        if self.oracle_kind != other.oracle_kind or self.config != other.config:
            raise ValueError(
                "cannot merge accumulators of differently configured oracles: "
                f"{self.oracle_kind}/{self.config} != {other.oracle_kind}/{other.config}"
            )

    def merge(self, other: AccumulatorState) -> "OracleAccumulator":
        self._check_compatible(other)
        for name, vector in self.vectors.items():
            vector += other.vectors[name]
        self._n_reports += other._n_reports
        return self

    def to_bytes(self) -> bytes:
        header = {
            "state_kind": self.state_kind,
            "oracle_kind": self.oracle_kind,
            "config": self.config,
            "n_reports": self._n_reports,
        }
        return pack_blob(header, self.vectors)

    @classmethod
    def _decode(cls, header: dict, arrays: Dict[str, np.ndarray]) -> "OracleAccumulator":
        # Decoded arrays are read-only views of the blob; merge adds in place.
        return cls(
            oracle_kind=header["oracle_kind"],
            config=header["config"],
            vectors={name: np.array(vector, dtype=np.int64) for name, vector in arrays.items()},
            n_reports=int(header["n_reports"]),
        )


class ExactSumAccumulator(OracleAccumulator):
    """Order-independent sums of real-valued report batches (used by SHE).

    Floating-point addition is not associative, so a single running float
    sum would break the "sharding never changes the result" guarantee.
    This accumulator instead keeps the (vectorized) per-item column sum of
    every ingested batch and finalizes with :func:`math.fsum`, which
    returns the correctly rounded value of the *exact* sum of its inputs
    regardless of their order.  Report batches are the atomic unit of
    sharding, so any assignment of batches to servers, merged in any
    order, finalizes bit-identically -- and a single-batch aggregation
    reproduces the plain ``aggregate`` path exactly.  State grows by
    ``O(D)`` per ingested *batch* (not per user), so clients should
    upload batched rather than per-user reports when using SHE.
    """

    state_kind = "oracle-exact"

    def __init__(
        self,
        oracle_kind: str,
        config: Mapping[str, Any],
        size: int,
        partials: Optional[List[np.ndarray]] = None,
        n_reports: int = 0,
    ) -> None:
        super().__init__(oracle_kind, config, {}, n_reports=n_reports)
        self.size = int(size)
        self.partials: List[np.ndarray] = [
            np.asarray(partial, dtype=np.float64) for partial in (partials or [])
        ]

    def add_batch_sums(self, batch_sums: np.ndarray) -> None:
        """Record one batch's per-item column sums."""
        batch_sums = np.asarray(batch_sums, dtype=np.float64)
        if batch_sums.shape != (self.size,):
            raise ValueError(
                f"batch sums must have shape ({self.size},), got {batch_sums.shape}"
            )
        self.partials.append(batch_sums)

    def exact_means(self, n: int) -> np.ndarray:
        """Correctly rounded per-item total over all batches, divided by ``n``."""
        if not self.partials:
            return np.zeros(self.size)
        stacked = np.stack(self.partials)
        totals = np.array(
            [math.fsum(stacked[:, item].tolist()) for item in range(self.size)]
        )
        return totals / n

    def merge(self, other: AccumulatorState) -> "ExactSumAccumulator":
        self._check_compatible(other)
        if self.size != other.size:
            raise ValueError("cannot merge exact accumulators of different sizes")
        self.partials.extend(other.partials)
        self._n_reports += other._n_reports
        return self

    def to_bytes(self) -> bytes:
        header = {
            "state_kind": self.state_kind,
            "oracle_kind": self.oracle_kind,
            "config": self.config,
            "n_reports": self._n_reports,
            "size": self.size,
        }
        stacked = (
            np.stack(self.partials) if self.partials else np.zeros((0, self.size))
        )
        return pack_blob(header, {"partials": stacked})

    @classmethod
    def _decode(cls, header: dict, arrays: Dict[str, np.ndarray]) -> "ExactSumAccumulator":
        return cls(
            oracle_kind=header["oracle_kind"],
            config=header["config"],
            size=int(header["size"]),
            partials=list(arrays["partials"]),
            n_reports=int(header["n_reports"]),
        )


register_state_decoder(OracleAccumulator.state_kind, OracleAccumulator._decode)
register_state_decoder(ExactSumAccumulator.state_kind, ExactSumAccumulator._decode)


class FrequencyOracle(abc.ABC):
    """Base class for epsilon-LDP frequency oracles over a domain of size ``D``."""

    #: Registry/handle name, e.g. ``"oue"``; set by subclasses.
    name: str = "abstract"

    def __init__(self, domain_size: int, epsilon: float) -> None:
        self._domain = Domain(int(domain_size))
        self._privacy = PrivacyParams(float(epsilon))

    # ------------------------------------------------------------------ #
    # configuration accessors
    # ------------------------------------------------------------------ #
    @property
    def domain(self) -> Domain:
        """The discrete domain the oracle estimates frequencies over."""
        return self._domain

    @property
    def domain_size(self) -> int:
        """Number of items ``D``."""
        return self._domain.size

    @property
    def privacy(self) -> PrivacyParams:
        """Privacy parameter wrapper."""
        return self._privacy

    @property
    def epsilon(self) -> float:
        """The epsilon budget each report satisfies."""
        return self._privacy.epsilon

    # ------------------------------------------------------------------ #
    # protocol steps
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def privatize(self, items: np.ndarray, rng: RngLike = None) -> Any:
        """Randomize one report per user.

        ``items`` is a 1-D integer array with one private value per user.
        The return type is oracle specific but always accepted by
        :meth:`aggregate`.
        """

    def aggregate(self, reports: Any, n_users: Optional[int] = None) -> np.ndarray:
        """Aggregate reports into unbiased fractional frequency estimates.

        Checks the payload once (:meth:`check_payload`), then folds it into
        a fresh accumulator and finalizes that.
        """
        n = self._batch_size(reports, n_users)
        self.check_payload(reports, n)
        accumulator = self.accumulate(self.make_accumulator(), reports, n_users=n)
        return self.finalize(accumulator)

    def estimate(self, items: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Run the full oracle on raw items and return frequency estimates."""
        items = self.domain.validate_items(np.asarray(items))
        reports = self.privatize(items, rng=ensure_rng(rng))
        return self.aggregate(reports, n_users=len(items))

    @abc.abstractmethod
    def estimate_from_counts(
        self, true_counts: np.ndarray, rng: RngLike = None
    ) -> np.ndarray:
        """Sample the aggregator's estimate directly from the true histogram.

        The returned vector has the same distribution (up to negligible
        cross-item correlation terms that vanish as ``1/D``) as running
        :meth:`estimate` on a population realising ``true_counts``, but costs
        ``O(D)`` or ``O(D log D)`` work instead of ``O(N)``/``O(N D)``.
        """

    # ------------------------------------------------------------------ #
    # streaming aggregation (sufficient statistics)
    # ------------------------------------------------------------------ #
    def _accumulator_config(self) -> Dict[str, Any]:
        """Configuration fingerprint guarding accumulator merges."""
        return {"domain_size": self.domain_size, "epsilon": self.epsilon}

    @abc.abstractmethod
    def make_accumulator(self) -> OracleAccumulator:
        """A fresh zero-report accumulator for this oracle configuration.

        Together with :meth:`accumulate` and :meth:`finalize` this is the
        out-of-core aggregation path: reports are reduced to fixed-size
        sufficient statistics as they arrive instead of being held in
        memory, and accumulators of shards merge exactly.
        """

    @abc.abstractmethod
    def accumulate(
        self,
        accumulator: OracleAccumulator,
        reports: Any,
        n_users: Optional[int] = None,
    ) -> OracleAccumulator:
        """Fold a batch of reports into ``accumulator`` and return it.

        Folds only: callers check the payload first (:meth:`aggregate`, or
        the server's per-level check before it absorbs anything).
        """

    @abc.abstractmethod
    def finalize(self, accumulator: OracleAccumulator) -> np.ndarray:
        """Unbiased frequency estimates from accumulated statistics."""

    #: Whether one user's report is a length-``D`` row (the unary and
    #: histogram encodings) rather than a single value.
    _unary_reports: bool = False

    #: Whether every report entry is a bit (OUE, SUE, THE; not SHE).
    _bit_reports: bool = False

    def check_payload(self, reports: Any, n_users: int) -> None:
        """Raise ``ValueError`` unless ``reports`` holds ``n_users`` of this oracle's reports.

        Reads the payload's type, parameters, shapes and values (here,
        that a bit payload not sent as ``bool`` holds only 0 and 1;
        oracles with other value domains add their own rules), so a
        server can refuse a misfit report before folding in any of it.
        """
        shape = (n_users, self.domain_size) if self._unary_reports else (n_users,)
        if not isinstance(reports, np.ndarray) or reports.shape != shape:
            got = getattr(reports, "shape", type(reports).__name__)
            raise ValueError(f"{self.name} expects an array of shape {shape}, got {got}")
        if (
            self._bit_reports
            and reports.dtype != np.bool_
            and np.any((reports != 0) & (reports != 1))
        ):
            raise ValueError(f"{self.name} report entries must be 0 or 1")

    def _check_accumulator(self, accumulator: OracleAccumulator) -> None:
        if not isinstance(accumulator, OracleAccumulator):
            raise ValueError(
                f"expected an OracleAccumulator, got {type(accumulator).__name__}"
            )
        if (
            accumulator.oracle_kind != self.name
            or accumulator.config != self._accumulator_config()
        ):
            raise ValueError(
                f"accumulator belongs to {accumulator.oracle_kind}/{accumulator.config}, "
                f"not {self.name}/{self._accumulator_config()}"
            )

    def _batch_size(self, reports: Any, n_users: Optional[int]) -> int:
        n = int(n_users) if n_users is not None else len(reports)
        if n < 0:
            raise ValueError(f"n_users must be non-negative, got {n}")
        return n

    def _require_finalizable(self, accumulator: OracleAccumulator) -> int:
        self._check_accumulator(accumulator)
        if accumulator.n_reports <= 0:
            raise ValueError("cannot aggregate zero reports")
        return accumulator.n_reports

    # ------------------------------------------------------------------ #
    # error characteristics
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def variance_per_user(self) -> float:
        """``psi_F(eps)``: estimator variance times the number of users."""

    def variance(self, n_users: int) -> float:
        """Per-item estimator variance ``V_F`` for a population of ``n_users``."""
        if n_users <= 0:
            raise ValueError(f"n_users must be positive, got {n_users}")
        return self.variance_per_user() / float(n_users)

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def _validate_counts(self, true_counts: np.ndarray) -> np.ndarray:
        counts = np.asarray(true_counts, dtype=np.float64)
        if counts.ndim != 1 or len(counts) != self.domain_size:
            raise ValueError(
                f"true_counts must be a 1-D array of length {self.domain_size}, "
                f"got shape {counts.shape}"
            )
        if np.any(counts < 0):
            raise ValueError("true_counts must be non-negative")
        return counts

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}(D={self.domain_size}, eps={self.epsilon:g})"


def check_report_columns(name: str, n_users: int, **columns: np.ndarray) -> None:
    """Raise ``ValueError`` unless every column holds one entry per user."""
    for column, values in columns.items():
        if np.shape(values) != (n_users,):
            raise ValueError(
                f"{name} report column {column!r} has shape {np.shape(values)}, "
                f"expected ({n_users},)"
            )


def check_report_range(
    name: str, column: str, values: np.ndarray, bound: int, low: int = 0
) -> None:
    """Raise ``ValueError`` unless every entry of ``values`` lies in ``[low, bound)``."""
    values = np.asarray(values)
    if not np.all((values >= low) & (values < bound)):
        raise ValueError(f"{name} report {column} must lie in [{low}, {bound})")


def standard_oracle_variance(epsilon: float) -> float:
    """The common per-user variance ``4 e^eps / (e^eps - 1)^2``.

    OUE, OLH and HRR all achieve this value (Section 3.2), which is why the
    paper can analyse every range-query construction in terms of a single
    ``V_F``.
    """
    e_eps = np.exp(epsilon)
    return float(4.0 * e_eps / (e_eps - 1.0) ** 2)
