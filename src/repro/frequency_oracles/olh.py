"""Optimal Local Hashing (OLH) frequency oracle (Wang et al., 2017).

Each user samples a hash function ``H_i`` from a pairwise-independent family
mapping the domain ``[D]`` into ``g`` buckets (``g = e^eps + 1`` minimizes
the variance), hashes her item and perturbs the bucket index with
generalized randomized response over ``[g]``.  She reports the hash function
(here: its two integer parameters) and the perturbed bucket.

The aggregator computes, for every item ``x``, its *support*
``T[x] = #{users i : H_i(x) == reported bucket_i}`` and debiases it:
``theta_hat[x] = (T[x]/N - 1/g) / (p - 1/g)``.

OLH matches OUE's variance with only ``O(log D)``-bit reports, but decoding
is expensive (``O(N D)`` hash evaluations), which is exactly why the paper
only evaluates TreeOLH on the smallest domain.  We keep that characteristic
honest here: the aggregation is vectorised but intrinsically ``O(N D)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.kernels.reference import HASH_PRIME
from repro.core.rng import RngLike, ensure_rng
from repro.frequency_oracles.base import (
    FrequencyOracle,
    OracleAccumulator,
    check_report_columns,
    standard_oracle_variance,
)

#: A Mersenne prime comfortably larger than any domain we hash from, small
#: enough that ``a * x`` never overflows an int64 (a < 2^31, x < 2^31).
_HASH_PRIME = HASH_PRIME


@dataclass
class LocalHashReports:
    """Reports collected from OLH users.

    Attributes
    ----------
    multipliers, offsets:
        Per-user parameters ``a`` and ``b`` of the hash
        ``H(x) = ((a * x + b) mod P) mod g``.
    buckets:
        The perturbed bucket index reported by each user.
    num_buckets:
        The hash range ``g``.
    """

    multipliers: np.ndarray
    offsets: np.ndarray
    buckets: np.ndarray
    num_buckets: int

    def __len__(self) -> int:
        return len(self.buckets)


class OptimalLocalHashing(FrequencyOracle):
    """OLH oracle with configurable hash range ``g`` (default ``e^eps + 1``)."""

    name = "olh"

    def __init__(
        self,
        domain_size: int,
        epsilon: float,
        num_buckets: Optional[int] = None,
        aggregation_chunk: int = 4096,
        kernel_backend: Optional[object] = None,
    ) -> None:
        super().__init__(domain_size, epsilon, kernel_backend=kernel_backend)
        if num_buckets is None:
            num_buckets = max(2, int(round(self.privacy.e_eps)) + 1)
        if num_buckets < 2:
            raise ValueError(f"num_buckets must be at least 2, got {num_buckets}")
        self._g = int(num_buckets)
        self._p = self.privacy.e_eps / (self.privacy.e_eps + self._g - 1)
        self._q = 1.0 / self._g
        if int(aggregation_chunk) < 1:
            raise ValueError(
                f"aggregation_chunk must be >= 1, got {aggregation_chunk}"
            )
        self._chunk = int(aggregation_chunk)

    @property
    def num_buckets(self) -> int:
        """The hash range ``g``."""
        return self._g

    @property
    def aggregation_chunk(self) -> int:
        """Users decoded per chunk in the ``O(N D)`` aggregation loop.

        A pure execution knob (memory/speed trade-off): it never changes
        the decoded support counts, so it is excluded from the accumulator
        compatibility config and from protocol specs.
        """
        return self._chunk

    @property
    def keep_probability(self) -> float:
        """GRR keep probability over the hashed domain."""
        return self._p

    # ------------------------------------------------------------------ #
    # hashing
    # ------------------------------------------------------------------ #
    def _hash(self, multipliers: np.ndarray, offsets: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Vectorised universal hash ``((a*x + b) mod P) mod g``.

        Arguments broadcast against each other, so this supports both
        "one item per user" (equal-length 1-D arrays) and "all items for a
        chunk of users" (column vs row vectors).
        """
        products = (
            multipliers.astype(np.int64) * items.astype(np.int64)
            + offsets.astype(np.int64)
        ) % _HASH_PRIME
        return (products % self._g).astype(np.int64)

    def _sample_hash_functions(self, n: int, rng: np.random.Generator):
        multipliers = rng.integers(1, _HASH_PRIME, size=n, dtype=np.int64)
        offsets = rng.integers(0, _HASH_PRIME, size=n, dtype=np.int64)
        return multipliers, offsets

    # ------------------------------------------------------------------ #
    # per-user protocol
    # ------------------------------------------------------------------ #
    def privatize(self, items: np.ndarray, rng: RngLike = None) -> LocalHashReports:
        rng = ensure_rng(rng)
        items = self.domain.validate_items(np.asarray(items))
        n = len(items)
        multipliers, offsets = self._sample_hash_functions(n, rng)
        keep = rng.random(n) < self._p
        noise = rng.integers(0, self._g - 1, size=n)
        # Fused hash + GRR perturbation over the g buckets; only the three
        # rng draws above touch the generator, so every backend produces
        # the same reports for the same seed.
        reported = self._kernels.olh_encode(
            multipliers, offsets, items, self._g, keep, noise
        )
        return LocalHashReports(
            multipliers=multipliers,
            offsets=offsets,
            buckets=reported,
            num_buckets=self._g,
        )

    def aggregate(
        self, reports: LocalHashReports, n_users: Optional[int] = None
    ) -> np.ndarray:
        accumulator = self.accumulate(self.make_accumulator(), reports, n_users=n_users)
        return self.finalize(accumulator)

    def _accumulator_config(self) -> dict:
        config = super()._accumulator_config()
        config["num_buckets"] = self._g
        return config

    def make_accumulator(self) -> OracleAccumulator:
        return OracleAccumulator(
            self.name,
            self._accumulator_config(),
            {"support": np.zeros(self.domain_size, dtype=np.int64)},
        )

    def check_payload(self, reports, n_users: int) -> None:
        if not isinstance(reports, LocalHashReports):
            raise ValueError(f"olh expects local-hash reports, got {type(reports).__name__}")
        if reports.num_buckets != self._g:
            raise ValueError(
                f"reports use g={reports.num_buckets}, oracle expects g={self._g}"
            )
        check_report_columns(
            self.name, n_users, multipliers=reports.multipliers,
            offsets=reports.offsets, buckets=reports.buckets,
        )

    def accumulate(
        self,
        accumulator: OracleAccumulator,
        reports: LocalHashReports,
        n_users: Optional[int] = None,
    ) -> OracleAccumulator:
        self._check_accumulator(accumulator)
        n = self._batch_size(reports, n_users)
        self.check_payload(reports, n)
        # The O(N * D) decode runs in the resolved kernel backend (chunked
        # numpy with a reused work buffer, or a fused compiled loop).  The
        # decoded support counts are the (integer) sufficient statistic, so
        # only O(D) state survives the batch.
        support = self._kernels.olh_support(
            np.ascontiguousarray(reports.multipliers, dtype=np.int64),
            np.ascontiguousarray(reports.offsets, dtype=np.int64),
            np.ascontiguousarray(reports.buckets, dtype=np.int64),
            self.domain_size,
            self._g,
            self._chunk,
        )
        accumulator.vectors["support"] += support
        accumulator.add_reports(n)
        return accumulator

    def finalize(self, accumulator: OracleAccumulator) -> np.ndarray:
        n = self._require_finalizable(accumulator)
        support = accumulator.vectors["support"].astype(np.float64)
        return (support / n - self._q) / (self._p - self._q)

    # ------------------------------------------------------------------ #
    # aggregate simulation
    # ------------------------------------------------------------------ #
    def estimate_from_counts(
        self, true_counts: np.ndarray, rng: RngLike = None
    ) -> np.ndarray:
        """Binomial simulation of the support counts.

        An item's support receives a contribution with probability ``p``
        from each user truly holding it and with probability ``1/g`` from
        every other user (by pairwise independence of the hash family), so
        ``T[x] ~ Bino(n_x, p) + Bino(N - n_x, 1/g)``.
        """
        rng = ensure_rng(rng)
        counts = self._validate_counts(true_counts).astype(np.int64)
        n = int(counts.sum())
        if n <= 0:
            return np.zeros(self.domain_size)
        support = rng.binomial(counts, self._p) + rng.binomial(n - counts, self._q)
        return (support.astype(np.float64) / n - self._q) / (self._p - self._q)

    def variance_per_user(self) -> float:
        # With the optimal g = e^eps + 1 this equals the standard bound; for
        # other g we report the exact GRR-over-buckets variance.
        p, q = self._p, self._q
        exact = q * (1.0 - q) / (p - q) ** 2 + p * (1.0 - p) / (p - q) ** 2
        standard = standard_oracle_variance(self.epsilon)
        # The two coincide at the optimum; prefer the exact expression when
        # the caller overrode g.
        if abs(self._g - (round(self.privacy.e_eps) + 1)) < 1e-9:
            return standard
        return float(exact)
