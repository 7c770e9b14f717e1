"""Randomized response oracles: binary RR and generalized (k-ary) RR.

Binary randomized response (Warner, 1965) is the oldest LDP mechanism and
the paper uses it twice: as the perturbation primitive inside Hadamard
Randomized Response, and implicitly for the single root-level Haar
coefficient.  Generalized randomized response (GRR, also called k-RR or
direct encoding) is the categorical extension used inside Optimal Local
Hashing after the input has been hashed into ``g`` buckets.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.kernels import reference as kernels
from repro.core.rng import RngLike, ensure_rng
from repro.frequency_oracles.base import (
    FrequencyOracle,
    OracleAccumulator,
    check_report_range,
)


class GeneralizedRandomizedResponse(FrequencyOracle):
    """k-ary randomized response (direct encoding) over ``[D]``.

    Perturbation: report the true item with probability
    ``p = e^eps / (e^eps + D - 1)`` and otherwise a uniformly random *other*
    item.  Aggregation: the count of reports equal to ``z`` is debiased by
    ``(count/N - q) / (p - q)`` with ``q = (1 - p) / (D - 1)``.

    GRR is accurate for small domains but its variance grows linearly with
    ``D``; the paper therefore uses it only as an internal component (inside
    OLH) rather than as a range-query primitive.
    """

    name = "grr"

    def __init__(self, domain_size: int, epsilon: float) -> None:
        super().__init__(domain_size, epsilon)
        if self.domain_size < 2:
            raise ValueError("GRR requires a domain of at least 2 items")
        e_eps = self.privacy.e_eps
        self._p = e_eps / (e_eps + self.domain_size - 1)
        self._q = (1.0 - self._p) / (self.domain_size - 1)

    @property
    def keep_probability(self) -> float:
        """Probability ``p`` of reporting the true item."""
        return self._p

    @property
    def lie_probability(self) -> float:
        """Probability ``q`` that a specific *other* item is reported."""
        return self._q

    def privatize(self, items: np.ndarray, rng: RngLike = None) -> np.ndarray:
        rng = ensure_rng(rng)
        items = self.domain.validate_items(np.asarray(items))
        n = len(items)
        keep = rng.random(n) < self._p
        noise = rng.integers(0, self.domain_size - 1, size=n)
        # The kernel maps noise ~ U[0, D-1) to a uniformly random *other*
        # item by skipping over the true value, then applies the keep mask.
        return kernels.grr_perturb(items, keep, noise)

    def make_accumulator(self) -> OracleAccumulator:
        return OracleAccumulator(
            self.name,
            self._accumulator_config(),
            {"report_counts": np.zeros(self.domain_size, dtype=np.int64)},
        )

    def check_payload(self, reports, n_users: int) -> None:
        super().check_payload(reports, n_users)
        check_report_range(self.name, "items", reports, self.domain_size)

    def accumulate(
        self,
        accumulator: OracleAccumulator,
        reports: np.ndarray,
        n_users: Optional[int] = None,
    ) -> OracleAccumulator:
        self._check_accumulator(accumulator)
        counts = kernels.categorical_counts(reports, self.domain_size)
        accumulator.vectors["report_counts"] += counts
        accumulator.add_reports(self._batch_size(reports, n_users))
        return accumulator

    def finalize(self, accumulator: OracleAccumulator) -> np.ndarray:
        n = self._require_finalizable(accumulator)
        counts = accumulator.vectors["report_counts"].astype(np.float64)
        return (counts / n - self._q) / (self._p - self._q)

    def estimate_from_counts(
        self, true_counts: np.ndarray, rng: RngLike = None
    ) -> np.ndarray:
        rng = ensure_rng(rng)
        counts = self._validate_counts(true_counts)
        n = counts.sum()
        if n <= 0:
            return np.zeros(self.domain_size)
        true = counts.astype(np.int64)
        total = int(n)
        # Reports claiming item z come from truthful users holding z and
        # from lying users holding anything else.
        truthful = rng.binomial(true, self._p)
        lying = rng.binomial(total - true, self._q)
        noisy = (truthful + lying).astype(np.float64)
        return (noisy / total - self._q) / (self._p - self._q)

    def variance_per_user(self) -> float:
        # Var of the per-item estimator: q(1-q)/(p-q)^2 plus a term that
        # depends on the item's own frequency; we report the dominant
        # frequency-independent part, as is standard (Wang et al. 2017).
        return float(self._q * (1.0 - self._q) / (self._p - self._q) ** 2)


class BinaryRandomizedResponse(FrequencyOracle):
    """Warner's binary randomized response over the domain ``{0, 1}``.

    Each user holds a bit and reports it truthfully with probability
    ``p = e^eps / (1 + e^eps)``.  Besides serving as a tiny frequency oracle
    on its own, :meth:`privatize_values` / :meth:`debias_values` expose the
    raw +/-1 mechanics needed by Hadamard Randomized Response, where the
    "bit" being perturbed is a Hadamard coefficient in ``{-1, +1}``.
    """

    name = "rr"

    def __init__(self, epsilon: float) -> None:
        super().__init__(2, epsilon)
        self._p = self.privacy.keep_probability

    @property
    def keep_probability(self) -> float:
        """Probability of reporting the true bit."""
        return self._p

    # ------------------------------------------------------------------ #
    # +/-1 interface used by HRR and HaarHRR
    # ------------------------------------------------------------------ #
    def privatize_values(self, values: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Perturb an array of values in ``{-1, +1}``: flip each w.p. ``1-p``."""
        rng = ensure_rng(rng)
        values = np.asarray(values)
        flips = rng.random(values.shape) < self._p
        signs = np.where(flips, 1.0, -1.0)
        return values * signs

    def debias_values(self, reported: np.ndarray) -> np.ndarray:
        """Debias reports from :meth:`privatize_values` (divide by ``2p-1``)."""
        return np.asarray(reported, dtype=np.float64) / (2.0 * self._p - 1.0)

    # ------------------------------------------------------------------ #
    # FrequencyOracle interface over the binary domain
    # ------------------------------------------------------------------ #
    def privatize(self, items: np.ndarray, rng: RngLike = None) -> np.ndarray:
        rng = ensure_rng(rng)
        items = self.domain.validate_items(np.asarray(items))
        keep = rng.random(len(items)) < self._p
        return np.where(keep, items, 1 - items).astype(np.int64)

    def make_accumulator(self) -> OracleAccumulator:
        return OracleAccumulator(
            self.name,
            self._accumulator_config(),
            {"report_counts": np.zeros(2, dtype=np.int64)},
        )

    def accumulate(
        self,
        accumulator: OracleAccumulator,
        reports: np.ndarray,
        n_users: Optional[int] = None,
    ) -> OracleAccumulator:
        self._check_accumulator(accumulator)
        counts = kernels.categorical_counts(reports, 2)
        accumulator.vectors["report_counts"] += counts
        accumulator.add_reports(self._batch_size(reports, n_users))
        return accumulator

    def finalize(self, accumulator: OracleAccumulator) -> np.ndarray:
        n = self._require_finalizable(accumulator)
        ones = float(accumulator.vectors["report_counts"][1])
        q = 1.0 - self._p
        est_one = (ones / n - q) / (self._p - q)
        return np.array([1.0 - est_one, est_one])

    def estimate_from_counts(
        self, true_counts: np.ndarray, rng: RngLike = None
    ) -> np.ndarray:
        rng = ensure_rng(rng)
        counts = self._validate_counts(true_counts)
        n = int(counts.sum())
        if n <= 0:
            return np.zeros(2)
        ones = int(counts[1])
        noisy_ones = rng.binomial(ones, self._p) + rng.binomial(n - ones, 1.0 - self._p)
        q = 1.0 - self._p
        est_one = (noisy_ones / n - q) / (self._p - q)
        return np.array([1.0 - est_one, est_one])

    def variance_per_user(self) -> float:
        p = self._p
        return float(p * (1.0 - p) / (2.0 * p - 1.0) ** 2)
