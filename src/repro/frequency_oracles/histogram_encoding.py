"""Histogram Encoding oracles: SHE (summation) and THE (thresholding).

Histogram Encoding (Wang et al., 2017) has each user add Laplace noise of
scale ``2 / eps`` to every entry of her one-hot vector (the L1 sensitivity
of a one-hot vector is 2).  Two decoders exist:

* **SHE** (Summation with Histogram Encoding) simply averages the noisy
  vectors; the estimator is unbiased with per-user variance ``8 / eps^2``.
* **THE** (Thresholding with Histogram Encoding) reports, for each item, the
  fraction of users whose noisy entry exceeds a threshold ``theta`` and
  debiases it through the Laplace CDF; with the optimal threshold this
  matches OUE's variance for small epsilon and is included here mainly so
  the oracle comparison benchmarks can quantify the difference.

Neither method is used by the paper's headline protocols (OUE/HRR/OLH are
strictly better on the accuracy/communication trade-off), but they complete
the survey of Section 3.2-era frequency oracles and exercise the
oracle-agnostic design of the hierarchical framework.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.kernels import reference as kernels
from repro.core.rng import RngLike, ensure_rng
from repro.frequency_oracles.base import (
    ExactSumAccumulator,
    FrequencyOracle,
    OracleAccumulator,
)


def _laplace_sf(x: np.ndarray, scale: float) -> np.ndarray:
    """Survival function P[Laplace(0, scale) > x] for scalar or array ``x``."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x < 0, 1.0 - 0.5 * np.exp(x / scale), 0.5 * np.exp(-x / scale))


class SummationHistogramEncoding(FrequencyOracle):
    """SHE: per-entry Laplace noise, decoded by plain averaging."""

    name = "she"
    _unary_reports = True

    def __init__(self, domain_size: int, epsilon: float) -> None:
        super().__init__(domain_size, epsilon)
        self._scale = 2.0 / self.privacy.epsilon

    @property
    def noise_scale(self) -> float:
        """Laplace scale ``2 / eps`` added to every vector entry."""
        return self._scale

    def privatize(self, items: np.ndarray, rng: RngLike = None) -> np.ndarray:
        rng = ensure_rng(rng)
        items = self.domain.validate_items(np.asarray(items))
        n = len(items)
        reports = rng.laplace(0.0, self._scale, size=(n, self.domain_size))
        reports[np.arange(n), items] += 1.0
        return reports

    def make_accumulator(self) -> ExactSumAccumulator:
        # Laplace reports are real-valued, and float sums are not exactly
        # associative; the exact accumulator keeps one column sum per
        # ingested batch and finalizes with math.fsum, which keeps sharded
        # aggregation order-independent (see its docstring).
        return ExactSumAccumulator(
            self.name, self._accumulator_config(), size=self.domain_size
        )

    def accumulate(
        self,
        accumulator: OracleAccumulator,
        reports: np.ndarray,
        n_users: Optional[int] = None,
    ) -> OracleAccumulator:
        self._check_accumulator(accumulator)
        reports = np.asarray(reports, dtype=np.float64)
        if len(reports):
            accumulator.add_batch_sums(reports.sum(axis=0))
        accumulator.add_reports(self._batch_size(reports, n_users))
        return accumulator

    def finalize(self, accumulator: OracleAccumulator) -> np.ndarray:
        n = self._require_finalizable(accumulator)
        return accumulator.exact_means(n)

    def estimate_from_counts(
        self, true_counts: np.ndarray, rng: RngLike = None
    ) -> np.ndarray:
        rng = ensure_rng(rng)
        counts = self._validate_counts(true_counts)
        n = counts.sum()
        if n <= 0:
            return np.zeros(self.domain_size)
        # The sum of N independent Laplace variables is approximated by a
        # Gaussian with matching variance (N is large in every experiment);
        # the per-item totals then only need the exact counts added.
        noise_variance = 2.0 * self._scale**2 * n
        totals = counts + rng.normal(0.0, math.sqrt(noise_variance), size=self.domain_size)
        return totals / n

    def variance_per_user(self) -> float:
        return float(2.0 * self._scale**2)


class ThresholdHistogramEncoding(FrequencyOracle):
    """THE: per-entry Laplace noise, decoded by thresholding at ``theta``."""

    name = "the"
    _unary_reports = True
    _bit_reports = True

    def __init__(
        self,
        domain_size: int,
        epsilon: float,
        threshold: Optional[float] = None,
    ) -> None:
        super().__init__(domain_size, epsilon)
        self._scale = 2.0 / self.privacy.epsilon
        if threshold is None:
            # Wang et al. show the optimum lies in (0.5, 1); theta = 0.67 is
            # within a fraction of a percent of optimal across the epsilon
            # range the paper uses.
            threshold = 0.67
        if not 0.0 < threshold < 1.5:
            raise ValueError(f"threshold should be in (0, 1.5), got {threshold}")
        self._theta = float(threshold)
        # Probability a true 1-entry (resp. 0-entry) exceeds the threshold.
        self._p = float(_laplace_sf(np.array(self._theta - 1.0), self._scale))
        self._q = float(_laplace_sf(np.array(self._theta), self._scale))

    @property
    def threshold(self) -> float:
        """The decision threshold ``theta``."""
        return self._theta

    @property
    def hit_probabilities(self) -> tuple:
        """``(p, q)``: threshold-exceedance probabilities for 1- and 0-entries."""
        return (self._p, self._q)

    def _accumulator_config(self) -> dict:
        config = super()._accumulator_config()
        config["threshold"] = self._theta
        return config

    def privatize(self, items: np.ndarray, rng: RngLike = None) -> np.ndarray:
        rng = ensure_rng(rng)
        items = self.domain.validate_items(np.asarray(items))
        n = len(items)
        noisy = rng.laplace(0.0, self._scale, size=(n, self.domain_size))
        noisy[np.arange(n), items] += 1.0
        return noisy > self._theta

    def make_accumulator(self) -> OracleAccumulator:
        return OracleAccumulator(
            self.name,
            self._accumulator_config(),
            {"hit_sums": np.zeros(self.domain_size, dtype=np.int64)},
        )

    def accumulate(
        self,
        accumulator: OracleAccumulator,
        reports: np.ndarray,
        n_users: Optional[int] = None,
    ) -> OracleAccumulator:
        self._check_accumulator(accumulator)
        accumulator.vectors["hit_sums"] += kernels.unary_sums(reports)
        accumulator.add_reports(self._batch_size(reports, n_users))
        return accumulator

    def finalize(self, accumulator: OracleAccumulator) -> np.ndarray:
        n = self._require_finalizable(accumulator)
        hits = accumulator.vectors["hit_sums"].astype(np.float64)
        return (hits / n - self._q) / (self._p - self._q)

    def estimate_from_counts(
        self, true_counts: np.ndarray, rng: RngLike = None
    ) -> np.ndarray:
        rng = ensure_rng(rng)
        counts = self._validate_counts(true_counts).astype(np.int64)
        n = int(counts.sum())
        if n <= 0:
            return np.zeros(self.domain_size)
        hits = rng.binomial(counts, self._p) + rng.binomial(n - counts, self._q)
        return (hits.astype(np.float64) / n - self._q) / (self._p - self._q)

    def variance_per_user(self) -> float:
        return float(self._q * (1.0 - self._q) / (self._p - self._q) ** 2)
