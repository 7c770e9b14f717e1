"""Symmetric Unary Encoding (SUE), a.k.a. basic one-time RAPPOR.

The predecessor of OUE (Erlingsson et al.'s RAPPOR without Bloom filters and
without the memoization layers): each user perturbs every bit of her one-hot
vector *symmetrically*, keeping it with probability
``p = e^{eps/2} / (1 + e^{eps/2})`` and flipping it otherwise.  OUE improves
on SUE by treating the 1-bit and the 0-bits asymmetrically, which is exactly
the comparison our tests and ablation benchmarks make quantitative: SUE's
variance is strictly worse than OUE's for every epsilon.

Included because the paper's frequency-oracle section surveys the
RAPPOR-style mechanisms as the historical starting point of the area, and
because having a second unary-encoding oracle exercises the HH framework's
oracle-agnostic design.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.rng import RngLike, ensure_rng
from repro.frequency_oracles.base import (
    FrequencyOracle,
    OracleAccumulator,
    validate_unary_reports,
)


class SymmetricUnaryEncoding(FrequencyOracle):
    """Basic RAPPOR: symmetric per-bit randomized response on one-hot vectors."""

    name = "sue"
    _unary_reports = True
    _bit_reports = True

    def __init__(
        self,
        domain_size: int,
        epsilon: float,
        kernel_backend: Optional[object] = None,
    ) -> None:
        super().__init__(domain_size, epsilon, kernel_backend=kernel_backend)
        # Each bit individually gets half the budget (two bits can change
        # between neighbouring inputs), giving the e^{eps/2} form.
        half = math.exp(self.privacy.epsilon / 2.0)
        self._p = half / (half + 1.0)
        self._q = 1.0 / (half + 1.0)

    @property
    def keep_probability(self) -> float:
        """Probability that any bit (0 or 1) is reported truthfully."""
        return self._p

    # ------------------------------------------------------------------ #
    # per-user protocol
    # ------------------------------------------------------------------ #
    def privatize(self, items: np.ndarray, rng: RngLike = None) -> np.ndarray:
        rng = ensure_rng(rng)
        items = self.domain.validate_items(np.asarray(items))
        n = len(items)
        uniforms = rng.random((n, self.domain_size))
        true_uniforms = rng.random(n)
        return self._kernels.unary_perturb(
            uniforms, self._q, items, true_uniforms, self._p
        ).view(np.bool_)

    def aggregate(
        self, reports: np.ndarray, n_users: Optional[int] = None
    ) -> np.ndarray:
        accumulator = self.accumulate(self.make_accumulator(), reports, n_users=n_users)
        return self.finalize(accumulator)

    def make_accumulator(self) -> OracleAccumulator:
        return OracleAccumulator(
            self.name,
            self._accumulator_config(),
            {"bit_sums": np.zeros(self.domain_size, dtype=np.int64)},
        )

    def accumulate(
        self,
        accumulator: OracleAccumulator,
        reports: np.ndarray,
        n_users: Optional[int] = None,
    ) -> OracleAccumulator:
        self._check_accumulator(accumulator)
        reports = validate_unary_reports(reports, self.domain_size)
        accumulator.vectors["bit_sums"] += self._kernels.unary_sums(reports)
        accumulator.add_reports(self._batch_size(reports, n_users))
        return accumulator

    def finalize(self, accumulator: OracleAccumulator) -> np.ndarray:
        n = self._require_finalizable(accumulator)
        ones = accumulator.vectors["bit_sums"].astype(np.float64)
        return (ones / n - self._q) / (self._p - self._q)

    # ------------------------------------------------------------------ #
    # aggregate simulation
    # ------------------------------------------------------------------ #
    def estimate_from_counts(
        self, true_counts: np.ndarray, rng: RngLike = None
    ) -> np.ndarray:
        rng = ensure_rng(rng)
        counts = self._validate_counts(true_counts).astype(np.int64)
        n = int(counts.sum())
        if n <= 0:
            return np.zeros(self.domain_size)
        ones = rng.binomial(counts, self._p) + rng.binomial(n - counts, self._q)
        return (ones.astype(np.float64) / n - self._q) / (self._p - self._q)

    def variance_per_user(self) -> float:
        # Wang et al. 2017, Eq. for SUE: q(1-q)/(p-q)^2 dominates.
        return float(self._q * (1.0 - self._q) / (self._p - self._q) ** 2)
