"""Optimized Unary Encoding (OUE) frequency oracle (Wang et al., 2017).

Each user encodes her item ``v`` as the one-hot vector ``e_v`` of length
``D`` and perturbs every bit independently:

* a 1 bit stays 1 with probability ``1/2``;
* a 0 bit becomes 1 with probability ``1 / (1 + e^eps)``.

The aggregator sums the reported bit-vectors and applies the bias correction

``theta_hat[z] = (sum_i o_i[z] / N - 1/(1+e^eps)) / (1/2 - 1/(1+e^eps))``

which yields the per-item variance ``V_F = 4 e^eps / (N (e^eps - 1)^2)``.

Every user transmits ``D`` bits: :meth:`OptimizedUnaryEncoding.privatize`
returns a ``bool`` matrix, which the report codec packs eight entries to
a byte (payload kind ``"bits"``).  A literal implementation is still
``O(N D)`` work, slow for large domains.  Following Section 5 of the
paper, we also provide the statistically equivalent aggregate simulation
that samples the aggregator's noisy count of each item as a sum of two
Binomials.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.kernels import reference as kernels
from repro.core.rng import RngLike, ensure_rng
from repro.frequency_oracles.base import (
    FrequencyOracle,
    OracleAccumulator,
    standard_oracle_variance,
)


class OptimizedUnaryEncoding(FrequencyOracle):
    """OUE oracle with both per-user and aggregate-simulation execution."""

    name = "oue"
    _unary_reports = True
    _bit_reports = True

    def __init__(self, domain_size: int, epsilon: float) -> None:
        super().__init__(domain_size, epsilon)
        # Probability that a true 1-bit is reported as 1.
        self._p_one = 0.5
        # Probability that a true 0-bit is reported as 1.
        self._p_zero = 1.0 / (1.0 + self.privacy.e_eps)

    @property
    def p_one(self) -> float:
        """Probability a set bit stays set."""
        return self._p_one

    @property
    def p_zero(self) -> float:
        """Probability an unset bit is flipped on."""
        return self._p_zero

    # ------------------------------------------------------------------ #
    # per-user protocol
    # ------------------------------------------------------------------ #
    def privatize(self, items: np.ndarray, rng: RngLike = None) -> np.ndarray:
        """Return an ``(N, D)`` bool matrix of perturbed one-hot vectors."""
        rng = ensure_rng(rng)
        items = self.domain.validate_items(np.asarray(items))
        n = len(items)
        # The two draws below are the only generator activity; the bit
        # perturbation itself (zero-bit thresholding plus resampling each
        # user's true bit) runs in the unary_perturb kernel, whose 0/1
        # uint8 matrix is viewed as bool (zero-copy) so it travels as bits.
        uniforms = rng.random((n, self.domain_size))
        true_uniforms = rng.random(n)
        return kernels.unary_perturb(
            uniforms, self._p_zero, items, true_uniforms, self._p_one
        ).view(np.bool_)

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
        accumulator.vectors["bit_sums"] += kernels.unary_sums(reports)
        accumulator.add_reports(self._batch_size(reports, n_users))
        return accumulator

    def finalize(self, accumulator: OracleAccumulator) -> np.ndarray:
        n = self._require_finalizable(accumulator)
        return self._debias(accumulator.vectors["bit_sums"].astype(np.float64), n)

    # ------------------------------------------------------------------ #
    # aggregate simulation (paper, Section 5)
    # ------------------------------------------------------------------ #
    def estimate_from_counts(
        self, true_counts: np.ndarray, rng: RngLike = None
    ) -> np.ndarray:
        """Sample the noisy counts directly: ``Bino(n_z, 1/2) + Bino(N - n_z, p0)``."""
        rng = ensure_rng(rng)
        counts = self._validate_counts(true_counts).astype(np.int64)
        n = int(counts.sum())
        if n <= 0:
            return np.zeros(self.domain_size)
        ones_from_true = rng.binomial(counts, self._p_one)
        ones_from_false = rng.binomial(n - counts, self._p_zero)
        noisy = (ones_from_true + ones_from_false).astype(np.float64)
        return self._debias(noisy, n)

    def _debias(self, noisy_ones: np.ndarray, n_users: int) -> np.ndarray:
        return (noisy_ones / n_users - self._p_zero) / (self._p_one - self._p_zero)

    def variance_per_user(self) -> float:
        return standard_oracle_variance(self.epsilon)
