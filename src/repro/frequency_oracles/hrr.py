"""Hadamard Randomized Response (HRR) frequency oracle.

Each user holding item ``v`` conceptually forms the one-hot vector ``e_v``,
takes its (+/-1 scaled) Walsh--Hadamard transform, samples a *single*
coefficient index ``j`` uniformly at random and perturbs the +/-1 value
``H[v, j]`` with binary randomized response.  The report is just the pair
``(j, perturbed value)`` -- ``log2(D) + 1`` bits -- which makes HRR the most
communication-frugal of the standard oracles.

The aggregator debiases each report by ``1 / (2p - 1)``, averages the
debiased values per coefficient (scaling by ``D`` to account for the
uniform sampling of indices), and inverts the transform to obtain unbiased
frequency estimates.  The per-item variance equals the common
``4 e^eps / (N (e^eps - 1)^2)`` bound.

This implementation additionally supports *signed* items: a user may hold
``-e_v`` instead of ``e_v`` (its transform is just the negated row), which
is exactly what the HaarHRR range-query protocol needs, because a Haar
coefficient at a given level is a signed one-hot vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.kernels import reference as kernels
from repro.core.rng import RngLike, ensure_rng
from repro.frequency_oracles.base import (
    FrequencyOracle,
    OracleAccumulator,
    check_report_columns,
    check_report_range,
    standard_oracle_variance,
)
from repro.frequency_oracles.hadamard import fwht, pad_to_power_of_two


@dataclass
class HadamardReports:
    """Reports collected from HRR users.

    Attributes
    ----------
    indices:
        The Hadamard coefficient index sampled by each user.
    values:
        The perturbed +/-1 coefficient value reported by each user.
    padded_size:
        The (power of two) transform length the indices refer to.
    """

    indices: np.ndarray
    values: np.ndarray
    padded_size: int

    def __len__(self) -> int:
        return len(self.indices)


class HadamardRandomizedResponse(FrequencyOracle):
    """HRR oracle over a domain of size ``D`` (padded to a power of two)."""

    name = "hrr"

    def __init__(self, domain_size: int, epsilon: float) -> None:
        super().__init__(domain_size, epsilon)
        self._padded = pad_to_power_of_two(self.domain_size)
        self._p = self.privacy.keep_probability

    @property
    def padded_size(self) -> int:
        """The power-of-two length the Hadamard transform is taken over."""
        return self._padded

    @property
    def keep_probability(self) -> float:
        """Binary randomized response keep probability ``p``."""
        return self._p

    # ------------------------------------------------------------------ #
    # per-user protocol
    # ------------------------------------------------------------------ #
    def privatize(self, items: np.ndarray, rng: RngLike = None) -> HadamardReports:
        items = self.domain.validate_items(np.asarray(items))
        return self.privatize_signed(items, np.ones(len(items)), rng=rng)

    def privatize_signed(
        self, items: np.ndarray, signs: np.ndarray, rng: RngLike = None
    ) -> HadamardReports:
        """Privatize signed one-hot inputs ``signs[i] * e_{items[i]}``.

        ``signs`` must contain only ``+1`` and ``-1`` values.  Used directly
        by the HaarHRR protocol.
        """
        rng = ensure_rng(rng)
        items = self.domain.validate_items(np.asarray(items))
        signs = np.asarray(signs, dtype=np.float64)
        if signs.shape != items.shape:
            raise ValueError("signs must have the same shape as items")
        if not np.all(np.isin(signs, (-1.0, 1.0))):
            raise ValueError("signs must be +1 or -1")
        n = len(items)
        indices = rng.integers(0, self._padded, size=n)
        keep = rng.random(n) < self._p
        # Fused Hadamard-entry evaluation + sign application + randomized
        # response flip; the two draws above are the only generator use.
        reported = kernels.hrr_encode(items, signs, indices, keep)
        return HadamardReports(indices=indices, values=reported, padded_size=self._padded)

    # ------------------------------------------------------------------ #
    # streaming aggregation
    # ------------------------------------------------------------------ #
    def _accumulator_config(self) -> dict:
        config = super()._accumulator_config()
        config["padded_size"] = self._padded
        return config

    def make_accumulator(self) -> OracleAccumulator:
        return OracleAccumulator(
            self.name,
            self._accumulator_config(),
            {"value_sums": np.zeros(self._padded, dtype=np.int64)},
        )

    def check_payload(self, reports, n_users: int) -> None:
        if not isinstance(reports, HadamardReports):
            raise ValueError(f"hrr expects Hadamard reports, got {type(reports).__name__}")
        if reports.padded_size != self._padded:
            raise ValueError(
                "reports were produced for a different transform length "
                f"({reports.padded_size} != {self._padded})"
            )
        check_report_columns(
            self.name, n_users, indices=reports.indices, values=reports.values
        )
        check_report_range(self.name, "indices", reports.indices, self._padded)
        if not np.all(np.abs(reports.values) == 1):
            raise ValueError(f"{self.name} report values must be -1 or +1")

    def accumulate(
        self,
        accumulator: OracleAccumulator,
        reports: HadamardReports,
        n_users: Optional[int] = None,
    ) -> OracleAccumulator:
        """Fold reports into per-coefficient sums of the raw +/-1 values.

        The raw values are summed *before* debiasing so the sufficient
        statistic stays integral; :meth:`finalize` divides by ``2p - 1``
        once, which keeps sharded aggregation exactly order-independent.
        """
        self._check_accumulator(accumulator)
        accumulator.vectors["value_sums"] += kernels.hrr_value_sums(
            reports.indices, reports.values, self._padded
        )
        accumulator.add_reports(self._batch_size(reports, n_users))
        return accumulator

    def finalize(self, accumulator: OracleAccumulator) -> np.ndarray:
        n = self._require_finalizable(accumulator)
        debiased = accumulator.vectors["value_sums"] / (2.0 * self._p - 1.0)
        coefficients = debiased * (self._padded / n)
        return fwht(coefficients)[: self.domain_size] / self._padded

    # ------------------------------------------------------------------ #
    # aggregate simulation
    # ------------------------------------------------------------------ #
    def estimate_from_counts(
        self, true_counts: np.ndarray, rng: RngLike = None
    ) -> np.ndarray:
        coefficients = self.simulate_coefficients(true_counts, rng=rng)
        estimates = fwht(coefficients) / self._padded
        return estimates[: self.domain_size]

    def simulate_coefficients(
        self, true_counts: np.ndarray, rng: RngLike = None
    ) -> np.ndarray:
        """Sample unbiased Hadamard coefficient estimates from a histogram.

        For every coefficient ``j`` the users splitting into the ``+1`` and
        ``-1`` camps are known exactly from the true transform; the number
        of users that sample ``j`` and the randomized-response flips are
        then drawn as Binomials.  Cross-coefficient correlations (each user
        samples exactly one coefficient) are ignored, which perturbs joint
        statistics only at order ``1/D`` -- the same simplification the
        paper makes when simulating OUE.
        """
        counts = self._validate_counts(true_counts)
        return self.simulate_signed_coefficients(counts, np.zeros_like(counts), rng=rng)

    def simulate_signed_coefficients(
        self,
        positive_counts: np.ndarray,
        negative_counts: np.ndarray,
        rng: RngLike = None,
    ) -> np.ndarray:
        """Aggregate simulation for *signed* one-hot inputs.

        ``positive_counts[v]`` users hold ``+e_v`` and ``negative_counts[v]``
        users hold ``-e_v`` (the HaarHRR protocol produces such populations,
        one per Haar level).  Returns unbiased estimates of the unnormalised
        Hadamard transform of the signed fraction vector
        ``(positive_counts - negative_counts) / N``.
        """
        rng = ensure_rng(rng)
        positive = self._validate_counts(positive_counts)
        negative = self._validate_counts(negative_counts)
        n = positive.sum() + negative.sum()
        if n <= 0:
            return np.zeros(self._padded)
        net = np.zeros(self._padded)
        net[: self.domain_size] = positive - negative
        # T_j = sum over users of (sign_i * H[v_i, j]).
        true_transform = fwht(net)
        plus_pool = np.round((n + true_transform) / 2.0).astype(np.int64)
        minus_pool = np.round((n - true_transform) / 2.0).astype(np.int64)
        plus_pool = np.clip(plus_pool, 0, None)
        minus_pool = np.clip(minus_pool, 0, None)

        sample_prob = 1.0 / self._padded
        chosen_plus = rng.binomial(plus_pool, sample_prob)
        chosen_minus = rng.binomial(minus_pool, sample_prob)
        # Among users whose true coefficient is +1, those kept report +1.
        kept_plus = rng.binomial(chosen_plus, self._p)
        kept_minus = rng.binomial(chosen_minus, self._p)
        observed_sum = (2 * kept_plus - chosen_plus).astype(np.float64) - (
            2 * kept_minus - chosen_minus
        ).astype(np.float64)
        debiased = observed_sum / (2.0 * self._p - 1.0)
        return debiased * (self._padded / n)

    def estimate_from_signed_counts(
        self,
        positive_counts: np.ndarray,
        negative_counts: np.ndarray,
        rng: RngLike = None,
    ) -> np.ndarray:
        """Aggregate simulation returning signed fraction estimates.

        Statistically equivalent to running :meth:`privatize_signed` on a
        population with the given signed composition and aggregating.
        """
        coefficients = self.simulate_signed_coefficients(
            positive_counts, negative_counts, rng=rng
        )
        estimates = fwht(coefficients) / self._padded
        return estimates[: self.domain_size]

    def variance_per_user(self) -> float:
        return standard_oracle_variance(self.epsilon)
