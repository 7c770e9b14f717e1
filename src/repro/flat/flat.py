"""Flat range-query methods: sum per-item frequency-oracle estimates.

"Flat" is the paper's name for the natural baseline (Section 4.2): every
user reports her item through a frequency oracle over the whole domain and
a range query ``[a, b]`` is answered by summing the ``b - a + 1`` estimated
item frequencies.  Fact 1 shows the variance of such an answer is
``r * V_F`` -- linear in the range length -- which is exactly the weakness
the hierarchical and wavelet methods fix.

The runtime roles are the generic decomposition engine instantiated on an
:class:`~repro.core.decomposition.IdentityDecomposition` (a single level
holding the whole domain); only the estimator and the theory live here.
An estimator can be built from any accumulator state of this
configuration -- a live server, a restored snapshot, or a lazily merged
window of epoch shards (``protocol.estimator_from_state(state)``, which
is how :meth:`repro.engine.Engine.estimator` answers windowed queries).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.decomposition import (
    DecomposedRangeQueryProtocol,
    IdentityDecomposition,
)
from repro.core.exceptions import ProtocolUsageError
from repro.core.postprocess import FREQUENCIES, PipelineLike, resolve_postprocess
from repro.core.protocol import RangeQueryEstimator
from repro.core.session import (
    AccumulatorState,
    DecompositionClient,
    DecompositionServer,
)
from repro.core.types import Domain
from repro.frequency_oracles import make_oracle
from repro.frequency_oracles.base import standard_oracle_variance


class FlatEstimator(RangeQueryEstimator):
    """Per-item frequency estimates; ranges are sums of point estimates."""

    def __init__(self, domain: Domain, frequencies: np.ndarray) -> None:
        super().__init__(domain)
        frequencies = np.asarray(frequencies, dtype=np.float64)
        if frequencies.shape != (domain.size,):
            raise ProtocolUsageError(
                f"expected {domain.size} frequency estimates, got shape {frequencies.shape}"
            )
        self._frequencies = frequencies

    def estimated_frequencies(self) -> np.ndarray:
        return self._frequencies.copy()


class FlatClient(DecompositionClient):
    """User-side encoder of the flat protocol: one oracle report per user."""


class FlatServer(DecompositionServer):
    """Aggregator of the flat protocol: a single oracle accumulator.

    ``finalize`` works on any state of this configuration, including a
    merged multi-epoch window adopted via ``server(state=...)``.
    """


class FlatRangeQuery(DecomposedRangeQueryProtocol):
    """Flat protocol instantiated by a choice of frequency oracle.

    Parameters
    ----------
    domain_size, epsilon:
        As usual.
    oracle:
        Frequency-oracle handle (``"oue"`` by default, matching the paper's
        choice of flat baseline).
    postprocess:
        Post-processing pipeline applied to the debiased frequencies at
        assembly time: a registry string (``"none"``, ``"clip"``,
        ``"norm_sub"``, ``"monotone_cdf"``, ``"+"``-combinable) or a
        :class:`~repro.core.postprocess.PostPipeline`.  Default: none.
    """

    def __init__(
        self,
        domain_size: int,
        epsilon: float,
        oracle: str = "oue",
        postprocess: PipelineLike = None,
    ) -> None:
        super().__init__(domain_size, epsilon)
        self._oracle_name = oracle.strip().lower()
        # Validate eagerly so bad pipeline strings fail at construction.
        self._pipeline = resolve_postprocess(postprocess, FREQUENCIES)
        self._postprocess_arg = None if postprocess is None else self._pipeline.spec
        self.name = f"Flat{self._oracle_name.upper()}"

    @property
    def oracle_name(self) -> str:
        """Handle of the underlying frequency oracle."""
        return self._oracle_name

    @property
    def postprocess(self) -> Optional[str]:
        """Registry spelling of the post-processing pipeline (None = none)."""
        return self._postprocess_arg

    def _make_oracle(self):
        return make_oracle(self._oracle_name, self.domain_size, self.epsilon)

    def _build_decomposition(self) -> IdentityDecomposition:
        return IdentityDecomposition(
            self.domain, self._make_oracle, postprocess=self._pipeline
        )

    def client(self) -> FlatClient:
        return FlatClient(self)

    def server(self, state: Optional[AccumulatorState] = None) -> FlatServer:
        return FlatServer(self, state)

    def spec(self) -> dict:
        spec = {
            "name": "flat",
            "domain_size": self.domain_size,
            "epsilon": self.epsilon,
            "oracle": self._oracle_name,
        }
        if self._postprocess_arg is not None:
            # Written only when set, so pre-pipeline specs (and the states
            # that embed them) stay byte-identical.
            spec["postprocess"] = self._postprocess_arg
        return spec

    def theoretical_range_variance(self, range_length: int, n_users: int) -> float:
        """Fact 1: ``Var = r * V_F``."""
        if range_length < 1 or range_length > self.domain_size:
            raise ValueError(
                f"range_length must be in [1, {self.domain_size}], got {range_length}"
            )
        if n_users <= 0:
            raise ValueError(f"n_users must be positive, got {n_users}")
        return range_length * standard_oracle_variance(self.epsilon) / n_users

    def average_worst_case_error(self, n_users: int) -> float:
        """Lemma 4.2: average squared error over all ranges is ``(D+2) V_F / 3``."""
        if n_users <= 0:
            raise ValueError(f"n_users must be positive, got {n_users}")
        return (self.domain_size + 2) * standard_oracle_variance(self.epsilon) / (3.0 * n_users)
