"""Hierarchical Histograms under LDP (Sections 4.3-4.5 of the paper).

The protocol imposes a complete B-ary tree over the domain.  Each user
samples a *single* level of the tree (uniformly by default -- Lemma 4.4
shows uniform sampling minimises the variance bound), forms the one-hot
vector of her ancestor node at that level, and reports it through a
frequency oracle (OUE, HRR or OLH; the paper calls the resulting protocols
TreeOUE, TreeHRR and TreeOLH).  The aggregator estimates the fraction of
the population under every node, optionally applies the constrained
inference of Section 4.5 (suffix "CI" in the paper), and answers a range
query by summing the nodes of its canonical B-adic decomposition.

The key departure from the centralized literature -- sampling a level
instead of splitting the privacy budget across levels -- is available as an
explicit ``level_strategy`` switch so the ablation benchmark can quantify
the difference the paper motivates analytically (error proportional to
``h`` for sampling versus ``h^2`` for splitting).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.core.decomposition import (
    BAdicTreeDecomposition,
    DecomposedRangeQueryProtocol,
)
from repro.core.exceptions import ProtocolUsageError
from repro.core.postprocess import (
    TREE,
    PipelineLike,
    resolve_postprocess,
    tree_enforce_consistency,
)
from repro.core.protocol import RangeQueryEstimator, RangeLike, _as_range
from repro.core.session import (
    AccumulatorState,
    DecompositionClient,
    DecompositionServer,
)
from repro.core.types import Domain
from repro.frequency_oracles import make_oracle
from repro.frequency_oracles.base import standard_oracle_variance
from repro.hierarchy.tree import DomainTree

#: Level-allocation strategies.  ``"sample"`` is the paper's protocol;
#: ``"split"`` is the centralized-style budget-splitting ablation.
LEVEL_STRATEGIES = ("sample", "split")


class HierarchicalEstimator(RangeQueryEstimator):
    """Aggregated per-node fraction estimates for a B-ary domain tree.

    Parameters
    ----------
    tree:
        The structural :class:`~repro.hierarchy.tree.DomainTree`.
    level_fractions:
        Estimated fraction of the population under each node, one array per
        level with the root first.  The root entry is the constant 1.
    consistent:
        Whether the values have been through constrained inference.
    level_user_counts:
        Number of users that reported at each level (diagnostics only).
    """

    def __init__(
        self,
        tree: DomainTree,
        level_fractions: Sequence[np.ndarray],
        consistent: bool,
        level_user_counts: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__(Domain(tree.domain_size))
        self._tree = tree
        self._levels = [np.asarray(values, dtype=np.float64) for values in level_fractions]
        if len(self._levels) != tree.num_levels:
            raise ProtocolUsageError(
                f"expected {tree.num_levels} levels of estimates, got {len(self._levels)}"
            )
        self._consistent = bool(consistent)
        self._level_user_counts = (
            None if level_user_counts is None else np.asarray(level_user_counts)
        )
        self._level_prefix_cache: Optional[List[np.ndarray]] = None

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def tree(self) -> DomainTree:
        """The underlying tree structure."""
        return self._tree

    @property
    def branching(self) -> int:
        """Tree fan-out ``B``."""
        return self._tree.branching

    @property
    def is_consistent(self) -> bool:
        """Whether constrained inference has been applied."""
        return self._consistent

    @property
    def level_fractions(self) -> List[np.ndarray]:
        """Per-level node estimates (copies; root first)."""
        return [values.copy() for values in self._levels]

    @property
    def level_user_counts(self) -> Optional[np.ndarray]:
        """Number of users assigned to each level, if known."""
        return None if self._level_user_counts is None else self._level_user_counts.copy()

    def node_value(self, level: int, index: int) -> float:
        """Estimated fraction of the population under one node."""
        return float(self._levels[level][index])

    # ------------------------------------------------------------------ #
    # post-processing
    # ------------------------------------------------------------------ #
    def with_consistency(self) -> "HierarchicalEstimator":
        """Return a new estimator with constrained inference applied.

        Idempotent: a consistent estimator returns itself unchanged, so
        chained calls never re-run (or drift) the inference.  The returned
        estimator starts with every query cache (prefix sums, per-level
        prefix sums, monotone CDF) explicitly invalidated, so batch range
        queries after post-processing can never read stale caches.
        """
        if self._consistent:
            return self
        adjusted = tree_enforce_consistency(
            self._levels, self.branching, root_value=1.0
        )
        estimator = HierarchicalEstimator(
            self._tree,
            adjusted,
            consistent=True,
            level_user_counts=self._level_user_counts,
        )
        estimator.invalidate_cache()
        return estimator

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def estimated_frequencies(self) -> np.ndarray:
        """Leaf-level estimates truncated to the true domain size."""
        return self._levels[-1][: self.domain_size].copy()

    def _level_prefix_sums(self) -> List[np.ndarray]:
        """Cached per-level prefix sums of the node estimates (root first).

        Computed once per estimator; together with the vectorised canonical
        decomposition they let a whole workload be answered with ``O(h)``
        gathers (two contiguous node runs per level per query).
        """
        if self._level_prefix_cache is None:
            self._level_prefix_cache = [
                np.concatenate(([0.0], np.cumsum(values))) for values in self._levels
            ]
        return self._level_prefix_cache

    def invalidate_cache(self) -> None:
        super().invalidate_cache()
        self._level_prefix_cache = None

    def range_query(self, query: RangeLike) -> float:
        """Answer ``[a, b]`` by summing its canonical B-adic decomposition.

        After constrained inference any way of combining nodes gives the
        same answer; before it, the canonical decomposition is the
        minimum-node (and minimum-variance) evaluation.  Thin wrapper over
        :meth:`range_queries_batch` on a one-element workload.
        """
        spec = _as_range(query).validate_for_domain(self.domain_size)
        return float(
            self.range_queries_batch(
                np.asarray([spec.left], np.int64), np.asarray([spec.right], np.int64)
            )[0]
        )

    def range_queries_batch(self, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
        """Vectorised evaluation of many range queries.

        Consistent estimators use the prefix-sum fast path (identical
        answers by the consistency property); inconsistent ones answer the
        whole workload through the closed-form vectorised canonical
        decomposition: at most two contiguous node runs per level per
        query, each summed with one gather into the cached per-level
        prefix sums -- the same node set as
        :meth:`~repro.hierarchy.tree.DomainTree.decompose_range`, summed in
        level order (answers agree up to float-sum reordering, ~1e-15).
        """
        if self._consistent:
            return super().range_queries_batch(lefts, rights)
        lefts, rights = self._validate_query_arrays(lefts, rights)
        if not lefts.size:
            return np.zeros(0)
        answers = np.zeros(lefts.size)
        prefix_by_level = self._level_prefix_sums()
        runs = self._tree.decompose_ranges_batch(lefts, rights)
        for prefix, (left_lo, left_hi, right_lo, right_hi) in zip(prefix_by_level, runs):
            # Empty runs are encoded (0, -1), so each gather contributes
            # exactly 0.0 for queries that select nothing at this level.
            answers += prefix[left_hi + 1] - prefix[left_lo]
            answers += prefix[right_hi + 1] - prefix[right_lo]
        return answers


class HierarchicalClient(DecompositionClient):
    """User-side encoder of HH_B: sample a level, report the ancestor node.

    Under the paper's ``"sample"`` strategy each user reports through the
    oracle of a single tree level; under the ``"split"`` ablation every
    user reports at every level with budget ``epsilon / h``.  Thin
    instantiation of the generic engine on a
    :class:`~repro.core.decomposition.BAdicTreeDecomposition`.
    """


class HierarchicalServer(DecompositionServer):
    """Aggregator of HH_B: one oracle accumulator per tree level.

    The per-level user counts are part of the sufficient statistics (each
    level's oracle debiases against the users that actually reported
    there), so sharded servers can merge exactly even though the level
    sampling is random.  The same property makes epoch windows exact:
    ``finalize`` on a lazily merged window of epoch shards
    (``protocol.estimator_from_state``, used by
    :meth:`repro.engine.Engine.estimator`) debiases each level against
    the window's own per-level counts.
    """


class HierarchicalHistogram(DecomposedRangeQueryProtocol):
    """The HH_B range-query protocol (TreeOUE / TreeHRR / TreeOLH [+CI]).

    Parameters
    ----------
    domain_size:
        Domain size ``D``.
    epsilon:
        Privacy budget.
    branching:
        Tree fan-out ``B`` (paper's analysis favours 4-9; default 4).
    oracle:
        Frequency-oracle handle used at every level (``"oue"``, ``"hrr"``,
        ``"olh"`` or ``"grr"``).
    consistency:
        Apply the Section 4.5 constrained inference (the "CI" variants).
    level_strategy:
        ``"sample"`` (each user reports one level -- the paper's protocol)
        or ``"split"`` (every user reports every level with budget
        ``epsilon / h`` -- the centralized-style ablation).
    level_probabilities:
        Optional non-uniform level sampling distribution over the ``h``
        non-root levels.  Defaults to uniform, the optimum from Lemma 4.4.
    postprocess:
        Explicit post-processing pipeline applied to the per-level
        estimates at assembly time -- a registry string (``"none"``,
        ``"consistency"``, ``"consistency+norm_sub"``, ``"least_squares"``,
        ...) or a :class:`~repro.core.postprocess.PostPipeline`.  When
        given it overrides the ``consistency`` boolean; the default
        (``None``) maps ``consistency=True`` to the equivalent
        ``"consistency"`` pipeline, bit-identical to the legacy behavior.
    """

    def __init__(
        self,
        domain_size: int,
        epsilon: float,
        branching: int = 4,
        oracle: str = "oue",
        consistency: bool = True,
        level_strategy: str = "sample",
        level_probabilities: Optional[Sequence[float]] = None,
        postprocess: PipelineLike = None,
    ) -> None:
        super().__init__(domain_size, epsilon)
        if level_strategy not in LEVEL_STRATEGIES:
            raise ValueError(
                f"level_strategy must be one of {LEVEL_STRATEGIES}, got {level_strategy!r}"
            )
        self._tree = DomainTree(self.domain_size, branching)
        self._oracle_name = oracle.strip().lower()
        # Validate eagerly so bad pipeline strings fail at construction.
        # An explicit pipeline overrides the consistency boolean; the
        # reported flag (and the "CI" name suffix, and the variance bound)
        # then follow what the pipeline actually establishes, so callers
        # never see consistency=True on an estimator that is not.
        if postprocess is not None:
            pipeline = resolve_postprocess(postprocess, TREE)
            self._postprocess_arg = pipeline.spec
            self._consistency = pipeline.tree_consistent()
        else:
            self._postprocess_arg = None
            self._consistency = bool(consistency)
        self._level_strategy = level_strategy
        # Keep the caller's raw argument so spec() can rebuild an identical
        # protocol (re-normalizing resolved values would drift by ulps).
        self._level_probabilities_arg = (
            None
            if level_probabilities is None
            else [float(value) for value in level_probabilities]
        )
        self._level_probabilities = self._resolve_level_probabilities(level_probabilities)
        # e.g. TreeOUECI, TreeHRR -- matches the paper's naming.
        suffix = "CI" if self._consistency else ""
        self.name = f"Tree{self._oracle_name.upper()}{suffix}"

    def _resolve_level_probabilities(
        self, probabilities: Optional[Sequence[float]]
    ) -> np.ndarray:
        height = self._tree.height
        if height == 0:
            raise ValueError("domain of size 1 does not need a hierarchical method")
        if probabilities is None:
            return np.full(height, 1.0 / height)
        probs = np.asarray(probabilities, dtype=np.float64)
        if len(probs) != height or np.any(probs < 0):
            raise ValueError(
                f"level_probabilities must be {height} non-negative values"
            )
        total = probs.sum()
        if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-9):
            if total <= 0:
                raise ValueError("level_probabilities must sum to a positive value")
            probs = probs / total
        return probs

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def tree(self) -> DomainTree:
        """The structural domain tree."""
        return self._tree

    @property
    def branching(self) -> int:
        """Tree fan-out ``B``."""
        return self._tree.branching

    @property
    def oracle_name(self) -> str:
        """Handle of the per-level frequency oracle."""
        return self._oracle_name

    @property
    def consistency(self) -> bool:
        """Whether the assembled estimator is tree-consistent.

        With an explicit ``postprocess`` pipeline this is derived from the
        pipeline (e.g. ``"consistency"`` -> True, ``"none"`` or
        ``"consistency+norm_sub"`` -> False) rather than the constructor
        boolean, so it always describes the estimator actually produced.
        """
        return self._consistency

    @property
    def postprocess(self) -> Optional[str]:
        """Explicit pipeline spelling, or ``None`` (= the consistency flag)."""
        return self._postprocess_arg

    @property
    def level_strategy(self) -> str:
        """``"sample"`` or ``"split"``."""
        return self._level_strategy

    @property
    def level_probabilities(self) -> np.ndarray:
        """Sampling distribution over the non-root levels (root excluded)."""
        return self._level_probabilities.copy()

    def _level_epsilon(self) -> float:
        if self._level_strategy == "split":
            return self.epsilon / self._tree.height
        return self.epsilon

    def _make_level_oracle(self, level: int):
        return make_oracle(
            self._oracle_name, self._tree.level_size(level), self._level_epsilon()
        )

    # ------------------------------------------------------------------ #
    # client / server roles
    # ------------------------------------------------------------------ #
    def _build_decomposition(self) -> BAdicTreeDecomposition:
        return BAdicTreeDecomposition(
            self._tree,
            self._make_level_oracle,
            self._level_probabilities,
            level_strategy=self._level_strategy,
            consistency=self._consistency,
            postprocess=self._postprocess_arg,
        )

    def client(self) -> HierarchicalClient:
        return HierarchicalClient(self)

    def server(self, state: Optional[AccumulatorState] = None) -> HierarchicalServer:
        return HierarchicalServer(self, state)

    def spec(self) -> dict:
        spec = {
            "name": "hh",
            "domain_size": self.domain_size,
            "epsilon": self.epsilon,
            "branching": self.branching,
            "oracle": self._oracle_name,
            "consistency": self._consistency,
            "level_strategy": self._level_strategy,
            "level_probabilities": self._level_probabilities_arg,
        }
        if self._postprocess_arg is not None:
            # Written only when set, so pre-pipeline specs (and the states
            # that embed them) stay byte-identical.
            spec["postprocess"] = self._postprocess_arg
        return spec

    # ------------------------------------------------------------------ #
    # theory
    # ------------------------------------------------------------------ #
    def theoretical_range_variance(self, range_length: int, n_users: int) -> float:
        """Variance bound for a worst-case query of length ``range_length``.

        Uses Theorem 4.3 / Eq. (1) for the sampled, unconstrained protocol
        and the tightened ``(B + 1) / 2`` per-level constant of Section 4.5
        when consistency is enabled.  The budget-splitting ablation pays the
        ``h^2`` factor the paper warns about (each level's oracle runs at
        ``epsilon / h``).
        """
        if range_length < 1 or range_length > self._tree.padded_size:
            raise ValueError(
                f"range_length must be in [1, {self._tree.padded_size}], got {range_length}"
            )
        if n_users <= 0:
            raise ValueError(f"n_users must be positive, got {n_users}")
        b = self.branching
        height = self._tree.height
        levels_touched = math.ceil(math.log(range_length, b)) + 1 if range_length > 1 else 1
        levels_touched = min(levels_touched, height)
        psi = standard_oracle_variance(self._level_epsilon())
        if self._level_strategy == "sample":
            # Uniform sampling: each level sees N / h users in expectation.
            per_level_variance = psi * height / n_users
        else:
            per_level_variance = psi / n_users
        per_level_constant = (b + 1) / 2.0 if self._consistency else (2.0 * b - 1.0)
        return per_level_constant * per_level_variance * levels_touched
