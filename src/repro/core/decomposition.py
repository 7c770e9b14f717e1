"""The unified decomposition core shared by every range-query protocol.

Cormode, Kulkarni and Srivastava frame the flat, hierarchical and
Haar-wavelet protocols as the *same* pipeline: decompose the domain into
levels of coefficients, split the users across the levels, run a frequency
oracle per level, and reassemble the per-level estimates into one
estimator.  This module makes that pipeline a first-class object instead of
four copy-pasted implementations:

* :class:`Decomposition` owns the level structure of one protocol family --
  the level keys, the item -> coefficient mapping per level, the per-level
  oracle factory, and the estimate-assembly (including any consistency
  post-processing).  Concrete decompositions:

  - :class:`IdentityDecomposition` -- the flat baseline: one level holding
    the whole domain (Section 4.2);
  - :class:`BAdicTreeDecomposition` -- the B-ary domain tree of the
    hierarchical histograms (Sections 4.3-4.5), with the paper's
    level-sampling or the budget-splitting ablation;
  - :class:`HaarDecomposition` -- the Haar detail heights of the wavelet
    protocol (Section 4.6), with signed coefficient contributions;
  - :class:`Grid2DDecomposition` -- the per-axis-level pairs of the 2-D
    grid extension (Section 6).

* :class:`DecomposedRangeQueryProtocol` is the protocol base class that
  turns a decomposition into the runtime roles: ``client()`` / ``server()``
  return the generic :class:`~repro.core.session.DecompositionClient` /
  :class:`~repro.core.session.DecompositionServer`, and
  :meth:`DecomposedRangeQueryProtocol.simulate_aggregate` is the one
  aggregate-level simulation every family shares.

Adding a new protocol is therefore a ~50-line :class:`Decomposition`
subclass: streaming clients and servers, mergeable shards, wire
serialization and the CLI ``encode`` / ``aggregate`` / ``merge`` workflow
all come for free.  See ``ARCHITECTURE.md`` for the layer-by-layer tour.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.exceptions import ProtocolUsageError
from repro.core.kernels import multinomial_level_split
from repro.core.postprocess import (
    FREQUENCIES,
    GRID,
    HAAR,
    TREE,
    PipelineLike,
    PostContext,
    resolve_postprocess,
)
from repro.core.protocol import RangeQueryEstimator, RangeQueryProtocol
from repro.core.rng import RngLike, ensure_rng
from repro.core.types import Domain


class Decomposition(abc.ABC):
    """Level structure of one protocol family.

    A decomposition describes *what* each level of a protocol estimates and
    *how* a user's private item contributes to it; the generic
    :class:`~repro.core.session.DecompositionClient` /
    :class:`~repro.core.session.DecompositionServer` handle everything else
    (user -> level assignment, payload transport, accumulator composition,
    merge, serialization) identically for every family.

    The contract:

    * :attr:`levels` enumerates the level keys in reporting order; they are
      also the payload keys of the wire-format
      :class:`~repro.core.session.LevelReport` and the order of the child
      accumulators inside the server's composite state.
    * ``level_user_counts`` bookkeeping is an ``int64`` array of
      :attr:`counts_size` entries; :meth:`counts_slot` maps a level key to
      its entry and :meth:`record_total` optionally stores the total user
      count (the hierarchical family keeps it in slot 0).
    * :meth:`assign_levels` returns the sampled level key per user, or
      ``None`` when every user reports at every level (the flat family and
      the budget-splitting ablation).
    * :meth:`encode_level` maps a level's items to coefficient indices and
      privatizes them through that level's oracle -- the only epsilon-LDP
      step of the pipeline.
    * :meth:`assemble` turns the per-level debiased estimates back into the
      family's estimator, applying any consistency hook.
    * :meth:`prepare_counts` / :meth:`split_counts` / :meth:`simulate_level`
      are the aggregate-simulation counterparts used by
      :meth:`DecomposedRangeQueryProtocol.simulate_aggregate`.
    """

    #: Tag shared by the composite accumulator label and the report codec;
    #: concrete decompositions override ("flat", "hierarchical", ...).
    label: str = "abstract"

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    @property
    @abc.abstractmethod
    def levels(self) -> Sequence[int]:
        """Level keys in reporting order (payload keys, child order)."""

    @property
    @abc.abstractmethod
    def counts_size(self) -> int:
        """Length of the ``level_user_counts`` bookkeeping array."""

    def counts_slot(self, level: int) -> int:
        """Index of ``level`` inside ``level_user_counts``."""
        return int(level)

    def record_total(self, level_user_counts: np.ndarray, n_users: int) -> None:
        """Store the total user count, for families that track it (no-op)."""

    @abc.abstractmethod
    def validate_items(self, items: np.ndarray) -> np.ndarray:
        """Validate and coerce one batch of private items."""

    # ------------------------------------------------------------------ #
    # user -> level assignment and per-level encoding
    # ------------------------------------------------------------------ #
    def assign_levels(
        self, items: np.ndarray, rng: np.random.Generator
    ) -> Optional[np.ndarray]:
        """Sampled level key per user; ``None`` = every user, every level."""
        return None

    @abc.abstractmethod
    def make_level_oracle(self, level: int):
        """A fresh frequency oracle for one level's coefficient domain."""

    @abc.abstractmethod
    def encode_level(
        self, items: np.ndarray, level: int, oracle: Any, rng: np.random.Generator
    ) -> Any:
        """Map items to level coefficients and privatize them."""

    # ------------------------------------------------------------------ #
    # estimate assembly
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def assemble(
        self,
        level_estimates: Dict[int, np.ndarray],
        level_user_counts: np.ndarray,
        n_users: int,
    ):
        """Build the family's estimator from per-level debiased estimates.

        ``level_estimates`` holds one entry per level that received at
        least one report; levels with no users are absent and the assembly
        substitutes its family's zero estimate.  Consistency hooks
        (constrained inference for the hierarchical family) run here.
        """

    # ------------------------------------------------------------------ #
    # aggregate simulation hooks
    # ------------------------------------------------------------------ #
    def prepare_counts(self, counts: np.ndarray) -> np.ndarray:
        """Family-specific preprocessing of a validated true histogram."""
        return counts

    def split_counts(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> Optional[List[np.ndarray]]:
        """Per-level item counts; ``None`` = every level sees all counts."""
        return None

    def simulate_level(
        self,
        item_counts: np.ndarray,
        level: int,
        oracle: Any,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Sample one level's debiased estimate straight from a histogram."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support aggregate simulation"
        )


# --------------------------------------------------------------------- #
# concrete decompositions
# --------------------------------------------------------------------- #
class IdentityDecomposition(Decomposition):
    """The flat baseline: a single level holding the whole domain.

    Every user reports her item through one frequency oracle over the full
    domain; a range query is answered by summing the per-item estimates
    (Section 4.2 of the paper).
    """

    label = "flat"

    def __init__(
        self, domain: Domain, oracle_factory, postprocess: PipelineLike = None
    ) -> None:
        self._domain = domain
        self._oracle_factory = oracle_factory
        self._pipeline = resolve_postprocess(postprocess, FREQUENCIES)

    @property
    def levels(self) -> Sequence[int]:
        return (0,)

    @property
    def counts_size(self) -> int:
        return 1

    def counts_slot(self, level: int) -> int:
        return 0

    def validate_items(self, items: np.ndarray) -> np.ndarray:
        return self._domain.validate_items(items)

    def make_level_oracle(self, level: int):
        return self._oracle_factory()

    def encode_level(self, items, level, oracle, rng):
        return oracle.privatize(items, rng=rng)

    def assemble(self, level_estimates, level_user_counts, n_users):
        from repro.flat.flat import FlatEstimator

        frequencies = level_estimates[0]
        if self._pipeline:
            frequencies = self._pipeline.apply(
                frequencies, PostContext(kind=FREQUENCIES, n_users=n_users)
            )
        return FlatEstimator(self._domain, frequencies)

    def simulate_level(self, item_counts, level, oracle, rng):
        return oracle.estimate_from_counts(item_counts, rng=rng)


class BAdicTreeDecomposition(Decomposition):
    """The B-ary domain tree of the hierarchical histograms.

    Level ``l`` (1 = children of the root) estimates the fraction of the
    population under each of the ``B^l`` nodes; a user contributes the
    one-hot vector of her ancestor node.  Under the paper's ``"sample"``
    strategy each user reports a single sampled level; under the
    ``"split"`` ablation every user reports every level (the per-level
    oracles then run at ``epsilon / h``, which the oracle factory already
    accounts for).
    """

    label = "hierarchical"

    def __init__(
        self,
        tree,
        oracle_factory,
        level_probabilities: np.ndarray,
        level_strategy: str = "sample",
        consistency: bool = False,
        postprocess: PipelineLike = None,
    ) -> None:
        self._tree = tree
        self._domain = Domain(tree.domain_size)
        self._oracle_factory = oracle_factory
        self._level_probabilities = np.asarray(level_probabilities, dtype=np.float64)
        self._level_strategy = level_strategy
        self._consistency = bool(consistency)
        if postprocess is None:
            # The legacy boolean maps onto the equivalent pipeline, keeping
            # consistency=True bit-identical to the pre-pipeline outputs.
            postprocess = "consistency" if self._consistency else "none"
        self._pipeline = resolve_postprocess(postprocess, TREE)

    @property
    def tree(self):
        """The structural domain tree."""
        return self._tree

    @property
    def levels(self) -> Sequence[int]:
        return range(1, self._tree.height + 1)

    @property
    def counts_size(self) -> int:
        return self._tree.num_levels

    def record_total(self, level_user_counts: np.ndarray, n_users: int) -> None:
        level_user_counts[0] = n_users

    def validate_items(self, items: np.ndarray) -> np.ndarray:
        return self._domain.validate_items(items)

    def assign_levels(self, items, rng):
        if self._level_strategy != "sample":
            return None
        height = self._tree.height
        return rng.choice(
            np.arange(1, height + 1), size=len(items), p=self._level_probabilities
        )

    def make_level_oracle(self, level: int):
        return self._oracle_factory(level)

    def encode_level(self, items, level, oracle, rng):
        node_items = self._tree.ancestor_index(items, level)
        return oracle.privatize(node_items, rng=rng)

    def assemble(self, level_estimates, level_user_counts, n_users):
        from repro.hierarchy.hh import HierarchicalEstimator

        level_values = self._tree.empty_levels()
        level_values[0][:] = 1.0
        for level, estimates in level_estimates.items():
            level_values[level] = estimates
        if self._pipeline:
            context = PostContext(
                kind=TREE,
                n_users=n_users,
                level_user_counts=level_user_counts,
                branching=self._tree.branching,
                tree=self._tree,
            )
            level_values = self._pipeline.apply(level_values, context)
        return HierarchicalEstimator(
            self._tree,
            level_values,
            consistent=self._pipeline.tree_consistent(),
            level_user_counts=level_user_counts,
        )

    def prepare_counts(self, counts: np.ndarray) -> np.ndarray:
        return np.rint(counts).astype(np.int64)

    def split_counts(self, counts, rng):
        if self._level_strategy != "sample":
            return None
        return multinomial_level_split(counts, self._level_probabilities, rng)

    def simulate_level(self, item_counts, level, oracle, rng):
        node_counts = self._tree.level_histogram(item_counts, level)
        return oracle.estimate_from_counts(node_counts, rng=rng)


class HaarDecomposition(Decomposition):
    """The Haar detail heights of the wavelet protocol.

    Height ``j`` (1 = finest) estimates the signed node fractions feeding
    the Haar detail coefficients: a user contributes ``+1`` if her item
    falls in the left half of its ancestor node's interval and ``-1``
    otherwise, privatized with Hadamard Randomized Response.  The smooth
    coefficient is pinned analytically (fractions sum to one), so the
    assembly is consistent by construction -- no post-processing hook.
    """

    label = "haar"

    def __init__(
        self,
        domain: Domain,
        padded_size: int,
        height: int,
        oracle_factory,
        level_probabilities: np.ndarray,
        smooth_coefficient: float,
        postprocess: PipelineLike = None,
        epsilon: Optional[float] = None,
    ) -> None:
        self._domain = domain
        self._padded = int(padded_size)
        self._height = int(height)
        self._oracle_factory = oracle_factory
        self._level_probabilities = np.asarray(level_probabilities, dtype=np.float64)
        self._smooth = float(smooth_coefficient)
        self._pipeline = resolve_postprocess(postprocess, HAAR)
        # Known only when provided by the owning protocol; used to derive
        # the per-height noise floors of the haar_threshold processor.
        self._epsilon = None if epsilon is None else float(epsilon)

    @property
    def levels(self) -> Sequence[int]:
        return range(1, self._height + 1)

    @property
    def counts_size(self) -> int:
        # Index 0 is unused, matching the protocol's diagnostics convention.
        return self._height + 1

    def validate_items(self, items: np.ndarray) -> np.ndarray:
        return self._domain.validate_items(items)

    def assign_levels(self, items, rng):
        return rng.choice(
            np.arange(1, self._height + 1),
            size=len(items),
            p=self._level_probabilities,
        )

    def make_level_oracle(self, level: int):
        return self._oracle_factory(level)

    def encode_level(self, items, level, oracle, rng):
        from repro.wavelet.haar import leaf_membership

        nodes, signs = leaf_membership(items, level)
        return oracle.privatize_signed(nodes, signs, rng=rng)

    def assemble(self, level_estimates, level_user_counts, n_users):
        from repro.wavelet.haar import HaarCoefficients
        from repro.wavelet.haar_hrr import HaarEstimator

        details: List[np.ndarray] = []
        for height_j in self.levels:
            num_nodes = self._padded // (2**height_j)
            signed_fractions = level_estimates.get(height_j)
            if signed_fractions is None:
                details.append(np.zeros(num_nodes))
            else:
                details.append(signed_fractions / (2.0 ** (height_j / 2.0)))
        coefficients = HaarCoefficients(smooth=self._smooth, details=details)
        if self._pipeline:
            context = PostContext(
                kind=HAAR,
                n_users=n_users,
                level_user_counts=level_user_counts,
                noise_variances=self._noise_variances(level_user_counts),
            )
            coefficients = self._pipeline.apply(coefficients, context)
        return HaarEstimator(
            self._domain.size, self._padded, coefficients, level_user_counts
        )

    def _noise_variances(
        self, level_user_counts: np.ndarray
    ) -> Optional[Dict[int, float]]:
        """Estimation variance of one detail coefficient per height.

        The debiased signed fraction at height ``j`` carries the standard
        oracle variance over the ``n_j`` users sampled there; dividing by
        ``2^{j/2}`` to obtain the coefficient scales the variance by
        ``2^{-j}``.  ``None`` when the owning protocol did not share its
        epsilon (direct decomposition constructions).
        """
        if self._epsilon is None:
            return None
        from repro.frequency_oracles.base import standard_oracle_variance

        psi = standard_oracle_variance(self._epsilon)
        variances: Dict[int, float] = {}
        for height_j in self.levels:
            n_level = int(level_user_counts[height_j])
            if n_level <= 0:
                variances[height_j] = float("inf")
            else:
                variances[height_j] = psi / n_level / (2.0**height_j)
        return variances

    def prepare_counts(self, counts: np.ndarray) -> np.ndarray:
        counts = np.rint(counts).astype(np.int64)
        padded_counts = np.zeros(self._padded, dtype=np.int64)
        padded_counts[: self._domain.size] = counts
        return padded_counts

    def split_counts(self, counts, rng):
        return multinomial_level_split(counts, self._level_probabilities, rng)

    def simulate_level(self, item_counts, level, oracle, rng):
        span = 2**level
        half = span // 2
        num_nodes = self._padded // span
        reshaped = item_counts.reshape(num_nodes, span)
        positive = reshaped[:, :half].sum(axis=1)
        negative = reshaped[:, half:].sum(axis=1)
        return oracle.estimate_from_signed_counts(positive, negative, rng=rng)


class Grid2DDecomposition(Decomposition):
    """Per-axis-level pairs of the 2-D hierarchical grid (Section 6).

    Each level key indexes a pair ``(level_x, level_y)`` of per-axis tree
    levels; a user holding ``(x, y)`` contributes the one-hot vector over
    the grid of node pairs at those levels.  Items are ``(N, 2)`` arrays of
    coordinate pairs rather than scalars -- the only family whose
    coefficient mapping consumes more than one column.
    """

    label = "grid2d"

    def __init__(
        self,
        tree_x,
        tree_y,
        epsilon: float,
        oracle_name: str,
        postprocess: PipelineLike = None,
    ) -> None:
        self._tree_x = tree_x
        self._tree_y = tree_y
        self._domain_x = Domain(tree_x.domain_size)
        self._domain_y = Domain(tree_y.domain_size)
        self._epsilon = float(epsilon)
        self._oracle_name = oracle_name
        self._pipeline = resolve_postprocess(postprocess, GRID)
        self._pairs = [
            (level_x, level_y)
            for level_x in range(1, tree_x.height + 1)
            for level_y in range(1, tree_y.height + 1)
        ]

    @property
    def level_pairs(self) -> List[tuple]:
        """The ``(level_x, level_y)`` pair behind each level key."""
        return list(self._pairs)

    @property
    def levels(self) -> Sequence[int]:
        return range(len(self._pairs))

    @property
    def counts_size(self) -> int:
        return len(self._pairs)

    def validate_items(self, items: np.ndarray) -> np.ndarray:
        items = np.asarray(items)
        if items.size == 0:
            return np.zeros((0, 2), dtype=np.int64)
        if items.ndim != 2 or items.shape[1] != 2:
            raise ProtocolUsageError(
                f"grid items must be an (N, 2) array of (x, y) pairs, "
                f"got shape {items.shape}"
            )
        return np.stack(
            [
                self._domain_x.validate_items(items[:, 0]),
                self._domain_y.validate_items(items[:, 1]),
            ],
            axis=1,
        )

    def assign_levels(self, items, rng):
        return rng.integers(0, len(self._pairs), size=len(items))

    def make_level_oracle(self, level: int):
        from repro.frequency_oracles import make_oracle

        level_x, level_y = self._pairs[level]
        num_cells = self._tree_x.level_size(level_x) * self._tree_y.level_size(level_y)
        return make_oracle(self._oracle_name, num_cells, self._epsilon)

    def encode_level(self, items, level, oracle, rng):
        level_x, level_y = self._pairs[level]
        nodes_y_count = self._tree_y.level_size(level_y)
        node_x = self._tree_x.ancestor_index(items[:, 0], level_x)
        node_y = self._tree_y.ancestor_index(items[:, 1], level_y)
        return oracle.privatize(node_x * nodes_y_count + node_y, rng=rng)

    def assemble(self, level_estimates, level_user_counts, n_users):
        from repro.multidim.grid import Grid2DEstimator

        grids: Dict[tuple, np.ndarray] = {}
        for key, (level_x, level_y) in enumerate(self._pairs):
            shape = (
                self._tree_x.level_size(level_x),
                self._tree_y.level_size(level_y),
            )
            estimates = level_estimates.get(key)
            if estimates is None:
                grids[(level_x, level_y)] = np.zeros(shape)
            else:
                grids[(level_x, level_y)] = estimates.reshape(shape)
        if self._pipeline:
            grids = self._pipeline.apply(
                grids, PostContext(kind=GRID, n_users=n_users)
            )
        return Grid2DEstimator(self._tree_x, self._tree_y, grids)


# --------------------------------------------------------------------- #
# the protocol base classes built on a decomposition
# --------------------------------------------------------------------- #
class DecompositionRoles(abc.ABC):
    """Cached decomposition plus the generic runtime-role factories.

    The one implementation of ``decomposition()`` / ``client()`` /
    ``server()`` shared by every protocol that runs on the engine --
    1-D range protocols inherit it through
    :class:`DecomposedRangeQueryProtocol`, and protocols outside the
    :class:`~repro.core.protocol.RangeQueryProtocol` interface (the 2-D
    grid) mix it in directly.
    """

    @abc.abstractmethod
    def _build_decomposition(self) -> Decomposition:
        """Construct this configuration's decomposition (built once)."""

    def decomposition(self) -> Decomposition:
        """The cached :class:`Decomposition` of this configuration."""
        cached = getattr(self, "_decomposition_cache", None)
        if cached is None:
            cached = self._build_decomposition()
            self._decomposition_cache = cached
        return cached

    def client(self):
        from repro.core.session import DecompositionClient

        return DecompositionClient(self)

    def server(self, state=None):
        from repro.core.session import DecompositionServer

        return DecompositionServer(self, state)

    def estimator_from_state(self, state):
        """Finalize an estimator straight from an accumulator state.

        ``state`` is any :class:`~repro.core.session.CompositeAccumulator`
        of this configuration -- a single server's live state, a snapshot,
        or a lazily merged window of epoch shards (see
        :meth:`repro.engine.Engine.estimator`).  The state is adopted
        without copying, so callers merging windows should pass a merged
        *copy* rather than a live epoch shard.
        """
        return self.server(state=state).finalize()

    def engine(self):
        """A fresh single-protocol :class:`repro.engine.Engine` façade."""
        from repro.engine import Engine

        return Engine.open(self)


class DecomposedRangeQueryProtocol(DecompositionRoles, RangeQueryProtocol):
    """A range-query protocol whose runtime roles are decomposition-generic.

    Subclasses implement :meth:`_build_decomposition` (plus ``spec()`` and
    the theory hooks) and inherit streaming clients/servers, exact shard
    merging, wire serialization and the aggregate-simulation driver.
    """

    def simulate_aggregate(
        self, true_counts: np.ndarray, rng: RngLike = None
    ) -> RangeQueryEstimator:
        """One aggregate-simulation driver for every decomposition.

        Validates the histogram, lets the decomposition preprocess it and
        split it across levels (Binomial sampling mirrors the per-user
        level sampling exactly), samples each level's debiased estimate
        directly from its level histogram, and assembles -- statistically
        equivalent to :meth:`run` at a fraction of the cost, the same
        device the paper uses for its large-scale OUE experiments.
        """
        rng = ensure_rng(rng)
        counts = np.asarray(true_counts, dtype=np.float64)
        if counts.ndim != 1 or len(counts) != self.domain_size:
            raise ValueError(
                f"true_counts must have length {self.domain_size}, got {counts.shape}"
            )
        if counts.sum() <= 0:
            raise ProtocolUsageError("cannot simulate the protocol with zero users")
        decomposition = self.decomposition()
        counts = decomposition.prepare_counts(counts)
        total = int(counts.sum())
        level_user_counts = np.zeros(decomposition.counts_size, dtype=np.int64)
        decomposition.record_total(level_user_counts, total)
        per_level = decomposition.split_counts(counts, rng)
        level_estimates: Dict[int, np.ndarray] = {}
        for index, level in enumerate(decomposition.levels):
            item_counts = counts if per_level is None else per_level[index]
            n_level = int(item_counts.sum())
            level_user_counts[decomposition.counts_slot(level)] = n_level
            if per_level is not None and n_level == 0:
                continue
            oracle = decomposition.make_level_oracle(level)
            level_estimates[level] = decomposition.simulate_level(
                item_counts, level, oracle, rng
            )
        return decomposition.assemble(level_estimates, level_user_counts, total)
