"""The pluggable post-processing subsystem shared by every estimator family.

Section 4.5 of the paper treats consistency enforcement as a first-class
accuracy lever: the noisy, unbiased estimates coming out of the frequency
oracles are *post-processed* -- a step that touches only already-privatized
data and is therefore free under LDP -- into estimates that respect the
structure the truth is known to have (non-negativity, summing to one,
parent = sum-of-children, monotone CDFs, agreeing grid marginals).

Historically that lever existed only for the hierarchical family (a
``consistency`` boolean buried in ``repro.hierarchy``); this module makes it
a uniform, composable layer for *every* decomposition family:

* :class:`PostProcessor` is the unit of post-processing: a vectorised,
  O(D * h) array kernel over one family's assembled estimates.  Each
  processor declares the estimate ``kinds`` it understands --
  ``"frequencies"`` (flat), ``"tree"`` (hierarchical level values),
  ``"haar"`` (wavelet coefficients) or ``"grid"`` (2-D level-pair grids).
* :class:`PostPipeline` composes processors in order.  Pipelines are named
  by ``"+"``-joined registry tokens (``"consistency+norm_sub"``), resolve
  through :func:`make_pipeline`, and round-trip through every protocol's
  ``spec()`` -- hence through serialization envelopes, ``Engine.open`` and
  the CLI's ``--postprocess`` flag.
* The concrete processors:

  - :class:`NonNegativeClip` -- clamp negative estimates to zero;
  - :class:`NormSub` -- Euclidean projection onto the probability simplex
    (non-negative, summing to one; the "Norm-Sub" of the LDP consistency
    literature);
  - :class:`MonotoneCdf` -- monotonize-and-clip the implied CDF (the
    clean-up previously inlined in :mod:`repro.queries.prefix`);
  - :class:`TreeWeightedAveraging` / :class:`TreeMeanConsistency` -- the
    two stages of Hay-style constrained inference (Section 4.5), over the
    array kernels :func:`tree_weighted_averaging` and
    :func:`tree_mean_consistency`;
  - :class:`TreeLeastSquares` -- the explicit small-domain least-squares
    solution of Lemma 4.6 behind the same interface;
  - :class:`HaarCoefficientThreshold` -- zero Haar detail coefficients
    below their noise floor before inversion;
  - :class:`GridMarginalConsistency` -- reconcile every 2-D level-pair
    grid against shared per-axis 1-D marginals.

The default pipeline of every family is ``"none"`` (the hierarchical
``consistency=True`` maps to ``"consistency"``), pinned bit-identical to
the pre-pipeline outputs by the golden decomposition tests.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.exceptions import ProtocolUsageError

#: Estimate kinds a processor may declare support for.
FREQUENCIES = "frequencies"
TREE = "tree"
HAAR = "haar"
GRID = "grid"

ESTIMATE_KINDS = (FREQUENCIES, TREE, HAAR, GRID)


@dataclass
class PostContext:
    """Family context handed to every processor alongside the estimates.

    ``kind`` names the estimate shape (one of :data:`ESTIMATE_KINDS`);
    the remaining fields are filled in by the owning decomposition where
    they make sense: ``branching``/``tree`` for the hierarchical family,
    ``noise_variances`` (per detail height) for the wavelet family.
    """

    kind: str
    n_users: int = 0
    level_user_counts: Optional[np.ndarray] = None
    branching: Optional[int] = None
    tree: Any = None
    noise_variances: Optional[Dict[int, float]] = None


# --------------------------------------------------------------------- #
# shared array kernels
# --------------------------------------------------------------------- #
def _validate_tree_levels(level_values: Sequence[np.ndarray], branching: int) -> List[np.ndarray]:
    if branching < 2:
        raise ValueError(f"branching factor must be >= 2, got {branching}")
    levels = [np.array(values, dtype=np.float64, copy=True) for values in level_values]
    if not levels:
        raise ValueError("level_values must contain at least the root level")
    for depth, values in enumerate(levels):
        expected = branching**depth
        if len(values) != expected:
            raise ValueError(f"level {depth} must have {expected} nodes, got {len(values)}")
    return levels


def tree_weighted_averaging(level_values: Sequence[np.ndarray], branching: int) -> List[np.ndarray]:
    """Stage 1 of constrained inference: bottom-up weighted averaging.

    Each internal node at paper-height ``i`` (leaves have ``i = 1``)
    becomes ``(B^i - B^(i-1)) / (B^i - 1) * f(v) + (B^(i-1) - 1) /
    (B^i - 1) * sum_children f_bar(u)``.  ``level_values[0]`` is the
    root, ``level_values[-1]`` the leaves.  Returns a new list; the input
    is not modified.
    """
    levels = _validate_tree_levels(level_values, branching)
    height = len(levels) - 1
    b = float(branching)
    # Walk from the last internal level up to the root.  A node at level
    # ``depth`` has paper-height i = height - depth + 1 (leaves have i = 1).
    for depth in range(height - 1, -1, -1):
        i = height - depth + 1
        child_sums = levels[depth + 1].reshape(-1, branching).sum(axis=1)
        numerator_self = b**i - b ** (i - 1)
        numerator_children = b ** (i - 1) - 1.0
        denominator = b**i - 1.0
        # In-place update (the levels are private copies): one temporary
        # instead of three per level.
        values = levels[depth]
        values *= numerator_self
        child_sums *= numerator_children
        values += child_sums
        values /= denominator
    return levels


def tree_mean_consistency(
    level_values: Sequence[np.ndarray],
    branching: int,
    root_value: Optional[float] = None,
) -> List[np.ndarray]:
    """Stage 2 of constrained inference: top-down residual redistribution.

    Each parent's residual against the sum of its children is split
    equally among them.  If ``root_value`` is given the root is pinned to
    that value first (the hierarchical-histogram protocol passes ``1.0``
    because fractions over the whole population must sum to one).
    """
    levels = _validate_tree_levels(level_values, branching)
    if root_value is not None:
        levels[0] = np.array([float(root_value)])
    height = len(levels) - 1
    for depth in range(1, height + 1):
        child_sums = levels[depth].reshape(-1, branching).sum(axis=1)
        residual = (levels[depth - 1] - child_sums) / branching
        # Broadcast the per-parent residual onto the children in place.
        levels[depth].reshape(-1, branching)[...] += residual[:, None]
    return levels


def tree_enforce_consistency(
    level_values: Sequence[np.ndarray],
    branching: int,
    root_value: Optional[float] = 1.0,
) -> List[np.ndarray]:
    """Full two-stage constrained inference (Stage 1 then Stage 2).

    The result is the best linear unbiased estimator subject to the tree
    constraints (Lemma 4.6).
    """
    averaged = tree_weighted_averaging(level_values, branching)
    return tree_mean_consistency(averaged, branching, root_value=root_value)


def consistency_violation(level_values: Sequence[np.ndarray], branching: int) -> float:
    """Maximum absolute violation of the parent = sum(children) constraint.

    A sanity check after post-processing: it should be at floating-point
    noise level.
    """
    levels = _validate_tree_levels(level_values, branching)
    worst = 0.0
    for depth in range(len(levels) - 1):
        child_sums = levels[depth + 1].reshape(-1, branching).sum(axis=1)
        worst = max(worst, float(np.max(np.abs(levels[depth] - child_sums))))
    return worst


def variance_reduction_factor(branching: int) -> float:
    """Lemma 4.6 lower bound on the variance reduction: ``B / (B + 1)``."""
    if branching < 2:
        raise ValueError(f"branching factor must be >= 2, got {branching}")
    return branching / (branching + 1.0)


def monotone_cdf_array(cdf: np.ndarray, clip: bool = True) -> np.ndarray:
    """Monotone non-decreasing version of a (noisy) CDF array.

    ``clip=True`` additionally clamps the result into ``[0, 1]``.  This is
    the one implementation behind :func:`repro.queries.prefix.monotone_cdf`
    and the :class:`MonotoneCdf` processor.
    """
    cdf = np.maximum.accumulate(np.asarray(cdf, dtype=np.float64))
    if clip:
        return np.clip(cdf, 0.0, 1.0)
    return cdf


def project_onto_simplex(values: np.ndarray, total: float = 1.0) -> np.ndarray:
    """Euclidean projection of a vector onto the simplex ``{x >= 0, sum = total}``.

    The standard O(D log D) sort-based algorithm: subtract the constant
    that makes the positive part sum to ``total`` and clamp at zero
    ("Norm-Sub").  Projection onto a convex set containing the true
    frequency vector can only reduce the L2 distance to the truth.
    """
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    if flat.size == 0:
        return flat.copy()
    sorted_desc = np.sort(flat)[::-1]
    cumulative = np.cumsum(sorted_desc)
    positions = np.arange(1, flat.size + 1)
    # The support of the projection is the longest prefix (in sorted
    # order) whose entries stay positive after the uniform subtraction.
    support = np.count_nonzero(sorted_desc + (total - cumulative) / positions > 0)
    theta = (cumulative[support - 1] - total) / support
    return np.maximum(flat - theta, 0.0)


# --------------------------------------------------------------------- #
# the processor interface
# --------------------------------------------------------------------- #
class PostProcessor(abc.ABC):
    """One vectorised post-processing step over assembled estimates.

    A processor receives the family-shaped estimates (see
    :data:`ESTIMATE_KINDS`) plus a :class:`PostContext` and returns new
    estimates of the same shape; inputs are never mutated.  Processors are
    stateless and cheap to construct, so registry tokens map to factories.
    """

    #: Registry token of this processor (also its ``spec`` spelling).
    name: ClassVar[str] = "abstract"

    #: Estimate kinds this processor can post-process.
    kinds: ClassVar[Tuple[str, ...]] = ()

    #: Effect on the hierarchical parent = sum(children) invariant:
    #: ``True`` establishes it, ``False`` may break it, ``None`` preserves
    #: whatever held before.  Folded by :meth:`PostPipeline.tree_consistent`.
    tree_consistency_effect: ClassVar[Optional[bool]] = None

    def supports(self, kind: str) -> bool:
        """Whether this processor understands ``kind`` estimates."""
        return kind in self.kinds

    def spec_token(self) -> str:
        """Registry spelling that rebuilds this exact processor.

        Parameterized processors override this to append their non-default
        parameters as a ``:`` suffix (``"haar_threshold:3.5"``) so that
        ``protocol.spec()`` round-trips remain faithful.
        """
        return self.name

    @abc.abstractmethod
    def apply(self, values: Any, context: PostContext) -> Any:
        """Return post-processed estimates (same shape as ``values``)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class NonNegativeClip(PostProcessor):
    """Clamp negative estimates to zero.

    True frequencies are non-negative, so clipping is a projection onto a
    convex set containing the truth -- it never increases per-item error.
    """

    name = "clip"
    kinds = (FREQUENCIES, TREE, GRID)
    tree_consistency_effect = False

    def apply(self, values, context):
        if context.kind == TREE:
            return [np.maximum(level, 0.0) for level in values]
        if context.kind == GRID:
            return {pair: np.maximum(grid, 0.0) for pair, grid in values.items()}
        return np.maximum(np.asarray(values, dtype=np.float64), 0.0)


class NormSub(PostProcessor):
    """Project estimates onto the probability simplex (Norm-Sub).

    Frequencies become non-negative and sum to exactly one.  For the
    hierarchical family every non-root level (a distribution over that
    level's nodes) is projected independently; for the 2-D grid every
    level-pair grid is projected as a distribution over its cells.
    """

    name = "norm_sub"
    kinds = (FREQUENCIES, TREE, GRID)
    tree_consistency_effect = False

    def apply(self, values, context):
        if context.kind == TREE:
            projected = [np.array(values[0], dtype=np.float64, copy=True)]
            projected.extend(project_onto_simplex(level) for level in values[1:])
            return projected
        if context.kind == GRID:
            return {
                pair: project_onto_simplex(grid).reshape(grid.shape)
                for pair, grid in values.items()
            }
        return project_onto_simplex(values)


class MonotoneCdf(PostProcessor):
    """Clean frequencies through their CDF: monotonize, clip to [0, 1], diff.

    Equivalent to isotonic clean-up of the prefix masses -- the step the
    quantile search has always applied internally -- surfaced as an
    explicit pipeline stage.  The resulting frequencies are non-negative
    and sum to at most one.
    """

    name = "monotone_cdf"
    kinds = (FREQUENCIES,)

    @staticmethod
    def monotonize(cdf: np.ndarray, clip: bool = True) -> np.ndarray:
        """Monotone (and optionally clipped) version of a CDF array."""
        return monotone_cdf_array(cdf, clip=clip)

    def apply(self, values, context):
        cdf = monotone_cdf_array(np.cumsum(np.asarray(values, dtype=np.float64)))
        return np.diff(cdf, prepend=0.0)


class TreeWeightedAveraging(PostProcessor):
    """Stage 1 of Hay-style constrained inference (bottom-up averaging)."""

    name = "weighted_averaging"
    kinds = (TREE,)
    tree_consistency_effect = False

    def apply(self, values, context):
        if context.branching is None:
            raise ProtocolUsageError(
                "weighted_averaging needs the tree branching factor in its context"
            )
        return tree_weighted_averaging(values, context.branching)


class TreeMeanConsistency(PostProcessor):
    """Stage 2 of Hay-style constrained inference (top-down residuals).

    Pins the root to ``root_value`` first (1.0 by default: fractions of
    the whole population sum to one) and redistributes parent/children
    residuals so every parent equals the sum of its children.
    """

    name = "mean_consistency"
    kinds = (TREE,)
    tree_consistency_effect = True

    def __init__(self, root_value: Optional[float] = 1.0) -> None:
        self.root_value = root_value

    def spec_token(self) -> str:
        if self.root_value == 1.0:
            return self.name
        if self.root_value is None:
            return f"{self.name}:none"
        return f"{self.name}:{self.root_value!r}"

    def apply(self, values, context):
        if context.branching is None:
            raise ProtocolUsageError(
                "mean_consistency needs the tree branching factor in its context"
            )
        return tree_mean_consistency(values, context.branching, root_value=self.root_value)


class TreeLeastSquares(PostProcessor):
    """Explicit least-squares constrained inference (Lemma 4.6).

    Solves ``(H^T H)^{-1} H^T x`` over the materialised node-by-leaf
    design matrix -- exact, but only practical for small domains; the
    two-stage ``"consistency"`` pipeline computes the same solution in
    linear time.
    """

    name = "least_squares"
    kinds = (TREE,)
    tree_consistency_effect = True

    def apply(self, values, context):
        if context.tree is None:
            raise ProtocolUsageError("least_squares needs the domain tree in its context")
        from repro.hierarchy.least_squares import least_squares_levels

        return least_squares_levels(context.tree, values)


class HaarCoefficientThreshold(PostProcessor):
    """Zero Haar detail coefficients below their noise floor.

    A detail coefficient whose magnitude is within ``multiplier`` standard
    deviations of its estimation noise carries more noise than signal;
    hard-thresholding it to zero before inversion denoises the
    reconstruction (classic wavelet shrinkage, valid post-processing under
    LDP).  The per-height noise variances come from the decomposition's
    context (oracle variance over the users sampled at that height).
    """

    name = "haar_threshold"
    kinds = (HAAR,)

    def __init__(self, multiplier: float = 2.0) -> None:
        if multiplier <= 0:
            raise ValueError(f"multiplier must be positive, got {multiplier}")
        self.multiplier = float(multiplier)

    def spec_token(self) -> str:
        if self.multiplier == 2.0:
            return self.name
        return f"{self.name}:{self.multiplier!r}"

    def apply(self, values, context):
        if context.noise_variances is None:
            raise ProtocolUsageError(
                "haar_threshold needs per-height noise variances in its context "
                "(the HaarDecomposition provides them when built with epsilon)"
            )
        coefficients = values.copy()
        for height_j, detail in enumerate(coefficients.details, start=1):
            variance = context.noise_variances.get(height_j)
            if variance is None or not np.isfinite(variance):
                continue
            threshold = self.multiplier * float(np.sqrt(variance))
            detail[np.abs(detail) < threshold] = 0.0
        return coefficients


class GridMarginalConsistency(PostProcessor):
    """Reconcile every 2-D level-pair grid against shared 1-D marginals.

    All grids sharing an x-level estimate the same per-axis node
    distribution through their row sums (and symmetrically for y-levels
    through column sums).  One pass per axis averages those estimates into
    a consensus marginal and redistributes each grid's residual uniformly
    across the opposing axis -- the 2-D analogue of mean consistency.
    """

    name = "grid_consistency"
    kinds = (GRID,)

    def apply(self, values, context):
        grids = {pair: np.array(grid, dtype=np.float64, copy=True) for pair, grid in values.items()}
        for axis in (0, 1):
            shared_levels = sorted({pair[axis] for pair in grids})
            for level in shared_levels:
                members = [pair for pair in grids if pair[axis] == level]
                # axis=0 shares x-levels: the marginal is the row sums
                # (summed over axis 1), and residuals spread over columns.
                marginals = [grids[pair].sum(axis=1 - axis) for pair in members]
                consensus = np.mean(marginals, axis=0)
                for pair, marginal in zip(members, marginals):
                    grid = grids[pair]
                    residual = (consensus - marginal) / grid.shape[1 - axis]
                    if axis == 0:
                        grid += residual[:, None]
                    else:
                        grid += residual[None, :]
        return grids


# --------------------------------------------------------------------- #
# pipelines and the string registry
# --------------------------------------------------------------------- #
class PostPipeline:
    """An ordered composition of :class:`PostProcessor` steps.

    Pipelines are immutable, truthy only when non-empty, and apply their
    processors in order.  :attr:`spec` is the ``"+"``-joined registry
    spelling used by ``protocol.spec()`` round-trips.
    """

    def __init__(self, processors: Sequence[PostProcessor], spec: Optional[str] = None) -> None:
        self._processors: Tuple[PostProcessor, ...] = tuple(processors)
        if spec is None:
            spec = "+".join(processor.spec_token() for processor in self._processors)
        self._spec = spec or "none"

    @property
    def processors(self) -> Tuple[PostProcessor, ...]:
        """The composed processors, in application order."""
        return self._processors

    @property
    def spec(self) -> str:
        """Registry spelling of this pipeline (``"none"`` when empty)."""
        return self._spec

    def __bool__(self) -> bool:
        return bool(self._processors)

    def __len__(self) -> int:
        return len(self._processors)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PostPipeline({self._spec!r})"

    def validate_for(self, kind: str) -> "PostPipeline":
        """Check every processor understands ``kind`` estimates (fail fast)."""
        if kind not in ESTIMATE_KINDS:
            raise ValueError(f"unknown estimate kind {kind!r}; expected one of {ESTIMATE_KINDS}")
        for processor in self._processors:
            if not processor.supports(kind):
                raise ValueError(
                    f"post-processor {processor.name!r} does not apply to {kind!r} "
                    f"estimates (supported kinds: {list(processor.kinds)})"
                )
        return self

    def apply(self, values: Any, context: PostContext) -> Any:
        """Run every processor in order over ``values``."""
        for processor in self._processors:
            values = processor.apply(values, context)
        return values

    def tree_consistent(self, initial: bool = False) -> bool:
        """Whether tree estimates are parent = sum(children) afterwards."""
        flag = initial
        for processor in self._processors:
            if processor.tree_consistency_effect is not None:
                flag = processor.tree_consistency_effect
        return flag


#: Registry token -> factory of the processors that token expands to.
#: Composite conveniences (``"consistency"``) expand to several processors.
POSTPROCESSORS: Dict[str, Callable[[], List[PostProcessor]]] = {
    "none": lambda: [],
    "clip": lambda: [NonNegativeClip()],
    "norm_sub": lambda: [NormSub()],
    "monotone_cdf": lambda: [MonotoneCdf()],
    "weighted_averaging": lambda: [TreeWeightedAveraging()],
    "mean_consistency": lambda: [TreeMeanConsistency()],
    "consistency": lambda: [TreeWeightedAveraging(), TreeMeanConsistency()],
    "least_squares": lambda: [TreeLeastSquares()],
    "haar_threshold": lambda: [HaarCoefficientThreshold()],
    "grid_consistency": lambda: [GridMarginalConsistency()],
}

#: Tokens accepting a ``:`` parameter (``"haar_threshold:3.5"``,
#: ``"mean_consistency:none"``); the factory receives the parsed value.
_PARAMETRIC_TOKENS: Dict[str, Callable[[Optional[float]], List[PostProcessor]]] = {
    "haar_threshold": lambda value: [HaarCoefficientThreshold(multiplier=value)],
    "mean_consistency": lambda value: [TreeMeanConsistency(root_value=value)],
}


def _expand_token(token: str) -> List[PostProcessor]:
    base, _, parameter = token.partition(":")
    if parameter:
        factory = _PARAMETRIC_TOKENS.get(base)
        if factory is None:
            raise ValueError(f"post-processing token {base!r} does not take a ':' parameter")
        if parameter == "none":
            value: Optional[float] = None
        else:
            try:
                value = float(parameter)
            except ValueError as exc:
                raise ValueError(f"malformed parameter in post-processing token {token!r}") from exc
        return factory(value)
    factory = POSTPROCESSORS.get(base)
    if factory is None:
        raise ValueError(
            f"unknown post-processing token {base!r}; expected "
            f"'+'-combinations of {available_pipelines()}"
        )
    return factory()


PipelineLike = Union[None, str, PostProcessor, PostPipeline, Sequence]


def available_pipelines() -> List[str]:
    """The registry tokens ``make_pipeline`` accepts (combinable with ``+``)."""
    return sorted(POSTPROCESSORS)


def make_pipeline(spec: PipelineLike) -> PostPipeline:
    """Resolve any accepted pipeline spelling into a :class:`PostPipeline`.

    Accepted forms: ``None`` / ``"none"`` (the empty pipeline), a
    ``"+"``-joined registry string (``"consistency+norm_sub"``; the
    parametric tokens take a ``:`` value, e.g. ``"haar_threshold:3.5"``),
    a single :class:`PostProcessor`, an existing :class:`PostPipeline`
    (returned as-is), or a sequence mixing tokens and processors.
    Unknown tokens raise ``ValueError`` naming the registry.  Registry
    spellings -- including parametric ones -- round-trip faithfully
    through ``protocol.spec()``; processors of classes outside the
    registry apply live but cannot be rebuilt from a spec (rebuilding
    fails loudly rather than silently changing parameters).
    """
    if isinstance(spec, PostPipeline):
        return spec
    if spec is None:
        return PostPipeline([], spec="none")
    if isinstance(spec, PostProcessor):
        return PostPipeline([spec])
    if isinstance(spec, str):
        tokens = [token.strip().lower() for token in spec.split("+") if token.strip()]
        processors: List[PostProcessor] = []
        kept: List[str] = []
        for token in tokens:
            expanded = _expand_token(token)
            if expanded:
                kept.append(token)
            processors.extend(expanded)
        return PostPipeline(processors, spec="+".join(kept) or "none")
    if isinstance(spec, Sequence):
        processors = []
        for entry in spec:
            processors.extend(make_pipeline(entry).processors)
        return PostPipeline(processors)
    raise TypeError(f"cannot build a post-processing pipeline from {type(spec).__name__}")


def resolve_postprocess(spec: PipelineLike, kind: str) -> PostPipeline:
    """``make_pipeline`` plus a fail-fast kind check (used by constructors)."""
    return make_pipeline(spec).validate_for(kind)
