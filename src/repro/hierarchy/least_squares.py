"""Explicit least-squares constrained inference (Lemma 4.6's formulation).

The proof of Lemma 4.6 works directly with the linear-algebraic form of the
problem: let ``H`` be the ``n x D`` matrix whose rows are the indicator
vectors of the leaves under each tree node and ``x`` the vector of noisy
node observations; then the optimal consistent estimate of the leaf
frequencies is ``(H^T H)^{-1} H^T x`` and any range query's variance can be
read off ``V_F * R^T (H^T H)^{-1} R``.

The two-stage algorithm of
:func:`repro.core.postprocess.tree_enforce_consistency` computes the same
solution in linear time; this module provides the explicit version for

* small domains, where materialising ``H`` is cheap and the closed form is
  convenient;
* tests, which use it as an independent oracle for the two-stage code; and
* the variance diagnostics (:func:`range_query_variance_factor`) used to
  verify the ``B/(B+1)`` and ``(B+1)/4`` constants of Lemma 4.6.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.hierarchy.tree import DomainTree


def design_matrix(tree: DomainTree) -> np.ndarray:
    """The node-by-leaf indicator matrix ``H`` of a domain tree (root first)."""
    rows: List[np.ndarray] = []
    leaves = tree.padded_size
    for level in range(tree.num_levels):
        span = tree.node_span(level)
        for index in range(tree.level_size(level)):
            row = np.zeros(leaves)
            row[index * span : (index + 1) * span] = 1.0
            rows.append(row)
    return np.array(rows)


def flatten_levels(level_values: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate per-level node values in the same order as :func:`design_matrix`."""
    return np.concatenate([np.asarray(values, dtype=np.float64) for values in level_values])


def least_squares_leaves(
    tree: DomainTree, level_values: Sequence[np.ndarray]
) -> np.ndarray:
    """Optimal consistent leaf estimates ``(H^T H)^{-1} H^T x``.

    All observations are weighted equally, which is the correct weighting for
    the paper's protocols because every node estimate has the same variance
    ``V_F / p_l`` within a level and uniform level sampling equalises the
    levels too.
    """
    matrix = design_matrix(tree)
    observations = flatten_levels(level_values)
    if len(observations) != matrix.shape[0]:
        raise ValueError(
            f"expected {matrix.shape[0]} node observations, got {len(observations)}"
        )
    solution, *_ = np.linalg.lstsq(matrix, observations, rcond=None)
    return solution


def least_squares_levels(
    tree: DomainTree, level_values: Sequence[np.ndarray]
) -> List[np.ndarray]:
    """Consistent per-level values implied by the least-squares leaves."""
    leaves = least_squares_leaves(tree, level_values)
    return [tree.level_histogram(leaves, level) for level in range(tree.num_levels)]


def range_query_variance_factor(tree: DomainTree, left: int, right: int) -> float:
    """``R^T (H^T H)^{-1} R`` for the indicator ``R`` of ``[left, right]``.

    Multiplying by the per-node variance ``V_F`` gives the post-inference
    variance of the range query (the quantity bounded in Lemma 4.6).  Only
    practical for small trees since it inverts an ``n x n``-sized system.
    """
    if left < 0 or right < left or right >= tree.padded_size:
        raise ValueError(f"invalid range [{left}, {right}] for padded domain {tree.padded_size}")
    matrix = design_matrix(tree)
    gram = matrix.T @ matrix
    indicator = np.zeros(tree.padded_size)
    indicator[left : right + 1] = 1.0
    solved = np.linalg.solve(gram, indicator)
    return float(indicator @ solved)
