"""Range-query workloads used by the paper's evaluation (Section 5).

Two workload generators are needed:

* :func:`all_range_workload` enumerates every one of the ``D choose 2``-ish
  closed ranges (feasible for small and medium domains, which is how the
  paper evaluates ``D = 2^8`` and ``2^16``);
* :func:`sampled_range_workload` reproduces the paper's scalable sampling
  strategy for large domains: pick evenly spaced starting points and
  evaluate every range that begins at each of them.

Workloads are *array-native*: the canonical representation is
:class:`RangeWorkload`, a pair of ``int64`` arrays ``(lefts, rights)``
validated once at construction.  Estimators answer a whole workload with
pure NumPy kernels (see :meth:`repro.core.protocol.RangeQueryEstimator.
range_queries_batch`), so figure reproductions never materialise millions
of per-query Python objects.  Callers that want individual query objects
iterate a workload or call :meth:`RangeWorkload.as_specs`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.core.exceptions import InvalidRangeError
from repro.core.protocol import as_query_arrays, validate_query_arrays
from repro.core.types import RangeSpec


class RangeWorkload:
    """A batch of closed range queries held as parallel ``int64`` arrays.

    Parameters
    ----------
    lefts, rights:
        Equal-length 1-D integer arrays of inclusive endpoints.
    domain_size:
        Optional domain bound; when given, every query is validated
        against it once, here, so downstream kernels skip per-query
        checks.

    The constructor performs the one-shot validation (``0 <= left <=
    right`` element-wise, plus the domain bound when known); estimators
    re-check only the domain bound, vectorised, at query time.
    """

    __slots__ = ("lefts", "rights")

    def __init__(
        self,
        lefts: np.ndarray,
        rights: np.ndarray,
        domain_size: Optional[int] = None,
    ) -> None:
        self.lefts, self.rights = validate_query_arrays(
            lefts, rights, None if domain_size is None else int(domain_size)
        )

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self.lefts.size)

    def __iter__(self) -> Iterator[RangeSpec]:
        """Yield per-query :class:`RangeSpec` objects (compatibility path)."""
        for left, right in zip(self.lefts.tolist(), self.rights.tolist()):
            yield RangeSpec(left, right)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"RangeWorkload(num_queries={len(self)})"

    @property
    def lengths(self) -> np.ndarray:
        """Length ``r`` of every query (``rights - lefts + 1``)."""
        return self.rights - self.lefts + 1

    def validate_for_domain(self, domain_size: int) -> "RangeWorkload":
        """Raise :class:`InvalidRangeError` if any query exceeds the domain."""
        validate_query_arrays(self.lefts, self.rights, int(domain_size))
        return self

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    @classmethod
    def from_queries(
        cls,
        queries: Union["RangeWorkload", Iterable],
        domain_size: Optional[int] = None,
    ) -> "RangeWorkload":
        """Coerce specs, ``(left, right)`` pairs or a workload into a workload."""
        if isinstance(queries, RangeWorkload):
            if domain_size is not None:
                queries.validate_for_domain(int(domain_size))
            return queries
        return cls(*as_query_arrays(queries), domain_size=domain_size)

    def as_specs(self) -> List[RangeSpec]:
        """Materialise the per-query :class:`RangeSpec` objects."""
        return list(self)

    # ------------------------------------------------------------------ #
    # grouping
    # ------------------------------------------------------------------ #
    def group_indices_by_length(self) -> Dict[int, np.ndarray]:
        """Query indices grouped by range length (for per-length metrics)."""
        grouped: Dict[int, np.ndarray] = {}
        if not len(self):
            return grouped
        lengths = self.lengths
        for length in np.unique(lengths):
            grouped[int(length)] = np.flatnonzero(lengths == length)
        return grouped


# --------------------------------------------------------------------- #
# array-native workload generators
# --------------------------------------------------------------------- #
def all_range_workload(domain_size: int, min_length: int = 1) -> RangeWorkload:
    """Every closed range ``[a, b]`` with ``b - a + 1 >= min_length``.

    Built with a single pair of vectorised index expansions -- no Python
    loop over the ``O(D^2)`` queries.
    """
    if domain_size < 1:
        raise ValueError(f"domain_size must be positive, got {domain_size}")
    if min_length < 1:
        raise ValueError(f"min_length must be >= 1, got {min_length}")
    starts = np.arange(domain_size, dtype=np.int64)
    counts = np.maximum(domain_size - (starts + min_length - 1), 0)
    lefts = np.repeat(starts, counts)
    # For each left endpoint the rights run [left + min_length - 1, D - 1].
    offsets = np.arange(lefts.size, dtype=np.int64) - np.repeat(
        np.concatenate(([0], np.cumsum(counts[:-1]))), counts
    )
    rights = lefts + min_length - 1 + offsets
    return RangeWorkload(lefts, rights, domain_size)


def length_workload(domain_size: int, length: int) -> RangeWorkload:
    """All ``D - r + 1`` ranges of an exact length ``r``."""
    if length < 1 or length > domain_size:
        raise InvalidRangeError(f"length must be in [1, {domain_size}], got {length}")
    lefts = np.arange(domain_size - length + 1, dtype=np.int64)
    return RangeWorkload(lefts, lefts + length - 1, domain_size)


def sampled_range_workload(
    domain_size: int,
    num_start_points: int,
    lengths: Optional[Sequence[int]] = None,
) -> RangeWorkload:
    """The paper's large-domain workload: evenly spaced starting points.

    For each of ``num_start_points`` evenly spaced values of ``a`` we emit
    ranges ``[a, a + r - 1]`` for every requested length ``r`` (by default a
    geometric ladder of lengths up to the domain size) that fits inside the
    domain.
    """
    if domain_size < 1:
        raise ValueError(f"domain_size must be positive, got {domain_size}")
    if num_start_points < 1:
        raise ValueError(f"num_start_points must be >= 1, got {num_start_points}")
    starts = np.unique(
        np.linspace(0, domain_size - 1, num=num_start_points, dtype=np.int64)
    )
    if lengths is None:
        lengths = geometric_lengths(domain_size)
    length_arr = np.asarray(list(lengths), dtype=np.int64)
    lefts = np.repeat(starts, len(length_arr))
    rights = lefts + np.tile(length_arr, len(starts)) - 1
    keep = rights < domain_size
    return RangeWorkload(lefts[keep], rights[keep], domain_size)


def prefix_workload(domain_size: int) -> RangeWorkload:
    """All prefix queries ``[0, b]`` (Section 4.7)."""
    if domain_size < 1:
        raise ValueError(f"domain_size must be positive, got {domain_size}")
    rights = np.arange(domain_size, dtype=np.int64)
    return RangeWorkload(np.zeros(domain_size, np.int64), rights, domain_size)


def random_range_workload(
    domain_size: int, num_queries: int, rng: np.random.Generator
) -> RangeWorkload:
    """``num_queries`` uniformly random closed ranges (benchmarks, tests)."""
    if domain_size < 1:
        raise ValueError(f"domain_size must be positive, got {domain_size}")
    if num_queries < 0:
        raise ValueError(f"num_queries must be >= 0, got {num_queries}")
    endpoints = rng.integers(0, domain_size, size=(num_queries, 2))
    lefts = np.minimum(endpoints[:, 0], endpoints[:, 1])
    rights = np.maximum(endpoints[:, 0], endpoints[:, 1])
    return RangeWorkload(lefts, rights, domain_size)


def geometric_lengths(domain_size: int, base: int = 2) -> List[int]:
    """A geometric ladder of range lengths ``1, base, base^2, ..., ~D``."""
    if domain_size < 1:
        raise ValueError(f"domain_size must be positive, got {domain_size}")
    lengths = []
    value = 1
    while value < domain_size:
        lengths.append(value)
        value *= base
    lengths.append(domain_size - 1 if domain_size > 1 else 1)
    return sorted(set(lengths))


def true_answers(
    queries: Union[RangeWorkload, Sequence[RangeSpec]], frequencies: np.ndarray
) -> np.ndarray:
    """Exact answers of every query against a frequency vector.

    Accepts either an array-native :class:`RangeWorkload` or a sequence of
    :class:`RangeSpec`; both are answered with one prefix-sum gather.
    """
    freqs = np.asarray(frequencies, dtype=np.float64)
    workload = RangeWorkload.from_queries(queries)
    if not len(workload):
        return np.zeros(0)
    if int(workload.rights.max()) >= len(freqs):
        raise InvalidRangeError("a query exceeds the frequency vector length")
    prefix = np.concatenate(([0.0], np.cumsum(freqs)))
    return prefix[workload.rights + 1] - prefix[workload.lefts]
