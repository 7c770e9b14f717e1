"""Reference (pure numpy) implementations of the oracle compute kernels.

This module is the single source of truth for kernel *semantics*: every
function here is the vectorised numpy code that previously lived inline in
``repro.frequency_oracles`` -- relocated, not rewritten -- so the numpy
backend reproduces the pre-kernel outputs bit-for-bit.  Alternative
backends (:mod:`repro.core.kernels.numba_backend`) must match these
functions exactly on integer outputs and to <= 1e-12 on HRR's float path;
``tests/test_kernels.py`` sweeps that equivalence with hypothesis.

All kernels are pure functions over **pre-drawn randomness**: the caller
(the oracle) performs every ``rng`` draw in a fixed order and passes the
results in, which is what keeps report streams seed-for-seed reproducible
across backends.

Kernel contracts
----------------
``grr_perturb(items, keep, noise)``
    Generalized randomized response: report ``items[i]`` where ``keep``,
    otherwise a uniformly random *other* item derived from
    ``noise[i] ~ U[0, D-1)`` by skipping the true value.
``olh_encode(multipliers, offsets, items, num_buckets, keep, noise)``
    Fused OLH encode: universal hash ``((a*x + b) mod P) mod g`` plus GRR
    perturbation over the ``g`` buckets.
``olh_support(multipliers, offsets, buckets, domain_size, num_buckets,
chunk)``
    The ``O(N * D)`` OLH decode: for every domain item, the number of
    users whose reported bucket equals the item's hash.
``unary_perturb(uniforms, p_zero, items, true_uniforms, p_one)``
    OUE/SUE/THE bit perturbation: an ``(N, D)`` 0/1 uint8 matrix where
    bit ``j`` of row ``i`` is ``uniforms[i, j] < p_zero`` except the true
    bit, which is ``true_uniforms[i] < p_one``.  The oracles view it as
    ``bool`` (zero-copy), which the report codec packs to bits.
``unary_sums(reports)``
    Per-item int64 column sums of an ``(N, D)`` unary report matrix
    (``bool`` as decoded from the wire, or any integer dtype).
``hrr_encode(items, signs, indices, keep)``
    HRR signed-coefficient encode: the +/-1 Hadamard entry
    ``H[items[i], indices[i]]`` times ``signs[i]``, flipped where not
    ``keep``.
``hrr_value_sums(indices, values, padded_size)``
    Per-coefficient sums of raw +/-1 report values, rounded to int64
    (exact: sums of +/-1 stay far below 2**53).
``categorical_counts(reports, domain_size)``
    Validated int64 histogram of categorical reports.
``column_sums(vectors, out)``
    Blocked elementwise int64 sum of equal-length vectors -- the gather
    step of windowed query pushdown over mmap'd segment statistics.
"""

from __future__ import annotations

from typing import List

import numpy as np

#: A Mersenne prime comfortably larger than any domain we hash from, small
#: enough that ``a * x`` never overflows an int64 (a < 2^31, x < 2^31).
HASH_PRIME = (1 << 31) - 1


def grr_perturb(
    items: np.ndarray, keep: np.ndarray, noise: np.ndarray
) -> np.ndarray:
    # Sample a uniformly random item different from the true one by
    # drawing from [0, D-1) and skipping over the true value.
    noise = np.where(noise >= items, noise + 1, noise)
    return np.where(keep, items, noise).astype(np.int64)


def olh_encode(
    multipliers: np.ndarray,
    offsets: np.ndarray,
    items: np.ndarray,
    num_buckets: int,
    keep: np.ndarray,
    noise: np.ndarray,
) -> np.ndarray:
    products = (
        multipliers.astype(np.int64) * items.astype(np.int64)
        + offsets.astype(np.int64)
    ) % HASH_PRIME
    true_buckets = (products % num_buckets).astype(np.int64)
    noise = np.where(noise >= true_buckets, noise + 1, noise)
    return np.where(keep, true_buckets, noise).astype(np.int64)


def olh_support(
    multipliers: np.ndarray,
    offsets: np.ndarray,
    buckets: np.ndarray,
    domain_size: int,
    num_buckets: int,
    chunk: int,
) -> np.ndarray:
    num_reports = len(buckets)
    domain_items = np.arange(domain_size, dtype=np.int64)
    support = np.zeros(domain_size, dtype=np.int64)
    # O(N * D) decoding, chunked over users to bound memory.  One
    # (chunk, D) work buffer is reused across iterations with in-place
    # arithmetic -- same hash ((a * x + b) mod P) mod g, a fraction of the
    # allocation churn.
    chunk = min(int(chunk), max(num_reports, 1))
    work = np.empty((chunk, domain_size), dtype=np.int64)
    for start in range(0, num_reports, chunk):
        stop = min(start + chunk, num_reports)
        rows = work[: stop - start]
        np.multiply(multipliers[start:stop, None], domain_items[None, :], out=rows)
        rows += offsets[start:stop, None]
        rows %= HASH_PRIME
        rows %= num_buckets
        support += np.count_nonzero(rows == buckets[start:stop, None], axis=0)
    return support


def unary_perturb(
    uniforms: np.ndarray,
    p_zero: float,
    items: np.ndarray,
    true_uniforms: np.ndarray,
    p_one: float,
) -> np.ndarray:
    # Start from the "all bits are zero" perturbation and then resample
    # the single true bit of each user at its own probability.
    reports = (uniforms < p_zero).astype(np.uint8)
    true_bits = (true_uniforms < p_one).astype(np.uint8)
    reports[np.arange(len(items)), items] = true_bits
    return reports


#: Row count below which ``unary_sums`` of a bool/uint8 matrix may
#: accumulate in int32: 255 * (2**23 - 1) < 2**31, so the sum is exact.
UNARY_INT32_ROWS = 1 << 23


def unary_sums(reports: np.ndarray) -> np.ndarray:
    if reports.dtype in (np.bool_, np.uint8) and reports.shape[0] < UNARY_INT32_ROWS:
        # About twice as fast as numpy's default (u)int64 accumulator.
        return np.add.reduce(reports, axis=0, dtype=np.int32).astype(np.int64)
    return reports.sum(axis=0).astype(np.int64)


def hrr_encode(
    items: np.ndarray,
    signs: np.ndarray,
    indices: np.ndarray,
    keep: np.ndarray,
) -> np.ndarray:
    from repro.frequency_oracles.hadamard import hadamard_entry

    true_values = signs * hadamard_entry(items, indices)
    return np.where(keep, true_values, -true_values)


def hrr_value_sums(
    indices: np.ndarray, values: np.ndarray, padded_size: int
) -> np.ndarray:
    sums = np.bincount(
        np.asarray(indices, dtype=np.int64),
        weights=np.asarray(values, dtype=np.float64),
        minlength=int(padded_size),
    )
    return np.rint(sums).astype(np.int64)


def categorical_counts(reports: np.ndarray, domain_size: int) -> np.ndarray:
    reports = np.asarray(reports, dtype=np.int64)
    if reports.ndim != 1:
        raise ValueError(f"reports must be a 1-D array, got shape {reports.shape}")
    if reports.size and (reports.min() < 0 or reports.max() >= domain_size):
        raise ValueError(
            f"reports contain values outside the domain of size {domain_size}"
        )
    return np.bincount(reports, minlength=domain_size).astype(np.int64)


#: int64 elements per ``column_sums`` block (256 KiB per vector slice):
#: small enough that one slice of every input stays cache-resident while
#: it is accumulated, large enough that the Python loop overhead vanishes.
COLUMN_SUMS_BLOCK = 1 << 15


def column_sums(vectors, out: "np.ndarray | None" = None) -> np.ndarray:
    """Elementwise int64 sum of equal-length integer vectors.

    ``vectors`` is a sequence of 1-D arrays (any integer dtype; mmap'd
    little-endian ``<i8`` views pass through zero-copy).  The sum is
    exact int64 arithmetic -- associative and commutative -- so any
    blocking or ordering is bit-identical to a naive left-to-right sum.
    ``out``, when given, must be a writable int64 array of the same
    length; it is overwritten (not accumulated into) and returned.
    """
    arrays = [
        np.ascontiguousarray(vector, dtype=np.int64).reshape(-1)
        for vector in vectors
    ]
    if not arrays:
        if out is None:
            raise ValueError("column_sums needs at least one vector or an out=")
        out[...] = 0
        return out
    length = arrays[0].shape[0]
    for array in arrays[1:]:
        if array.shape[0] != length:
            raise ValueError(
                f"column_sums vectors disagree on length: {array.shape[0]} "
                f"!= {length}"
            )
    if out is None:
        out = np.zeros(length, dtype=np.int64)
    else:
        if out.shape != (length,) or out.dtype != np.int64:
            raise ValueError(
                f"column_sums out= must be int64 of shape ({length},), got "
                f"{out.dtype} {out.shape}"
            )
        out[...] = 0
    for start in range(0, length, COLUMN_SUMS_BLOCK):
        stop = min(start + COLUMN_SUMS_BLOCK, length)
        block = out[start:stop]
        for array in arrays:
            block += array[start:stop]
    return out


def multinomial_level_split(
    counts: np.ndarray,
    probabilities: np.ndarray,
    rng: np.random.Generator,
) -> List[np.ndarray]:
    """Split each item's user count multinomially across the levels.

    Implemented as the standard sequence of Binomial draws so it vectorises
    over the domain.  This is the aggregate-simulation counterpart of the
    per-user level sampling: ``counts[v]`` users holding item ``v`` are
    distributed over ``len(probabilities)`` levels.

    Unlike the other kernels this one *draws* randomness, so it is shared
    verbatim by every backend: the Binomial sampling must stay in numpy
    for seed-for-seed reproducibility.
    """
    num_levels = len(probabilities)
    remaining = counts.copy()
    remaining_prob = 1.0
    per_level: List[np.ndarray] = []
    for level in range(num_levels):
        prob = probabilities[level]
        if remaining_prob <= 0:
            take = np.zeros_like(remaining)
        elif level == num_levels - 1:
            take = remaining.copy()
        else:
            take = rng.binomial(remaining, min(1.0, prob / remaining_prob))
        per_level.append(take.astype(np.int64))
        remaining = remaining - take
        remaining_prob -= prob
    return per_level


KERNELS = {
    "grr_perturb": grr_perturb,
    "olh_encode": olh_encode,
    "olh_support": olh_support,
    "unary_perturb": unary_perturb,
    "unary_sums": unary_sums,
    "hrr_encode": hrr_encode,
    "hrr_value_sums": hrr_value_sums,
    "categorical_counts": categorical_counts,
    "column_sums": column_sums,
}
