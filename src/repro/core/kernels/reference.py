"""The numpy implementations of the oracle compute kernels.

Every function here is the vectorised numpy code that previously lived
inline in ``repro.frequency_oracles``, so the oracles reproduce the
pre-kernel outputs bit-for-bit.  All but ``olh_support`` were relocated
verbatim; ``olh_support`` was rewritten division-free and is pinned to
the direct int64 formula by an always-run hypothesis test in
``tests/test_kernels.py``.

All kernels are pure functions over **pre-drawn randomness**: the caller
(the oracle) performs every ``rng`` draw in a fixed order and passes the
results in, which is what keeps report streams seed-for-seed
reproducible.

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
    The ``O(N * D)`` OLH decode: for every domain item ``x``, the number
    of users ``i`` with ``((a_i x + b_i) mod P) mod g == y_i``.  Inputs
    are int64 arrays; the count is exact for the hash family's
    parameters, ``a`` in ``[1, P)`` and ``b`` in ``[0, P)`` (what
    ``OptimalLocalHashing.check_payload`` admits), and any bucket.  The
    numpy kernel holds no int64 cell: per user it tabulates ``a 32 j``
    and ``a k + b`` mod P (``k < 32``; ``k < D`` for a smaller domain),
    adds the two for ``x = 32 j + k`` in uint32,
    then reduces mod P with a wrapping subtraction and mod g with numpy's
    SIMD floor division by a scalar -- no ``%`` per cell.  ``chunk`` caps
    the users per block.
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


#: Items per ``olh_support`` low table (fewer when ``D`` is smaller):
#: item ``x = 32 j + k`` hashes to ``high[j] + low[k]`` with ``high[j] =
#: a 32 j mod P`` and ``low[k] = (a k + b) mod P``, so each user costs
#: ``ceil(D / 32) + 32`` int64 products and each of its cells one uint32
#: addition.
OLH_LOW_ITEMS = 32

#: uint32 cells per ``olh_support`` block (256 KiB): small enough that a
#: block stays in cache through its passes, large enough that the Python
#: loop overhead vanishes.
OLH_BLOCK_CELLS = 1 << 16


def olh_support(
    multipliers: np.ndarray,
    offsets: np.ndarray,
    buckets: np.ndarray,
    domain_size: int,
    num_buckets: int,
    chunk: int,
) -> np.ndarray:
    num_reports = len(buckets)
    support = np.zeros(domain_size, dtype=np.int64)
    if num_reports == 0 or domain_size == 0:
        return support
    low_size = min(OLH_LOW_ITEMS, domain_size)
    width = -(-domain_size // low_size) * low_size
    low_items = np.arange(low_size, dtype=np.int64)
    high_items = np.arange(0, width, low_size, dtype=np.int64)
    rows = max(1, min(int(chunk), num_reports, OLH_BLOCK_CELLS // width))
    # uint8 is numpy's fastest column sum, and exact up to 255 rows.
    count_dtype = np.uint8 if rows <= 255 else np.int32
    cells = np.empty((rows, width), dtype=np.uint32)
    spare = np.empty((rows, width), dtype=np.uint32)
    hits = np.empty((rows, width), dtype=np.bool_)
    prime = np.uint32(HASH_PRIME)
    # A hash value below P is its own residue mod any g >= P.
    modulus = np.uint32(num_buckets) if num_buckets < HASH_PRIME else None
    # A bucket outside [0, P) matches no hash value; P stands in for it.
    buckets = np.where((buckets >= 0) & (buckets < HASH_PRIME), buckets, HASH_PRIME)
    targets = buckets.astype(np.uint32)[:, None]
    for start in range(0, num_reports, rows):
        stop = min(start + rows, num_reports)
        count = stop - start
        multiplier = multipliers[start:stop, None]
        low = (multiplier * low_items + offsets[start:stop, None]) % HASH_PRIME
        high = (multiplier * high_items) % HASH_PRIME
        # Both tables lie in [0, P), so each cell sums below 2**32 ...
        block = cells[:count]
        np.add(
            high.astype(np.uint32)[:, :, None],
            low.astype(np.uint32)[:, None, :],
            out=block.reshape(count, -1, low_size),
        )
        # ... and min(w, w - P) is w mod P: w - P wraps past w when w < P.
        other = spare[:count]
        np.subtract(block, prime, out=other)
        np.minimum(block, other, out=block)
        if modulus is not None:
            # w - g * (w // g): uint32 floor division by a scalar is SIMD, % is not.
            np.floor_divide(block, modulus, out=other)
            other *= modulus
            block -= other
        matched = hits[:count]
        np.equal(block, targets[start:stop], out=matched)
        support += np.add.reduce(matched[:, :domain_size], axis=0, dtype=count_dtype)
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

    Unlike the other kernels this one *draws* randomness: the Binomial
    sampling must stay in numpy for seed-for-seed reproducibility.
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

