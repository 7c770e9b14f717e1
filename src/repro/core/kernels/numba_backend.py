"""Numba ``@njit(cache=True)`` implementations of the oracle kernels.

Importing this module requires numba (``pip install repro[accel]``); the
registry in :mod:`repro.core.kernels` only imports it on demand and falls
back to numpy when the import fails, so numba stays strictly optional.

Every function here must be **bit-identical** to its reference twin in
:mod:`repro.core.kernels.reference` (HRR's float accumulation agrees
exactly too: sums of +/-1 values stay far below 2**53 and are added in the
same sequential order as ``np.bincount``).  That holds because:

* all randomness is pre-drawn by the caller -- these are pure loops;
* the integer arithmetic (``(a*x + b) % P % g`` with ``a, x < 2**31``)
  never leaves int64, so compiled and vectorised evaluation agree exactly;
* float comparisons against the same pre-drawn uniforms are deterministic.

The big wins over numpy are *fusion* (one pass instead of one temporary
per operator) and, for the ``O(N * D)`` OLH decode, a ``prange`` over the
domain where every item owns its own support counter -- race-free and
deterministic because each parallel iteration writes a disjoint slot.

Python-level wrappers handle validation (numba cannot raise rich errors
cheaply) and keep the wire-facing dtypes identical to the reference
backend.
"""

from __future__ import annotations

import numpy as np
from numba import njit, prange
from numba.typed import List as NumbaList

from repro.core.kernels.reference import COLUMN_SUMS_BLOCK, HASH_PRIME


@njit(cache=True)
def _grr_perturb(items, keep, noise):
    n = items.shape[0]
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        if keep[i]:
            out[i] = items[i]
        else:
            lie = noise[i]
            if lie >= items[i]:
                lie += 1
            out[i] = lie
    return out


def grr_perturb(items, keep, noise):
    return _grr_perturb(
        np.ascontiguousarray(items, dtype=np.int64),
        np.ascontiguousarray(keep, dtype=np.bool_),
        np.ascontiguousarray(noise, dtype=np.int64),
    )


@njit(cache=True)
def _olh_encode(multipliers, offsets, items, num_buckets, keep, noise):
    n = items.shape[0]
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        true_bucket = ((multipliers[i] * items[i] + offsets[i]) % HASH_PRIME) % num_buckets
        if keep[i]:
            out[i] = true_bucket
        else:
            lie = noise[i]
            if lie >= true_bucket:
                lie += 1
            out[i] = lie
    return out


def olh_encode(multipliers, offsets, items, num_buckets, keep, noise):
    return _olh_encode(
        np.ascontiguousarray(multipliers, dtype=np.int64),
        np.ascontiguousarray(offsets, dtype=np.int64),
        np.ascontiguousarray(items, dtype=np.int64),
        np.int64(num_buckets),
        np.ascontiguousarray(keep, dtype=np.bool_),
        np.ascontiguousarray(noise, dtype=np.int64),
    )


@njit(cache=True, parallel=True)
def _olh_support(multipliers, offsets, buckets, domain_size, num_buckets):
    support = np.zeros(domain_size, dtype=np.int64)
    n = buckets.shape[0]
    # Parallel over the domain: every item x owns support[x], so the
    # prange iterations touch disjoint memory and the result does not
    # depend on the thread schedule.
    for x in prange(domain_size):
        hits = 0
        for i in range(n):
            if ((multipliers[i] * x + offsets[i]) % HASH_PRIME) % num_buckets == buckets[i]:
                hits += 1
        support[x] = hits
    return support


def olh_support(multipliers, offsets, buckets, domain_size, num_buckets, chunk):
    # ``chunk`` bounds the numpy work buffer; the compiled loop carries no
    # buffer at all, so the knob is accepted and ignored.
    return _olh_support(
        np.ascontiguousarray(multipliers, dtype=np.int64),
        np.ascontiguousarray(offsets, dtype=np.int64),
        np.ascontiguousarray(buckets, dtype=np.int64),
        np.int64(domain_size),
        np.int64(num_buckets),
    )


@njit(cache=True)
def _unary_perturb(uniforms, p_zero, items, true_uniforms, p_one):
    n, d = uniforms.shape
    out = np.empty((n, d), dtype=np.uint8)
    for i in range(n):
        for j in range(d):
            out[i, j] = np.uint8(1) if uniforms[i, j] < p_zero else np.uint8(0)
        out[i, items[i]] = np.uint8(1) if true_uniforms[i] < p_one else np.uint8(0)
    return out


def unary_perturb(uniforms, p_zero, items, true_uniforms, p_one):
    return _unary_perturb(
        np.ascontiguousarray(uniforms, dtype=np.float64),
        np.float64(p_zero),
        np.ascontiguousarray(items, dtype=np.int64),
        np.ascontiguousarray(true_uniforms, dtype=np.float64),
        np.float64(p_one),
    )


@njit(cache=True)
def _unary_sums(reports):
    n, d = reports.shape
    sums = np.zeros(d, dtype=np.int64)
    # Row-major accumulation: one streaming pass over the report matrix.
    for i in range(n):
        for j in range(d):
            sums[j] += reports[i, j]
    return sums


def unary_sums(reports):
    # No dtype coercion: the loop accumulates any integer report matrix
    # into int64 without an 8x-wider copy first.  A bool matrix (unpacked
    # from the wire's bits) is viewed as uint8, zero-copy, so it reuses
    # the uint8 specialisation.
    reports = np.ascontiguousarray(reports)
    if reports.dtype == np.bool_:
        reports = reports.view(np.uint8)
    return _unary_sums(reports)


@njit(cache=True)
def _hrr_encode(items, signs, indices, keep):
    n = items.shape[0]
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        v = np.uint64(items[i] & indices[i])
        # Parity of the set bits via XOR folding (matches popcount_parity).
        v ^= v >> np.uint64(32)
        v ^= v >> np.uint64(16)
        v ^= v >> np.uint64(8)
        v ^= v >> np.uint64(4)
        v ^= v >> np.uint64(2)
        v ^= v >> np.uint64(1)
        entry = 1.0 - 2.0 * np.float64(v & np.uint64(1))
        value = signs[i] * entry
        out[i] = value if keep[i] else -value
    return out


def hrr_encode(items, signs, indices, keep):
    return _hrr_encode(
        np.ascontiguousarray(items, dtype=np.int64),
        np.ascontiguousarray(signs, dtype=np.float64),
        np.ascontiguousarray(indices, dtype=np.int64),
        np.ascontiguousarray(keep, dtype=np.bool_),
    )


@njit(cache=True)
def _hrr_value_sums(indices, values, padded_size):
    sums = np.zeros(padded_size, dtype=np.float64)
    for i in range(indices.shape[0]):
        # Same sequential input order as np.bincount, so float partial
        # sums (exact for +/-1 weights anyway) match bit-for-bit.
        sums[indices[i]] += values[i]
    out = np.empty(padded_size, dtype=np.int64)
    for j in range(padded_size):
        out[j] = np.int64(np.rint(sums[j]))
    return out


def hrr_value_sums(indices, values, padded_size):
    return _hrr_value_sums(
        np.ascontiguousarray(indices, dtype=np.int64),
        np.ascontiguousarray(values, dtype=np.float64),
        np.int64(padded_size),
    )


@njit(cache=True)
def _categorical_counts(reports, domain_size):
    counts = np.zeros(domain_size, dtype=np.int64)
    bad = 0
    for i in range(reports.shape[0]):
        value = reports[i]
        if value < 0 or value >= domain_size:
            bad += 1
        else:
            counts[value] += 1
    return counts, bad


def categorical_counts(reports, domain_size):
    reports = np.asarray(reports, dtype=np.int64)
    if reports.ndim != 1:
        raise ValueError(f"reports must be a 1-D array, got shape {reports.shape}")
    counts, bad = _categorical_counts(
        np.ascontiguousarray(reports), np.int64(domain_size)
    )
    if bad:
        raise ValueError(
            f"reports contain values outside the domain of size {domain_size}"
        )
    return counts


@njit(cache=True, parallel=True, nogil=True)
def _column_sums(vectors, out, block):
    length = out.shape[0]
    k = len(vectors)
    n_blocks = (length + block - 1) // block
    # Parallel over disjoint column blocks (each prange iteration owns
    # its out slice, so the result is schedule-independent), nogil so the
    # gateway executor overlaps query pushdown with ingest threads.
    for b in prange(n_blocks):
        start = b * block
        stop = min(start + block, length)
        for j in range(start, stop):
            out[j] = 0
        for i in range(k):
            vector = vectors[i]
            for j in range(start, stop):
                out[j] += vector[j]
    return out


def column_sums(vectors, out=None):
    arrays = []
    for vector in vectors:
        array = np.ascontiguousarray(vector, dtype=np.int64).reshape(-1)
        # Normalize every element to a *readonly* view: mmap-backed
        # inputs are already readonly, and a typed.List must hold one
        # consistent array type.
        view = array.view()
        view.flags.writeable = False
        arrays.append(view)
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
    elif out.shape != (length,) or out.dtype != np.int64:
        raise ValueError(
            f"column_sums out= must be int64 of shape ({length},), got "
            f"{out.dtype} {out.shape}"
        )
    typed = NumbaList()
    for array in arrays:
        typed.append(array)
    return _column_sums(typed, out, np.int64(COLUMN_SUMS_BLOCK))


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
