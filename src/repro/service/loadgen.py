"""Client-side helpers for driving the aggregation service.

:func:`generate_batches` encodes a synthetic population the way a fleet
of devices would -- the privatization happens *here*, on the "device"
-- and packs the reports into framed batches, once and up front, so a
timed ingest loop measures the service and not the encoding.
:func:`percentile` summarizes latency samples.  The benchmarks post
these batches with ``perfbench/client.py``, the repository's one HTTP
load generator.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.rng import ensure_rng
from repro.core.serialization import pack_report_batch
from repro.core.session import protocol_from_spec
from repro.data.synthetic import make_population


def percentile(samples: List[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of ``samples``; 0.0 when empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def generate_batches(
    spec: dict,
    n_users: int,
    batch_size: int,
    distribution: str = "zipf",
    seed: Optional[int] = 0,
):
    """Encode a synthetic population into framed report batches.

    Returns ``(dataset, batch_blobs)``: the population (for ground-truth
    comparisons) and one :func:`pack_report_batch` blob per chunk of
    ``batch_size`` users.  Encoding happens once, up front, so the timed
    ingest loop measures the *service*, not client-side privatization.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    protocol = protocol_from_spec(spec)
    if hasattr(protocol, "domain_size_y") or spec.get("name") == "grid2d":
        raise ValueError(
            "generate_batches encodes 1-D protocols; grid2d needs 2-D items"
        )
    dataset = make_population(
        distribution, int(spec["domain_size"]), int(n_users), rng=ensure_rng(seed)
    )
    client = protocol.client()
    rng = ensure_rng(None if seed is None else seed + 1)
    reports = client.encode_batches(np.asarray(dataset.items), batch_size, rng=rng)
    blobs = [pack_report_batch(protocol, [report]) for report in reports]
    return dataset, blobs


__all__ = [
    "generate_batches",
    "percentile",
]
