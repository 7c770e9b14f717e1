"""One query front-end: the query grammar and the batch answerer.

The CLI (``run``, ``merge``, ``engine query``) and the service's
``GET /query`` take the same ``ranges``, ``quantiles`` and ``rectangles``
strings and the same ``frequencies`` flag.  :func:`answer_queries`
answers each query kind with one batch-kernel call, bit-identical to the
per-query methods (thin wrappers over the same kernels), and raises
``ValueError`` for every malformed or unanswerable request.  This module
imports nothing from the engine, the service or the CLI.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence, Tuple

import numpy as np


def parse_ranges(text: str) -> List[Tuple[int, int]]:
    """Parse ``"0:127,300:511"`` into a list of (left, right) tuples."""
    ranges: List[Tuple[int, int]] = []
    if not text:
        return ranges
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            left_text, right_text = piece.split(":")
            left, right = int(left_text), int(right_text)
        except ValueError as exc:
            raise ValueError(f"malformed range {piece!r}; expected left:right") from exc
        if left > right:
            raise ValueError(f"range {piece!r} has left > right")
        ranges.append((left, right))
    return ranges


def parse_rectangles(text: str) -> List[Tuple[int, int, int, int]]:
    """Parse ``"0:7:0:7,2:5:9:13"`` into (xl, xr, yl, yr) tuples."""
    rectangles: List[Tuple[int, int, int, int]] = []
    if not text:
        return rectangles
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            xl, xr, yl, yr = (int(part) for part in piece.split(":"))
        except ValueError as exc:
            raise ValueError(
                f"malformed rectangle {piece!r}; expected xleft:xright:yleft:yright"
            ) from exc
        if xl > xr or yl > yr:
            raise ValueError(f"rectangle {piece!r} has left > right")
        rectangles.append((xl, xr, yl, yr))
    return rectangles


def parse_quantiles(text: str) -> List[float]:
    """Parse ``"0.5,0.9,0.99"`` into a list of floats in [0, 1]."""
    quantiles: List[float] = []
    if not text:
        return quantiles
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        value = float(piece)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"quantile {value} outside [0, 1]")
        quantiles.append(value)
    return quantiles


def _endpoint_columns(queries: Sequence[tuple], width: int, kind: str) -> np.ndarray:
    """``queries`` as ``width`` int64 endpoint columns.

    An endpoint outside int64 lies outside every domain: a ``ValueError``,
    not the kernel's ``OverflowError``.
    """
    try:
        return np.array(queries, dtype=np.int64).reshape(-1, width).T
    except OverflowError as exc:
        raise ValueError(f"{kind} endpoint outside the int64 range") from exc


def answer_queries(estimator, params: Mapping[str, object]) -> dict:
    """Answer ``params`` (query strings and a ``frequencies`` flag) on ``estimator``.

    A 2-D grid estimator answers ``{"rectangles": {...}}``; a 1-D one
    answers ``{"ranges": {...}, "quantiles": {...}}``, plus
    ``"frequencies"`` when asked.  Each answer is keyed by its query.
    """
    if hasattr(estimator, "rectangle_queries"):
        if params.get("ranges") or params.get("quantiles") or params.get("frequencies"):
            raise ValueError(
                "a 2-D grid protocol answers rectangles "
                "(xleft:xright:yleft:yright), not ranges, quantiles or frequencies"
            )
        rectangles = parse_rectangles(params.get("rectangles"))
        answers = estimator.rectangle_queries(*_endpoint_columns(rectangles, 4, "rectangle"))
        return {
            "rectangles": {
                f"{xl}:{xr}:{yl}:{yr}": answer
                for (xl, xr, yl, yr), answer in zip(rectangles, answers.tolist())
            }
        }
    if params.get("rectangles"):
        raise ValueError("rectangles require a 2-D grid protocol (method grid2d)")
    ranges = parse_ranges(params.get("ranges"))
    range_answers = estimator.range_queries_batch(*_endpoint_columns(ranges, 2, "range"))
    phis = parse_quantiles(params.get("quantiles"))
    items = estimator.quantile_queries_batch(phis)
    answers = {
        "ranges": {
            f"{left}:{right}": answer
            for (left, right), answer in zip(ranges, range_answers.tolist())
        },
        "quantiles": {f"{phi:g}": item for phi, item in zip(phis, items.tolist())},
    }
    if params.get("frequencies"):
        answers["frequencies"] = estimator.estimated_frequencies().tolist()
    return answers
