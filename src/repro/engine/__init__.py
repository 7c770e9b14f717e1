"""Epoch-aware aggregation-service façade over the protocol engine.

``Engine.open(spec)`` turns any protocol configuration into a managed
aggregation service with epoch-partitioned state and windowed queries.
``Engine.open(..., store_dir=...)`` makes it durable through the
out-of-core epoch store (:mod:`repro.engine.store`): sealed epochs spill
to per-epoch memory-mapped segment files, checkpoints are incremental,
``Engine.restore(store_dir)`` reopens the store, and windowed queries
over sealed epochs run via pushdown over pre-aggregated integer vectors.  See
:mod:`repro.engine.engine` for the model and
``examples/engine_windows.py`` for a runnable sliding-window
walkthrough.
"""

from repro.core.exceptions import InvalidWindowError
from repro.engine.engine import Engine, EpochSession
from repro.engine.store import EpochStore, spec_fingerprint
from repro.engine.windows import (
    ALL,
    PLAN_AGGREGATE,
    PLAN_EPOCH,
    LastK,
    WindowLike,
    last,
    parse_window,
    plan_cover,
    plan_epochs,
    resolve_window,
    split_window,
)

__all__ = [
    "ALL",
    "Engine",
    "EpochSession",
    "EpochStore",
    "InvalidWindowError",
    "LastK",
    "PLAN_AGGREGATE",
    "PLAN_EPOCH",
    "WindowLike",
    "last",
    "parse_window",
    "plan_cover",
    "plan_epochs",
    "resolve_window",
    "spec_fingerprint",
    "split_window",
]
