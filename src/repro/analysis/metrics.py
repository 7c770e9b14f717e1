"""Error metrics used throughout the evaluation.

The paper reports mean squared error between true and reconstructed range
answers (each normalised to [0, 1]), plus standard deviations over repeated
runs.  These helpers keep the bookkeeping in one place so experiments,
benchmarks and tests agree on definitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np


def squared_errors(estimates: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """Element-wise squared errors."""
    estimates = np.asarray(estimates, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if estimates.shape != truths.shape:
        raise ValueError(
            f"shape mismatch: estimates {estimates.shape} vs truths {truths.shape}"
        )
    return (estimates - truths) ** 2


def mean_squared_error(estimates: np.ndarray, truths: np.ndarray) -> float:
    """Mean squared error."""
    errors = squared_errors(estimates, truths)
    if errors.size == 0:
        raise ValueError("cannot compute the MSE of zero queries")
    return float(errors.mean())


def mean_absolute_error(estimates: np.ndarray, truths: np.ndarray) -> float:
    """Mean absolute error."""
    errors = np.abs(np.asarray(estimates, dtype=np.float64) - np.asarray(truths, dtype=np.float64))
    if errors.size == 0:
        raise ValueError("cannot compute the MAE of zero queries")
    return float(errors.mean())


def max_absolute_error(estimates: np.ndarray, truths: np.ndarray) -> float:
    """Worst-case absolute error."""
    errors = np.abs(np.asarray(estimates, dtype=np.float64) - np.asarray(truths, dtype=np.float64))
    if errors.size == 0:
        raise ValueError("cannot compute the max error of zero queries")
    return float(errors.max())


@dataclass(frozen=True)
class RepeatedMeasurement:
    """Mean and standard deviation of a metric over repeated runs."""

    mean: float
    std: float
    values: tuple

    @property
    def count(self) -> int:
        """Number of repetitions."""
        return len(self.values)


def summarize_repetitions(values: Sequence[float]) -> RepeatedMeasurement:
    """Aggregate one metric measured over several repetitions."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot summarise zero repetitions")
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return RepeatedMeasurement(mean=float(arr.mean()), std=std, values=tuple(arr.tolist()))


def scaled_for_presentation(value: float, scale: float = 1000.0) -> float:
    """The paper multiplies MSE values by 1000 in its tables; mirror that."""
    return value * scale


def mse_by_group(
    estimates_by_group: Dict[int, np.ndarray], truths_by_group: Dict[int, np.ndarray]
) -> Dict[int, float]:
    """Per-group MSE (e.g. keyed by range length for Figure 4)."""
    if set(estimates_by_group) != set(truths_by_group):
        raise ValueError("estimate and truth groups do not match")
    return {
        key: mean_squared_error(estimates_by_group[key], truths_by_group[key])
        for key in estimates_by_group
    }
