"""Shared machinery for the figure/table reproductions.

Every experiment follows the same loop: build a synthetic population, pick
a query workload, run each competing method ``repetitions`` times with
independent randomness, and record the mean squared error between the
estimated and exact answers.  This module centralises that loop plus the
naming scheme for methods ("HHc4", "HaarHRR", "FlatOUE", "TreeHRRCI", ...)
so experiments, benchmarks and tests all construct exactly the same
protocol objects.
"""

from __future__ import annotations

import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro import (
    PROTOCOL_ALIASES,
    PROTOCOL_REGISTRY,
    accepted_protocol_kwargs,
    make_protocol,
)
from repro.analysis.metrics import mean_squared_error, summarize_repetitions
from repro.core.protocol import RangeQueryProtocol
from repro.core.rng import RngLike, ensure_rng, spawn_rngs
from repro.core.types import RangeSpec
from repro.engine import Engine
from repro.data.synthetic import cauchy_population
from repro.flat import FlatRangeQuery
from repro.hierarchy import HierarchicalHistogram
from repro.queries.workload import (
    RangeWorkload,
    all_range_workload,
    prefix_workload,
    sampled_range_workload,
    true_answers,
)
from repro.wavelet import HaarHRR

#: Pattern for hierarchical method names: HH4, HHc16, HH8c (paper style HHc_B).
_HH_PATTERN = re.compile(r"^hh(c?)(\d+)$")
#: Pattern for the Tree<ORACLE>[CI] naming used in Figure 4.
_TREE_PATTERN = re.compile(r"^tree(oue|hrr|olh|grr)(ci?)$|^tree(oue|hrr|olh|grr)$")


def make_method(
    name: str, domain_size: int, epsilon: float, branching: int = 4
) -> RangeQueryProtocol:
    """Construct a protocol from one of the paper's method names.

    Recognised names (case-insensitive):

    * ``FlatOUE``, ``FlatHRR``, ``FlatOLH`` -- flat baselines;
    * ``HH<B>`` / ``HHc<B>`` -- hierarchical histograms with OUE, without /
      with constrained inference (e.g. ``HHc4``);
    * ``TreeOUE``, ``TreeOUECI``, ``TreeHRR``, ``TreeHRRCI``, ``TreeOLH``,
      ``TreeOLHCI`` -- hierarchical histograms with an explicit oracle and
      the supplied ``branching``;
    * ``HaarHRR`` -- the wavelet method;
    * any 1-D :func:`repro.make_protocol` registry handle or alias
      (``flat``, ``hh``, ``haar``, ``wavelet``), built with the supplied
      ``branching`` where the protocol accepts one; the 2-D ``grid2d``
      handle is excluded because the evaluation loop answers scalar
      ranges.
    """
    key = name.strip().lower()
    if key == "haarhrr":
        return HaarHRR(domain_size, epsilon)
    registry_key = PROTOCOL_ALIASES.get(key, key)
    cls = PROTOCOL_REGISTRY.get(registry_key)
    # Only 1-D range protocols fit the evaluation loop (simulate_aggregate
    # over a scalar histogram); the 2-D grid handle is deliberately excluded.
    if cls is not None and issubclass(cls, RangeQueryProtocol):
        kwargs = (
            {"branching": branching}
            if "branching" in accepted_protocol_kwargs(cls)
            else {}
        )
        return make_protocol(registry_key, domain_size, epsilon, **kwargs)
    if key.startswith("flat"):
        oracle = key[len("flat") :] or "oue"
        return FlatRangeQuery(domain_size, epsilon, oracle=oracle)
    match = _HH_PATTERN.match(key)
    if match:
        consistency = match.group(1) == "c"
        fanout = int(match.group(2))
        return HierarchicalHistogram(
            domain_size, epsilon, branching=fanout, oracle="oue", consistency=consistency
        )
    match = _TREE_PATTERN.match(key)
    if match:
        oracle = match.group(1) or match.group(3)
        consistency = bool(match.group(2))
        return HierarchicalHistogram(
            domain_size, epsilon, branching=branching, oracle=oracle, consistency=consistency
        )
    raise KeyError(f"unrecognised method name {name!r}")


@dataclass
class MethodResult:
    """MSE summary of one method on one configuration."""

    method: str
    mse_mean: float
    mse_std: float
    repetitions: int

    def scaled(self, factor: float = 1000.0) -> float:
        """The mean MSE scaled the way the paper's tables present it."""
        return self.mse_mean * factor


@dataclass
class WorkloadEvaluation:
    """A reusable bundle of queries and their exact answers.

    ``queries`` is an array-native :class:`RangeWorkload`;
    :meth:`from_frequencies` also accepts a sequence of
    :class:`~repro.core.types.RangeSpec` for compatibility and converts it
    once.
    """

    queries: RangeWorkload
    truths: np.ndarray

    @classmethod
    def from_frequencies(
        cls,
        queries: Union[RangeWorkload, Sequence[RangeSpec]],
        frequencies: np.ndarray,
    ) -> "WorkloadEvaluation":
        workload = RangeWorkload.from_queries(queries)
        return cls(queries=workload, truths=true_answers(workload, frequencies))


def build_range_workload(
    domain_size: int,
    exhaustive_limit: int,
    num_start_points: int,
) -> RangeWorkload:
    """All ranges for small domains, the paper's sampled workload otherwise."""
    if domain_size <= exhaustive_limit:
        return all_range_workload(domain_size)
    return sampled_range_workload(domain_size, num_start_points)


def build_prefix_workload(domain_size: int) -> RangeWorkload:
    """Every prefix query (there are only ``D`` of them)."""
    return prefix_workload(domain_size)


def _run_one_repetition(
    spec: Optional[dict],
    protocol: Optional[RangeQueryProtocol],
    true_counts: np.ndarray,
    lefts: np.ndarray,
    rights: np.ndarray,
    truths: np.ndarray,
    repetition_rng: np.random.Generator,
    simulated: bool,
    items: Optional[np.ndarray],
) -> float:
    """One repetition's MSE; module-level so worker processes can pickle it.

    Worker processes receive the protocol ``spec`` and rebuild it; the
    serial path passes the live ``protocol`` object straight through.
    Each repetition runs through the :class:`repro.engine.Engine` façade:
    the simulated path uses the engine's aggregate-simulation driver, the
    full path absorbs the population into one epoch and finalizes the
    ``window="all"`` estimator -- both bit-identical to the direct
    protocol calls they replaced.
    """
    engine = Engine.open(spec if protocol is None else protocol)
    if simulated:
        estimator = engine.simulate(true_counts, rng=repetition_rng)
    else:
        engine.session().absorb(items, rng=repetition_rng)
        estimator = engine.estimator()
    estimates = estimator.range_queries_batch(lefts, rights)
    return mean_squared_error(estimates, truths)


def evaluate_method(
    protocol: RangeQueryProtocol,
    true_counts: np.ndarray,
    workload: WorkloadEvaluation,
    repetitions: int,
    rng: RngLike = None,
    simulated: bool = True,
    items: Optional[np.ndarray] = None,
    workers: int = 1,
) -> MethodResult:
    """Run a protocol ``repetitions`` times and summarise the range-query MSE.

    ``simulated=True`` (default) uses the aggregate simulation path, which
    is statistically equivalent and orders of magnitude faster; pass
    ``simulated=False`` together with ``items`` to exercise the full
    per-user pipeline.

    ``workers > 1`` distributes the repetitions over a process pool.  Every
    repetition owns a spawned child RNG stream regardless of where it runs,
    and results are collected in submission order, so the summary is
    identical to the serial path at any worker count.  Workers rebuild the
    protocol from :meth:`~repro.core.protocol.RangeQueryProtocol.spec`, so
    parallel evaluation requires a registry-constructible protocol.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not simulated and items is None:
        raise ValueError("items are required when simulated=False")
    rngs = spawn_rngs(rng, repetitions)
    queries = RangeWorkload.from_queries(workload.queries)
    if workers == 1 or repetitions == 1:
        errors = [
            _run_one_repetition(
                None,
                protocol,
                true_counts,
                queries.lefts,
                queries.rights,
                workload.truths,
                repetition_rng,
                simulated,
                items,
            )
            for repetition_rng in rngs
        ]
    else:
        spec = protocol.spec()
        with ProcessPoolExecutor(max_workers=min(workers, repetitions)) as pool:
            errors = list(
                pool.map(
                    _run_one_repetition,
                    [spec] * repetitions,
                    [None] * repetitions,
                    [true_counts] * repetitions,
                    [queries.lefts] * repetitions,
                    [queries.rights] * repetitions,
                    [workload.truths] * repetitions,
                    rngs,
                    [simulated] * repetitions,
                    [items] * repetitions,
                )
            )
    summary = summarize_repetitions(errors)
    return MethodResult(
        method=protocol.name,
        mse_mean=summary.mean,
        mse_std=summary.std,
        repetitions=repetitions,
    )


def cauchy_counts(
    domain_size: int,
    n_users: int,
    center_fraction: float,
    rng: RngLike = None,
) -> np.ndarray:
    """Exact histogram of the paper's default Cauchy population."""
    dataset = cauchy_population(
        domain_size=domain_size,
        n_users=n_users,
        center_fraction=center_fraction,
        rng=ensure_rng(rng),
    )
    return dataset.counts()


def format_table(
    rows: Sequence[Sequence[str]], headers: Sequence[str], title: str = ""
) -> str:
    """Plain-text table formatting shared by all experiment drivers."""
    columns = [list(headers)] + [list(map(str, row)) for row in rows]
    widths = [max(len(row[i]) for row in columns) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(header.ljust(width) for header, width in zip(headers, widths)))
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append(
            "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths))
        )
    return "\n".join(lines)
