#!/usr/bin/env python3
"""Gate fresh benchmark runs against the committed baseline.

Run with:  python benchmarks/gate.py [BENCH_<bench>.json] RUN.json [RUN.json ...]

Every committed ``BENCH_*.json`` file and every run of a benchmark script
has one shape::

    {"bench", "preset", "version", "python", "numpy", "config",
     "metrics": {name: {"value", "unit", "better", "bound" | "limit"}}}

An argument named ``BENCH_*.json`` is the committed baseline; every other
argument is a fresh run of the same bench, preset and config.  A metric's
fresh value is its median over the runs, and the gate fails when:

* a flag (``{"value": true}``) is not true in every run;
* any other value is not a positive number in some run;
* the median misses the metric's absolute ``limit`` (at least it when
  higher is better, at most it when lower is better);
* the median, against the committed value, falls below ``1 - bound``:
  higher-is-better metrics compare median / committed, lower-is-better
  ones committed / median.  Without a committed file (smoke presets)
  only limits, flags and positivity apply;
* a run misses a metric, adds one, or declares its ``unit``, ``better``,
  ``bound`` or ``limit`` differently from the committed file (or, with
  none, from the first run), so loosening a gate shows in the BENCH diff.

Prints one line per metric and the worst ratio, then every failure, and
exits 1 if there was any.
"""

from __future__ import annotations

import copy
import json
import math
import statistics
import sys
from pathlib import Path

DECLARATION = ("unit", "better", "bound", "limit")


def load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def median_document(runs: list[dict]) -> dict:
    """The first run with every numeric value replaced by its median over ``runs``.

    This is how a committed file is re-baselined from several runs.
    """
    document = copy.deepcopy(runs[0])
    for name, metric in document["metrics"].items():
        if not isinstance(metric["value"], bool):
            metric["value"] = statistics.median(run["metrics"][name]["value"] for run in runs)
    return document


def _is_positive_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value > 0
    )


def check(committed: dict | None, runs: list[dict]) -> list[str]:
    """Print the per-metric report and return every failure (none: pass)."""
    reference = committed if committed is not None else runs[0]
    failures = []
    for key in ("bench", "preset", "config"):
        for index, run in enumerate(runs):
            if run.get(key) != reference.get(key):
                failures.append(
                    f"run {index + 1} {key} {run.get(key)!r} differs from "
                    f"{reference.get(key)!r}"
                )
    if failures:
        return failures
    declared = reference["metrics"]
    if not declared:
        return [f"{reference['bench']} declares no metrics"]
    for index, run in enumerate(runs):
        for name in sorted(declared.keys() - run["metrics"].keys()):
            failures.append(f"{name}: missing from run {index + 1}")
        for name in sorted(run["metrics"].keys() - declared.keys()):
            failures.append(f"{name}: run {index + 1} adds a metric the baseline lacks")
    worst = None
    for name, entry in declared.items():
        runs_with = [run["metrics"][name] for run in runs if name in run["metrics"]]
        if not runs_with:
            continue
        for metric in runs_with:
            for field in DECLARATION:
                if metric.get(field) != entry.get(field):
                    failures.append(
                        f"{name}: a run declares {field} {metric.get(field)!r}, "
                        f"the baseline {entry.get(field)!r}"
                    )
        values = [metric["value"] for metric in runs_with]
        if isinstance(entry["value"], bool):
            if not all(value is True for value in values):
                failures.append(f"{name}: flag is not true in every run: {values}")
            print(f"  {name}: {values}")
            continue
        if not all(_is_positive_number(value) for value in values):
            failures.append(f"{name}: every value must be a positive number: {values}")
            continue
        if entry.get("better") not in ("higher", "lower"):
            failures.append(f"{name}: better must be 'higher' or 'lower'")
            continue
        higher = entry["better"] == "higher"
        median = statistics.median(values)
        line = f"  {name}: median {median:,.6g} {entry.get('unit', '')}"
        limit = entry.get("limit")
        if limit is not None and (median < limit if higher else median > limit):
            failures.append(
                f"{name}: median {median:,.6g} is {'below' if higher else 'above'} "
                f"the limit {limit:,.6g}"
            )
        bound = entry.get("bound")
        if committed is not None and bound is not None:
            old = entry["value"]
            ratio = median / old if higher else old / median
            line += f" vs committed {old:,.6g} ({ratio:.2f}x, floor {1 - bound:.2f}x)"
            if worst is None or ratio < worst[0]:
                worst = (ratio, name)
            if ratio < 1 - bound:
                failures.append(
                    f"{name}: {ratio:.2f}x the committed value, below the "
                    f"{1 - bound:.2f}x floor ({old:,.6g} -> {median:,.6g})"
                )
        print(line)
    if worst is not None:
        bench = f"{reference['bench']}/{reference['preset']}"
        print(f"{bench}: worst ratio {worst[0]:.2f}x ({worst[1]})")
    return failures


def main(argv: list[str]) -> int:
    committed = [path for path in argv if Path(path).name.startswith("BENCH_")]
    fresh = [path for path in argv if path not in committed]
    if len(committed) > 1 or not fresh:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    runs = [load(path) for path in fresh]
    failures = check(load(committed[0]) if committed else None, runs)
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
