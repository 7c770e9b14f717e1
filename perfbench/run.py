"""Run one workload of the service benchmark and print its metrics.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 16 --trace 0

Builds the workload's inputs from ``--seed``, boots a gateway process
(2 shard workers, store and WAL on) five times to time set-up, drives
the measured traffic over HTTP from this process, checks every answer,
and prints one JSON line: ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` runs the same traffic once untraced and once against a traced
gateway, writes the stage budget to ``.perfbench/traces/`` and reports
the per-layer metrics.  Human-readable detail goes to standard error.
Everything the run writes stays under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench"

if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no repro sources under {ROOT / 'src'}")
for _entry in (str(ROOT / "src"), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from perfbench import harness, tracing  # noqa: E402
from perfbench.client import CallLog  # noqa: E402
from perfbench.inputs import (  # noqa: E402
    WORKLOADS,
    Workload,
    build_inputs,
    build_store,
)
from perfbench.workloads import (  # noqa: E402
    check_calls,
    check_frequencies,
    check_queries,
    check_stats,
    drive,
    end_to_end,
    reference_frequencies,
)

#: Gateway boots per timed run; ``setup_s`` is their median.
SETUP_BOOTS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "ingest_reports_per_s": "1/s",
    "ingest_p50_ms": "ms",
    "ingest_p90_ms": "ms",
    "close_p50_ms": "ms",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "service_rss_mb": "MB",
    "disk_mb": "MB",
}


class Pass:
    """One gateway's measured phase: its calls, metrics and gate verdict."""

    def __init__(self) -> None:
        self.setups = []
        self.log = CallLog()
        self.epochs = []
        self.stats = {}
        self.metrics = {}
        self.problems = []

    @property
    def client_seconds(self) -> float:
        return sum(call.latency_ms for call in self.log.calls) / 1e3


def run_pass(inputs, directory: str, store_template: str, references: dict,
             boots: int = 1, launcher=harness.ServiceProcess,
             trace_dir: str = "") -> Pass:
    """Boot ``boots`` times, drive the last gateway, gate its answers.

    ``references`` caches the expected frequencies per batch list across
    the passes of one run.
    """
    result = Pass()
    gateway = None
    try:
        for boot in range(boots):
            if gateway is not None:
                gateway.close()
            gateway = harness.Gateway(
                inputs.spec, os.path.join(directory, f"gateway-{boot}"),
                store_template, launcher,
            )
            result.setups.append(gateway.boot())
        boot_closed = int(gateway.stats()["closed_reports"])
        result.epochs = drive(inputs, gateway.port, result.log, "perfbench")
        result.stats = gateway.stats()
        result.metrics = {
            **end_to_end(result.log, result.epochs),
            "setup_s": statistics.median(result.setups),
            "service_rss_mb": gateway.peak_rss_mb(),
            "disk_mb": gateway.disk_mb(),
        }
        result.problems = check_calls(result.log) + check_stats(
            result.stats, boot_closed
        )
        if not result.problems:
            for epoch in result.epochs:
                if id(epoch.batches) not in references:
                    references[id(epoch.batches)] = reference_frequencies(
                        inputs.spec, epoch.batches
                    )
            expected = {
                epoch.epoch: references[id(epoch.batches)] for epoch in result.epochs
            }
            result.problems += check_frequencies(gateway.port, expected)
        if trace_dir:
            gateway.process.dump_spans(trace_dir)
        gateway.stop()
        if not result.problems:
            result.problems += check_queries(gateway.store_dir, result.log)
    finally:
        if gateway is not None:
            gateway.close()
    return result


def _per_layer(untraced: Pass, traced: Pass, analysis: dict) -> dict:
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}_s"] = (analysis["busy_s"].get(layer, 0.0), "s")
        count = tracing.CALL_COUNT_NAMES.get(layer, f"{layer}.calls")
        metrics[count] = (analysis["calls"].get(layer, 0), "count")
    extras = analysis["extras"]
    plans = extras.get("store.plan", [])
    covered = sum(epochs for _, epochs in plans)
    hits = sum(w.get("hash_cache", {}).get("hits", 0) for w in traced.stats["workers"])
    misses = sum(
        w.get("hash_cache", {}).get("misses", 0) for w in traced.stats["workers"]
    )
    metrics.update({
        "wal.bytes": (sum(extras.get("wal.append", [])), "B"),
        "store.segment_bytes": (sum(extras.get("store.segment_write", [])), "B"),
        "store.plan_nodes": (
            sum(nodes for nodes, _ in plans) / covered if covered else 0.0,
            "nodes/epoch",
        ),
        "gateway.rejected_429": (traced.stats["accepted"]["rejected_busy"], "count"),
        "gateway.duplicates": (
            traced.stats["accepted"]["duplicates_dropped"], "count"
        ),
        "workers.errors": (
            sum(w.get("errors", 0) for w in traced.stats["workers"]), "count"
        ),
        "hash_cache.hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0, "ratio"
        ),
        "trace.failed_spans": (sum(analysis["failures"].values()), "count"),
        "trace.total_s": (analysis["total_s"], "s"),
        "trace.other_s": (analysis["budget_s"].get("other", 0.0), "s"),
        "trace.untraced_total_s": (untraced.client_seconds, "s"),
        "trace.overhead_s": (
            analysis["total_s"] - untraced.client_seconds, "s"
        ),
    })
    return metrics


def _write_budget(workload: str, seed: int, untraced: Pass, analysis: dict) -> None:
    budget = analysis["budget_s"]
    total = analysis["total_s"]
    document = {
        "workload": workload,
        "seed": seed,
        "traced_total_s": total,
        "untraced_total_s": untraced.client_seconds,
        "tracing_overhead_s": total - untraced.client_seconds,
        "budget_s": dict(sorted(budget.items(), key=lambda item: -item[1])),
        "budget_sum_s": sum(budget.values()),
        "busy_s": analysis["busy_s"],
        "calls": analysis["calls"],
        "failures": analysis["failures"],
    }
    directory = WORK_DIR / "traces"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{workload}-seed{seed}.json"
    path.write_text(json.dumps(document, indent=2) + "\n")
    print(f"stage budget of {workload} (seed {seed}), traced client time "
          f"{total:.3f} s, untraced {untraced.client_seconds:.3f} s:",
          file=sys.stderr)
    for name, seconds in document["budget_s"].items():
        print(f"  {name:28s} {seconds:9.4f} s  {100 * seconds / total:5.1f}%",
              file=sys.stderr)


def run(workload: Workload, seed: int, trace: bool,
        boots: int = SETUP_BOOTS) -> dict:
    """One benchmark run; returns the result document."""
    inputs = build_inputs(workload, seed)
    (WORK_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR / "tmp")
    references: dict = {}
    try:
        template = ""
        if workload.preseed_epochs:
            template = os.path.join(directory, "template")
            build_store(template, workload, seed)
        if not trace:
            timed = run_pass(inputs, os.path.join(directory, "timed"), template,
                             references, boots=boots)
            passes = [timed]
            metrics = {
                name: (timed.metrics[name], unit)
                for name, unit in END_TO_END_UNITS.items()
            }
        else:
            untraced = run_pass(inputs, os.path.join(directory, "untraced"),
                                template, references)
            trace_dir = os.path.join(directory, "spans")
            os.makedirs(trace_dir)
            os.environ[tracing.TRACE_DIR_ENV] = trace_dir
            try:
                traced = run_pass(
                    inputs, os.path.join(directory, "traced"), template,
                    references, launcher=tracing.TracedServiceProcess,
                    trace_dir=trace_dir,
                )
            finally:
                del os.environ[tracing.TRACE_DIR_ENV]
            passes = [untraced, traced]
            span_files = [
                os.path.join(trace_dir, name) for name in sorted(os.listdir(trace_dir))
            ]
            analysis = tracing.analyze(traced.log.calls, span_files)
            _write_budget(workload.name, seed, untraced, analysis)
            metrics = _per_layer(untraced, traced, analysis)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    for one in passes:
        calls = one.log.calls
        print(f"{workload.name}: {len(calls)} requests over "
              f"{(max(c.end for c in calls) - min(c.start for c in calls)) / 1e9:.2f} s "
              f"measured, {len(one.epochs)} epochs", file=sys.stderr)
    problems = [problem for one in passes for problem in one.problems]
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    attempted = sum(len(one.log.calls) for one in passes)
    failed = sum(1 for one in passes for call in one.log.calls if not call.ok)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        } if not problems else {},
    }


def _stop_own_children() -> list:
    """Stop the resource tracker and reap every child; returns survivors.

    The first spawned gateway started this process's multiprocessing
    resource tracker; it idles until its parent exits, so stop it here
    for the no-survivor check to hold.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    harness.wait_exited(harness.child_pids(), timeout=20.0)
    return harness.child_pids()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    (WORK_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    # Child processes inherit TMPDIR; resetting tempfile's cached choice
    # makes this process follow it too.
    os.environ["TMPDIR"] = str(WORK_DIR / "tmp")
    tempfile.tempdir = None
    harness.become_subreaper()
    try:
        workload = WORKLOADS[args.workload].scaled(args.seconds)
        result = run(workload, args.seed, bool(args.trace))
    finally:
        survivors = _stop_own_children()
    if survivors:
        print(f"perfbench: child processes outlived the run: {survivors}",
              file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
