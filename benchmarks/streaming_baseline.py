#!/usr/bin/env python3
"""Distill the streaming benchmarks into a committed baseline document.

Runs ``bench_streaming.py`` under pytest-benchmark in a subprocess and
distills the raw benchmark JSON into the one benchmark shape
``benchmarks/gate.py`` checks, committed as ``BENCH_streaming.json``:

* ``ingest.<protocol>``: server-side fold throughput (reports/sec);
* ``encode.<protocol>``: client-side privatization throughput
  (reports/sec), timed apart from ingest;
* ``merge_ms.<shards>``: shard-merge latency by shard count.

Run with:  python benchmarks/streaming_baseline.py --output RUN.json
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = Path(__file__).resolve().parent / "bench_streaming.py"

#: Maps ``test_bench_<kind>_<key>`` suffixes to the document keys.
_PROTOCOL_KEYS = {
    "flat_oue": "flat-oue",
    "hh_oue": "hh-oue",
    "haar": "haar",
    "flat_olh": "flat-olh",
    "grid2d": "grid2d",
}


def run_benchmarks(pytest_args: list[str]) -> dict:
    """Run bench_streaming.py in a subprocess and return the raw JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        raw_path = Path(tmp) / "benchmark.json"
        command = [
            sys.executable,
            "-m",
            "pytest",
            str(BENCH_FILE),
            "--benchmark-only",
            "--benchmark-json",
            str(raw_path),
            "-q",
            *pytest_args,
        ]
        completed = subprocess.run(command, cwd=REPO_ROOT)
        if completed.returncode != 0:
            raise SystemExit(f"benchmark run failed (exit {completed.returncode})")
        return json.loads(raw_path.read_text())


def _rate(reports_per_sec: float) -> dict:
    return {"value": reports_per_sec, "unit": "reports/s", "better": "higher", "bound": 0.3}


def distill(raw: dict) -> dict:
    """Reduce pytest-benchmark output to the one benchmark shape."""
    metrics: dict = {}
    for entry in raw.get("benchmarks", []):
        name = entry["name"]
        extra = entry.get("extra_info", {})
        if name.startswith("test_bench_ingest_"):
            key = _PROTOCOL_KEYS[name[len("test_bench_ingest_"):]]
            metrics[f"ingest.{key}"] = _rate(extra["reports_per_sec"])
        elif name.startswith("test_bench_encode_"):
            key = _PROTOCOL_KEYS[name[len("test_bench_encode_"):]]
            metrics[f"encode.{key}"] = _rate(extra["encode_reports_per_sec"])
        elif name.startswith("test_bench_merge_vs_shard_count"):
            metrics[f"merge_ms.{extra['n_shards']}"] = {
                "value": entry["stats"]["mean"] * 1e3, "unit": "ms", "better": "lower",
            }
    import numpy

    from repro import __version__

    return {
        "bench": "streaming",
        "preset": "default",
        "version": __version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "config": {},
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, required=True)
    parser.add_argument(
        "pytest_args",
        nargs="*",
        help="extra arguments forwarded to pytest (e.g. -k 'not merge')",
    )
    args = parser.parse_args()
    document = distill(run_benchmarks(args.pytest_args))
    args.output.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    for name, metric in sorted(document["metrics"].items()):
        print(f"{name:<16} {metric['value']:>14,.3f} {metric['unit']}")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
