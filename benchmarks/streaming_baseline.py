#!/usr/bin/env python3
"""Distill the streaming benchmarks into a committed baseline document.

Runs ``bench_streaming.py`` under pytest-benchmark in a subprocess (so the
kernel backend can be pinned through ``REPRO_KERNEL_BACKEND`` without
mutating this interpreter) and distills the raw benchmark JSON into the
compact, diff-able document committed as ``BENCH_streaming.json``:

* ``ingest``: server-side fold throughput (reports/sec) per protocol;
* ``encode``: client-side privatization throughput (reports/sec) per
  protocol, timed apart from ingest;
* ``merge_ms``: shard-merge latency by shard count;
* ``kernel_backend``: which backend produced the numbers -- the committed
  baseline is always the ``numpy`` reference backend, and the CI accel job
  re-runs with ``--backend numba`` to measure the JIT speedup on the same
  machine.

Run with:  python benchmarks/streaming_baseline.py [--backend numpy|numba]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = Path(__file__).resolve().parent / "bench_streaming.py"
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_streaming.json"

#: Maps ``test_bench_<kind>_<key>`` suffixes to the document keys.
_PROTOCOL_KEYS = {
    "flat_oue": "flat-oue",
    "hh_oue": "hh-oue",
    "haar": "haar",
    "flat_olh": "flat-olh",
    "grid2d": "grid2d",
}


def run_benchmarks(backend: str | None, pytest_args: list[str]) -> dict:
    """Run bench_streaming.py in a subprocess and return the raw JSON."""
    env = dict(os.environ)
    if backend is not None:
        env["REPRO_KERNEL_BACKEND"] = backend
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
        completed = subprocess.run(command, env=env, cwd=REPO_ROOT)
        if completed.returncode != 0:
            raise SystemExit(f"benchmark run failed (exit {completed.returncode})")
        return json.loads(raw_path.read_text())


def distill(raw: dict) -> dict:
    """Reduce pytest-benchmark output to the committed baseline schema."""
    ingest: dict = {}
    encode: dict = {}
    merge_ms: dict = {}
    backends = set()
    for entry in raw.get("benchmarks", []):
        name = entry["name"]
        extra = entry.get("extra_info", {})
        if "kernel_backend" in extra:
            backends.add(extra["kernel_backend"])
        if name.startswith("test_bench_ingest_"):
            key = _PROTOCOL_KEYS[name[len("test_bench_ingest_"):]]
            ingest[key] = extra["reports_per_sec"]
        elif name.startswith("test_bench_encode_"):
            key = _PROTOCOL_KEYS[name[len("test_bench_encode_"):]]
            encode[key] = extra["encode_reports_per_sec"]
        elif name.startswith("test_bench_merge_vs_shard_count"):
            merge_ms[str(extra["n_shards"])] = round(
                entry["stats"]["mean"] * 1e3, 3
            )
    if len(backends) > 1:
        raise SystemExit(f"benchmarks ran under mixed backends: {sorted(backends)}")
    from repro import __version__

    return {
        "schema": 2,
        "version": __version__,
        "python": platform.python_version(),
        "kernel_backend": backends.pop() if backends else "numpy",
        "ingest": ingest,
        "encode": encode,
        "merge_ms": merge_ms,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--backend",
        default=None,
        help="kernel backend to pin via REPRO_KERNEL_BACKEND (default: inherit)",
    )
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument(
        "pytest_args",
        nargs="*",
        help="extra arguments forwarded to pytest (e.g. -k 'not merge')",
    )
    args = parser.parse_args()
    document = distill(run_benchmarks(args.backend, args.pytest_args))
    args.output.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    for kind in ("ingest", "encode"):
        for key, rate in sorted(document[kind].items()):
            print(f"{kind:>6} {key:<10} {rate:>12,.0f} reports/sec")
    print(f"backend={document['kernel_backend']}  wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
