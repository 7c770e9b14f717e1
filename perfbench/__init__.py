"""End-to-end service benchmark: one gateway process driven over HTTP.

Run ``python3 perfbench/run.py --workload ingest --seed 1 --seconds 10
--trace 0`` from the repository root; see ``perfbench/README.md`` for the
workloads, the metrics and the traced per-layer budget.
"""
