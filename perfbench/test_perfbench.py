"""Smoke-size self-test of the service benchmark.

Every workload runs end to end against a real gateway process at a few
batches per epoch, so the whole file takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from perfbench import run as bench
from perfbench.inputs import WORKLOADS, build_inputs, build_store, fingerprint

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def smoke(name: str):
    """``name`` shrunk to two tiny epochs and a handful of queries."""
    workload = WORKLOADS[name]
    return dataclasses.replace(
        workload,
        batch_size=200,
        batches_per_epoch=3,
        epochs=2,
        queries_per_epoch=3,
        preseed_epochs=min(workload.preseed_epochs, 6),
        windows=tuple(
            window if window in ("all", "last:1") else "last:4"
            for window in workload.windows
        ),
    )


def _units(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_reports_every_end_to_end_metric(name):
    result = bench.run(smoke(name), seed=3, trace=False, boots=1)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert {key: value["unit"] for key, value in metrics.items()} == _units(
        "end_to_end"
    )
    assert all(value["value"] > 0 for value in metrics.values()), metrics


def test_traced_budget_sums_to_the_traced_total():
    result = bench.run(smoke("query"), seed=4, trace=True)
    assert result["correct"], result
    metrics = result["metrics"]
    assert {key: value["unit"] for key, value in metrics.items()} == _units(
        "per_layer"
    )
    budget = json.loads(
        (bench.WORK_DIR / "traces" / "query-seed4.json").read_text()
    )
    assert "other" in budget["budget_s"]
    assert budget["budget_sum_s"] == pytest.approx(
        budget["traced_total_s"], rel=1e-9
    )
    named = sum(
        seconds for stage, seconds in budget["budget_s"].items() if stage != "other"
    )
    assert named > budget["budget_s"]["other"]


def test_inputs_are_a_function_of_the_seed(tmp_path):
    workload = smoke("query")
    digests = []
    for index, seed in enumerate((5, 5, 6)):
        directory = tmp_path / f"store-{index}"
        build_store(str(directory), workload, seed)
        digests.append(fingerprint(build_inputs(workload, seed), str(directory)))
    assert digests[0] == digests[1]
    assert digests[2] != digests[0]
