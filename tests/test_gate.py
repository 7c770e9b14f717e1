"""Tests for the benchmark gate (``benchmarks/gate.py``).

Every CI benchmark gate is one ``gate.py`` call over files of one shape;
these pin its rules: relative bounds against the committed file on the
median of the runs, absolute limits, flags, and declarations that must
match the committed file exactly.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

GATE_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "gate.py"
_spec = importlib.util.spec_from_file_location("gate", GATE_PATH)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

COMMITTED = {
    "bench": "store",
    "preset": "default",
    "version": "1.12.0",
    "python": "3.11.7",
    "numpy": "2.4.6",
    "config": {"epochs": 1024},
    "metrics": {
        "build.sealed_epochs_per_s": {
            "value": 100.0, "unit": "epochs/s", "better": "higher", "bound": 0.3,
        },
        "restore_ms": {"value": 10.0, "unit": "ms", "better": "lower", "bound": 0.3},
        "speedup": {"value": 20.0, "unit": "x", "better": "higher", "limit": 3.0},
        "bit_identical": {"value": True},
    },
}


def run_with(**values):
    """A fresh run: the committed document with some values replaced."""
    run = copy.deepcopy(COMMITTED)
    for name, value in values.items():
        run["metrics"][name]["value"] = value
    return run


def gate_files(tmp_path, runs, committed=COMMITTED):
    """Write the files and run the gate on them as CI does; return its exit code."""
    paths = []
    if committed is not None:
        paths.append(tmp_path / f"BENCH_{committed['bench']}.json")
        paths[-1].write_text(json.dumps(committed))
    for index, run in enumerate(runs):
        paths.append(tmp_path / f"run_{index}.json")
        paths[-1].write_text(json.dumps(run))
    return gate.main([str(path) for path in paths])


def test_a_run_like_the_baseline_passes(tmp_path, capsys):
    runs = [run_with(**{"build.sealed_epochs_per_s": rate}) for rate in (95.0, 99.0, 110.0)]
    assert gate_files(tmp_path, runs) == 0
    assert "worst ratio 0.99x (build.sealed_epochs_per_s)" in capsys.readouterr().out


def test_a_rate_below_the_floor_fails_naming_metric_and_ratio(tmp_path, capsys):
    assert gate_files(tmp_path, [run_with(**{"build.sealed_epochs_per_s": 69.0})]) == 1
    out = capsys.readouterr().out
    assert "FAIL build.sealed_epochs_per_s: 0.69x the committed value" in out
    # exactly at the floor still passes: (1 - b) x committed
    assert gate_files(tmp_path, [run_with(**{"build.sealed_epochs_per_s": 70.0})]) == 0


def test_a_lower_is_better_metric_above_its_ceiling_fails(tmp_path, capsys):
    # committed / (1 - b) = 10 / 0.7 = 14.29 ms
    assert gate_files(tmp_path, [run_with(restore_ms=14.2)]) == 0
    assert gate_files(tmp_path, [run_with(restore_ms=14.4)]) == 1
    assert "FAIL restore_ms: 0.69x" in capsys.readouterr().out


def test_a_false_flag_fails_even_in_one_run_of_three(tmp_path, capsys):
    runs = [run_with(), run_with(bit_identical=False), run_with()]
    assert gate_files(tmp_path, runs) == 1
    assert "bit_identical: flag is not true in every run" in capsys.readouterr().out


def test_a_missing_metric_fails(tmp_path, capsys):
    run = run_with()
    del run["metrics"]["restore_ms"]
    assert gate_files(tmp_path, [run]) == 1
    assert "restore_ms: missing from run 1" in capsys.readouterr().out


def test_an_added_metric_fails(tmp_path, capsys):
    run = run_with()
    run["metrics"]["new_ms"] = {"value": 1.0, "unit": "ms", "better": "lower"}
    assert gate_files(tmp_path, [run]) == 1
    assert "new_ms: run 1 adds a metric" in capsys.readouterr().out


@pytest.mark.parametrize(
    "name, field, value",
    [
        ("build.sealed_epochs_per_s", "bound", 0.5),
        ("build.sealed_epochs_per_s", "bound", None),
        ("speedup", "limit", 2.0),
        ("restore_ms", "unit", "s"),
        ("restore_ms", "better", "higher"),
    ],
)
def test_a_changed_declaration_fails(tmp_path, capsys, name, field, value):
    run = run_with()
    if value is None:
        del run["metrics"][name][field]
    else:
        run["metrics"][name][field] = value
    assert gate_files(tmp_path, [run]) == 1
    assert f"{name}: a run declares {field}" in capsys.readouterr().out


def test_one_slow_run_of_three_does_not_fail_the_median(tmp_path):
    runs = [run_with(**{"build.sealed_epochs_per_s": rate}) for rate in (98.0, 20.0, 104.0)]
    assert gate_files(tmp_path, runs) == 0
    runs[2]["metrics"]["build.sealed_epochs_per_s"]["value"] = 30.0
    assert gate_files(tmp_path, runs) == 1


def test_a_missed_limit_fails(tmp_path, capsys):
    assert gate_files(tmp_path, [run_with(speedup=2.9)]) == 1
    assert "FAIL speedup: median 2.9 is below the limit 3" in capsys.readouterr().out


def test_a_smoke_file_without_a_baseline_checks_only_limits_and_flags(tmp_path, capsys):
    smoke = run_with(**{"build.sealed_epochs_per_s": 1.0, "restore_ms": 900.0})
    smoke["preset"] = "smoke"
    assert gate_files(tmp_path, [smoke], committed=None) == 0
    assert "worst ratio" not in capsys.readouterr().out
    smoke["metrics"]["speedup"]["value"] = 1.0  # below its limit of 3
    assert gate_files(tmp_path, [smoke], committed=None) == 1
    smoke["metrics"]["speedup"]["value"] = 20.0
    smoke["metrics"]["bit_identical"]["value"] = False
    assert gate_files(tmp_path, [smoke], committed=None) == 1


@pytest.mark.parametrize("value", [0, 0.0, -1.0, float("nan"), None, "fast"])
def test_every_value_must_be_a_positive_number(tmp_path, capsys, value):
    smoke = run_with(restore_ms=value)
    assert gate_files(tmp_path, [smoke], committed=None) == 1
    assert "restore_ms: every value must be a positive number" in capsys.readouterr().out


def test_a_run_of_another_preset_or_config_fails(tmp_path, capsys):
    smoke = run_with()
    smoke["preset"] = "smoke"
    assert gate_files(tmp_path, [smoke]) == 1
    assert "run 1 preset 'smoke' differs from 'default'" in capsys.readouterr().out
    other = run_with()
    other["config"] = {"epochs": 1024, "shards": 2}
    assert gate_files(tmp_path, [other]) == 1


def test_usage_needs_a_run_and_at_most_one_baseline(tmp_path):
    assert gate.main([]) == 2
    committed = tmp_path / "BENCH_store.json"
    committed.write_text(json.dumps(COMMITTED))
    assert gate.main([str(committed)]) == 2


def test_median_document_re_baselines_from_several_runs():
    runs = [run_with(**{"build.sealed_epochs_per_s": rate}) for rate in (90.0, 120.0, 100.0)]
    document = gate.median_document(runs)
    assert document["metrics"]["build.sealed_epochs_per_s"]["value"] == 100.0
    assert document["metrics"]["bit_identical"]["value"] is True
    assert runs[0]["metrics"]["build.sealed_epochs_per_s"]["value"] == 90.0
