"""Smoke + shape tests for every figure reproduction driver.

These run the actual experiment code end-to-end at a deliberately tiny scale
and check that the outputs have the right structure and obey the paper's
coarse qualitative claims where those are robust even at small scale.  Each
claim also runs at the ``smoke`` preset with that preset's own seed.
"""

import numpy as np
import pytest

from repro.experiments.ablations import (
    format_ablation,
    run_consistency_ablation,
    run_prefix_vs_range,
    run_sampling_vs_splitting,
)
from repro.experiments.config import ExperimentConfig, get_config
from repro.experiments.figure4 import best_method_per_cell, format_figure4, run_figure4
from repro.experiments.figure5 import (
    format_epsilon_sweep,
    run_figure5,
    winners_by_epsilon,
)
from repro.experiments.figure6 import (
    format_figure6,
    format_prefix_improvement,
    prefix_improvement,
    run_figure6,
)
from repro.experiments.figure7 import format_figure7, run_figure7
from repro.experiments.figure8 import format_figure8, max_relative_spread, run_figure8
from repro.experiments.figure9 import format_figure9, max_quantile_error, run_figure9
from repro.experiments.__main__ import EXPERIMENTS, main


TINY = ExperimentConfig(
    domain_sizes=(64,),
    n_users=2**14,
    epsilon=1.1,
    epsilons=(0.4, 1.1),
    center_fractions=(0.2, 0.6),
    repetitions=1,
    branching_factors=(2, 4),
    num_start_points=6,
    exhaustive_domain_limit=64,
    centralized_domain_sizes=(32, 64),
    seed=7,
)

SMOKE = get_config("smoke")


def tiny_and_smoke(tiny_seed):
    """Run a claim on ``TINY`` with ``tiny_seed`` and on ``SMOKE`` with its own seed."""
    return pytest.mark.parametrize(
        ("config", "rng"), [(TINY, tiny_seed), (SMOKE, None)], ids=["tiny", "smoke"]
    )


class TestFigure4:
    def test_runs_and_formats(self):
        cells = run_figure4(TINY, rng=1)
        assert cells
        methods = {cell.method for cell in cells}
        assert "FlatOUE" in methods and "HaarHRR" in methods
        assert any(method.startswith("TreeOUE") for method in methods)
        text = format_figure4(cells)
        assert "Figure 4" in text and "HaarHRR" in text

    @tiny_and_smoke(2)
    def test_flat_not_best_for_long_ranges(self, config, rng):
        best = best_method_per_cell(run_figure4(config, rng=rng))
        for domain in config.domain_sizes:
            long_range = max(length for (d, length) in best if d == domain)
            assert best[(domain, long_range)] != "FlatOUE"


class TestFigures5And6:
    def test_epsilon_sweep_structure(self):
        cells = run_figure5(TINY, rng=3)
        assert {cell.method for cell in cells} == {"HHc2", "HHc4", "HHc16", "HaarHRR"}
        assert {cell.epsilon for cell in cells} == {0.4, 1.1}
        text = format_epsilon_sweep(cells, "Figure 5")
        assert "MSE x1000" in text

    @tiny_and_smoke(4)
    def test_error_decreases_with_epsilon(self, config, rng):
        cells = run_figure5(config, rng=rng)
        for domain in config.domain_sizes:
            for method in ("HHc2", "HHc4", "HHc16", "HaarHRR"):
                series = sorted(
                    (c.epsilon, c.result.mse_mean)
                    for c in cells
                    if c.domain_size == domain and c.method == method
                )
                assert len(series) == len(config.epsilons)
                assert series[-1][1] < series[0][1]

    def test_winner_map_covers_all_cells(self):
        cells = run_figure5(TINY, rng=5)
        winners = winners_by_epsilon(cells)
        assert set(winners) == {(64, 0.4), (64, 1.1)}

    def test_prefix_sweep_and_improvement(self):
        range_cells = run_figure5(TINY, rng=6)
        prefix_cells = run_figure6(TINY, rng=6)
        assert len(prefix_cells) == len(range_cells)
        ratios = prefix_improvement(range_cells, prefix_cells)
        assert ratios
        # Prefixes should not be dramatically harder than arbitrary ranges.
        assert np.median(list(ratios.values())) < 1.6
        assert "prefix/range" in format_prefix_improvement(ratios)
        assert "Figure 6" in format_figure6(prefix_cells)

    @tiny_and_smoke(6)
    def test_prefix_errors_are_small(self, config, rng):
        cells = run_figure6(config, rng=rng)
        assert max(cell.result.mse_mean for cell in cells) < 0.5


class TestFigure7:
    def test_rows_and_ratios(self):
        rows = run_figure7(TINY, rng=7)
        assert [row.domain_size for row in rows] == [32, 64]
        for row in rows:
            assert row.central_wavelet_mse > 0
            assert row.central_hh16_mse > 0
            assert row.local_ratio_haar_vs_hh > 0
        assert "Figure 7" in format_figure7(rows)

    @tiny_and_smoke(8)
    def test_centralized_error_below_local(self, config, rng):
        # Centralized error is far below local error (1/N^2 vs 1/N scaling),
        # and the local wavelet/hierarchical gap is well below a factor of 10.
        for row in run_figure7(config, rng=rng):
            assert row.central_hh16_mse < row.local_hh4_mse
            assert row.local_ratio_haar_vs_hh < 10.0


class TestFigure8:
    @pytest.mark.parametrize(
        ("config", "rng", "spread"),
        [(TINY, 9, 5.0), (SMOKE, None, 20.0)],
        ids=["tiny", "smoke"],
    )
    def test_structure_and_stability(self, config, rng, spread):
        cells = run_figure8(config, rng=rng)
        assert {cell.method for cell in cells} == {"HHc4", "HaarHRR"}
        assert {cell.center_fraction for cell in cells} == set(config.center_fractions)
        # Absolute errors stay small for every centre, with a moderate spread.
        assert max(cell.result.mse_mean for cell in cells) < 0.5
        assert max_relative_spread(cells) < spread
        assert "Figure 8" in format_figure8(cells)


class TestFigure9:
    @tiny_and_smoke(10)
    def test_quantile_errors_small(self, config, rng):
        cells = run_figure9(config, rng=rng)
        assert {cell.method for cell in cells} == {"HHc2", "HaarHRR"}
        assert len({(c.center_fraction, c.method, c.phi) for c in cells}) == len(cells)
        assert len(cells) == 2 * 2 * 9
        assert max_quantile_error(cells) < 0.25
        assert "Figure 9" in format_figure9(cells)


class TestAblations:
    @tiny_and_smoke(11)
    def test_sampling_beats_splitting(self, config, rng):
        rows = run_sampling_vs_splitting(config, rng=rng)
        for domain in config.domain_sizes:
            mse = {r.label: r.mse for r in rows if r.domain_size == domain}
            assert mse["HHc4-sample"] < mse["HHc4-split"]

    @tiny_and_smoke(12)
    def test_consistency_rows_present(self, config, rng):
        rows = run_consistency_ablation(config, rng=rng)
        assert "variant" in format_ablation(rows, "A2")
        # Constrained inference is never much worse than the raw estimate.
        by_key = {(row.domain_size, row.label): row.mse for row in rows}
        pairs = [
            (mse, by_key[(domain, label.replace("CI", "", 1))])
            for (domain, label), mse in by_key.items()
            if "CI" in label
        ]
        assert pairs
        assert all(ci < raw * 1.2 for ci, raw in pairs)

    @tiny_and_smoke(13)
    def test_prefix_vs_range_rows(self, config, rng):
        rows = run_prefix_vs_range(config, rng=rng)
        # Prefixes are not much harder than arbitrary ranges.
        by_label = {(row.domain_size, row.label): row.mse for row in rows}
        pairs = [
            (mse, by_label[(domain, label.replace("-prefix", "-range"))])
            for (domain, label), mse in by_label.items()
            if label.endswith("-prefix")
        ]
        assert pairs
        assert all(prefix < ranged * 1.8 for prefix, ranged in pairs)


class TestCli:
    def test_experiment_registry(self):
        assert set(EXPERIMENTS) == {
            "figure4",
            "figure5",
            "figure6",
            "figure7",
            "figure8",
            "figure9",
            "ablations",
        }

    def test_main_runs_figure5_smoke(self, capsys):
        exit_code = main(["figure5", "--preset", "smoke", "--seed", "1"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "figure5" in captured.out
        assert "MSE x1000" in captured.out
