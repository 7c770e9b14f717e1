"""Tests for the frequency-oracle registry and the protocol registry."""

import numpy as np
import pytest

from repro import PROTOCOL_REGISTRY, make_protocol
from repro.analysis.metrics import mean_squared_error
from repro.data import cauchy_population
from repro.flat import FlatRangeQuery
from repro.frequency_oracles import (
    ORACLE_REGISTRY,
    GeneralizedRandomizedResponse,
    HadamardRandomizedResponse,
    OptimalLocalHashing,
    OptimizedUnaryEncoding,
    make_oracle,
)
from repro.hierarchy import HierarchicalHistogram
from repro.multidim import HierarchicalGrid2D
from repro.wavelet import HaarHRR


class TestOracleRegistry:
    def test_registry_contents(self):
        assert set(ORACLE_REGISTRY) == {
            "oue",
            "olh",
            "hrr",
            "grr",
            "sue",
            "she",
            "the",
        }

    @pytest.mark.parametrize(
        "name, cls",
        [
            ("oue", OptimizedUnaryEncoding),
            ("olh", OptimalLocalHashing),
            ("hrr", HadamardRandomizedResponse),
            ("grr", GeneralizedRandomizedResponse),
        ],
    )
    def test_make_oracle(self, name, cls):
        oracle = make_oracle(name, 16, 1.0)
        assert isinstance(oracle, cls)
        assert oracle.domain_size == 16

    def test_make_oracle_case_insensitive(self):
        assert isinstance(make_oracle("  OUE ", 8, 1.0), OptimizedUnaryEncoding)

    def test_make_oracle_unknown(self):
        with pytest.raises(KeyError):
            make_oracle("nope", 8, 1.0)

    def test_oracle_kwargs_forwarded(self):
        oracle = make_oracle("olh", 16, 1.0, num_buckets=6)
        assert oracle.num_buckets == 6


class TestProtocolRegistry:
    def test_registry_contents(self):
        assert set(PROTOCOL_REGISTRY) == {"flat", "hh", "haar", "grid2d"}

    def test_make_protocol(self):
        assert isinstance(make_protocol("flat", 64, 1.0), FlatRangeQuery)
        assert isinstance(make_protocol("hh", 64, 1.0, branching=8), HierarchicalHistogram)
        assert isinstance(make_protocol("haar", 64, 1.0), HaarHRR)
        assert isinstance(make_protocol("grid2d", 16, 1.0), HierarchicalGrid2D)

    def test_make_protocol_grid_defaults_to_square(self):
        grid = make_protocol("grid2d", 16, 1.0)
        assert (grid.domain_size_x, grid.domain_size_y) == (16, 16)
        rect = make_protocol("grid", 16, 1.0, domain_size_y=32, branching=4)
        assert (rect.domain_size_x, rect.domain_size_y) == (16, 32)
        assert rect.branching == 4

    def test_make_protocol_unknown(self):
        with pytest.raises(KeyError):
            make_protocol("unknown", 64, 1.0)

    def test_protocol_kwargs_forwarded(self):
        protocol = make_protocol("hh", 64, 1.0, branching=8, oracle="hrr", consistency=False)
        assert protocol.branching == 8
        assert protocol.oracle_name == "hrr"
        assert protocol.consistency is False


class TestOracleAccuracyOrdering:
    def test_optimal_oracles_are_comparable_and_beat_sue_and_grr(self):
        """Section 3.2: OUE, OLH and HRR share the optimal variance.

        Point-query MSE over five aggregate simulations at D=256,
        N=100,000: the three are within a small factor of each other, and
        SUE and GRR (on this large domain) are worse than the best of them.
        """
        population = cauchy_population(256, 100_000, rng=0)
        counts, truth = population.counts(), population.frequencies()
        mses = {}
        for name in ("oue", "olh", "hrr", "sue", "grr"):
            oracle = make_oracle(name, 256, 1.1)
            mses[name] = np.mean([
                mean_squared_error(
                    oracle.estimate_from_counts(counts, rng=np.random.default_rng(seed)),
                    truth,
                )
                for seed in range(5)
            ])
        optimal = [mses["oue"], mses["olh"], mses["hrr"]]
        assert max(optimal) / min(optimal) < 3.0
        assert mses["sue"] > min(optimal)
        assert mses["grr"] > min(optimal)
