"""Trajectory-ensemble tests."""

import numpy as np
import pytest

from repro.core import bips_size_ensemble, cobra_coverage_ensemble
from repro.graphs import complete_graph, cycle_graph, petersen_graph


class TestAlignment:
    def test_padding_with_terminal_value(self):
        ens = bips_size_ensemble(cycle_graph(9), runs=20, seed=1)
        # All runs end fully infected: final column all n.
        assert np.all(ens.series[:, -1] == 9)
        assert np.all(ens.series[:, 0] == 1)

    def test_shapes(self):
        ens = cobra_coverage_ensemble(petersen_graph(), runs=12, seed=2)
        assert ens.runs == 12
        assert ens.series.shape == (12, ens.horizon + 1)


class TestSummaries:
    @pytest.fixture(scope="class")
    def ensemble(self):
        return bips_size_ensemble(complete_graph(16), runs=40, seed=3)

    def test_mean_monotone_for_monotone_terminal(self, ensemble):
        # Means start at 1 and end at n.
        mean = ensemble.mean()
        assert mean[0] == 1.0
        assert mean[-1] == 16.0

    def test_band_order(self, ensemble):
        lo, hi = ensemble.band()
        assert np.all(lo <= hi + 1e-12)
        med = ensemble.quantile(0.5)
        assert np.all(lo <= med + 1e-12) and np.all(med <= hi + 1e-12)


class TestDeterminism:
    def test_same_seed_same_series(self):
        a = bips_size_ensemble(cycle_graph(9), runs=8, seed=4)
        b = bips_size_ensemble(cycle_graph(9), runs=8, seed=4)
        assert np.array_equal(a.series, b.series)

    def test_coverage_reaches_n(self):
        ens = cobra_coverage_ensemble(cycle_graph(11), runs=10, seed=5)
        assert np.all(ens.series[:, -1] == 11)
        # Coverage is non-decreasing per run.
        assert np.all(np.diff(ens.series, axis=1) >= -1e-12)
