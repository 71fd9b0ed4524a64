"""Duality theorem (Theorem 1.3) verification tests — the headline
correctness property of this reproduction."""

import numpy as np
import pytest

from repro.core import (
    BernoulliBranching,
    verify_duality_exact,
    verify_duality_monte_carlo,
)
from repro.graphs import (
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    path_graph,
    random_regular_graph,
    star_graph,
)


class TestExactDuality:
    @pytest.mark.parametrize(
        "graph,source,start",
        [
            (path_graph(5), 4, [0]),
            (path_graph(5), 0, [2, 4]),
            (cycle_graph(6), 3, [0]),
            (star_graph(6), 0, [3]),
            (star_graph(6), 2, [0, 5]),
            (complete_graph(5), 1, [0]),
        ],
    )
    def test_identity_b2(self, graph, source, start):
        report = verify_duality_exact(graph, source, start, t_max=16)
        assert report.max_abs_diff < 1e-10
        assert report.consistent()

    @pytest.mark.parametrize("branching", [1, 2, 3, BernoulliBranching(0.3)])
    def test_identity_all_branchings(self, branching):
        report = verify_duality_exact(
            cycle_graph(5), 2, [0], branching=branching, t_max=14
        )
        assert report.max_abs_diff < 1e-10

    def test_identity_lazy(self):
        report = verify_duality_exact(
            cycle_graph(6), 0, [3], lazy=True, t_max=14
        )
        assert report.max_abs_diff < 1e-10

    def test_identity_random_graphs(self):
        for seed in range(4):
            g = erdos_renyi_graph(6, 0.6, rng=seed)
            report = verify_duality_exact(g, 0, [g.n - 1], t_max=12)
            assert report.max_abs_diff < 1e-10, f"seed {seed}"

    def test_source_in_start_set(self):
        # Hit at round 0: LHS is identically 0; BIPS side must agree
        # because the source is always infected.
        report = verify_duality_exact(path_graph(4), 1, [1, 3], t_max=6)
        assert np.allclose(report.cobra_side, 0.0)
        assert report.max_abs_diff < 1e-12

    def test_horizon_zero_value(self):
        # At T = 0: LHS = 1 iff v not in C; RHS = 1 iff C misses {v}.
        report = verify_duality_exact(path_graph(4), 3, [0], t_max=3)
        assert report.cobra_side[0] == pytest.approx(1.0)
        assert report.bips_side[0] == pytest.approx(1.0)


class TestMonteCarloDuality:
    def test_consistency_on_expander(self):
        g = random_regular_graph(24, 3, rng=2)
        report = verify_duality_monte_carlo(
            g, source=0, start_set=[g.n - 1], runs=1500, rng=8
        )
        assert report.consistent(z=4.5)

    def test_report_fields(self):
        g = cycle_graph(5)
        mc = verify_duality_monte_carlo(
            g, 0, [2], horizons=[0, 2, 4], runs=200, rng=1
        )
        assert mc.horizons.tolist() == [0, 2, 4]
        assert mc.cobra_side.shape == (3,)
        assert mc.max_abs_diff >= 0.0

    @pytest.mark.parametrize("runs", [0, -3])
    def test_needs_a_run(self, runs):
        # Both sides are fractions of runs: undefined without a run.
        with pytest.raises(ValueError, match="at least one run"):
            verify_duality_monte_carlo(cycle_graph(5), 0, [2], runs=runs, rng=1)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            verify_duality_monte_carlo(
                cycle_graph(5), 0, [2], horizons=[-1, 2], runs=10, rng=1
            )
