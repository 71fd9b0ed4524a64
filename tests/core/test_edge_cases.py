"""Edge-case and failure-injection tests for the process engines.

These cover the boundary graphs and parameterisations a downstream user
can hit: 2-vertex graphs, extreme branching factors, ρ at its limits,
the lazy variant stacked with every policy, and cap/exception paths.
"""

import numpy as np
import pytest

from repro.core import (
    BernoulliBranching,
    BipsProcess,
    CobraProcess,
    FixedBranching,
    bips_exact,
    cover_time_samples,
    infection_time,
    infection_time_samples,
    verify_duality_exact,
)
from repro.engine import SpreadEngine
from repro.graphs import Graph, complete_graph, cycle_graph, path_graph


class TestTinyGraphs:
    def test_two_vertex_path(self, rng):
        g = path_graph(2)
        res = CobraProcess(g).run(0, rng)
        assert res.covered
        assert res.cover_time == 1  # the only neighbour is hit immediately

    def test_two_vertex_bips(self, rng):
        g = path_graph(2)
        res = BipsProcess(g, 0).run(rng)
        assert res.infected_all
        assert res.infection_time == 1  # vertex 1 always selects vertex 0

    def test_single_vertex_graph(self, rng):
        g = Graph(1, [])
        res = BipsProcess(g, 0).run(rng)
        assert res.infected_all
        assert res.infection_time == 0

    def test_triangle_duality(self):
        g = cycle_graph(3)
        report = verify_duality_exact(g, 0, [1], t_max=10)
        assert report.max_abs_diff < 1e-12


class TestExtremeBranching:
    def test_b10_covers_very_fast(self, rng):
        g = complete_graph(64)
        res = CobraProcess(g, branching=10).run(0, rng)
        assert res.covered
        assert res.cover_time <= 8

    def test_b10_bips(self, rng):
        res = BipsProcess(complete_graph(32), 0, branching=10).run(rng)
        assert res.infected_all

    def test_rho_one_equals_b2_distribution(self):
        # BernoulliBranching(1.0) makes the second pick always: same
        # law as FixedBranching(2).
        g = cycle_graph(15)
        a = cover_time_samples(g, runs=80, branching=FixedBranching(2), rng=1)
        b = cover_time_samples(g, runs=80, branching=BernoulliBranching(1.0), rng=2)
        se = np.sqrt(a.var(ddof=1) / 80 + b.var(ddof=1) / 80)
        assert abs(a.mean() - b.mean()) < 4 * se

    def test_tiny_rho_still_completes(self):
        t = infection_time(cycle_graph(9), 0, branching=BernoulliBranching(0.05), rng=3)
        assert t >= 1


class TestLazyCombinations:
    @pytest.mark.parametrize("branching", [1, 2, 3, BernoulliBranching(0.5)])
    def test_lazy_with_every_policy(self, branching, rng):
        g = cycle_graph(8)  # bipartite: lazy is the prescribed variant
        res = CobraProcess(g, branching=branching, lazy=True).run(0, rng)
        assert res.covered
        res2 = BipsProcess(g, 0, branching=branching, lazy=True).run(rng)
        assert res2.infected_all

    def test_lazy_exact_engine_agrees_with_simulation(self):
        # Exact lazy BIPS survival vs Monte Carlo on a tiny path.
        g = path_graph(4)
        ex = bips_exact(g, 0, lazy=True, t_max=40)
        exact_mean = float(ex.survival().sum())
        times = [
            BipsProcess(g, 0, lazy=True).run(np.random.default_rng(50 + i)).infection_time
            for i in range(500)
        ]
        arr = np.asarray(times, dtype=np.float64)
        sem = arr.std(ddof=1) / np.sqrt(arr.shape[0])
        assert abs(arr.mean() - exact_mean) < 4.5 * sem + 0.05


class TestCapsAndErrors:
    def test_zero_round_cap(self, rng):
        res = CobraProcess(cycle_graph(8)).run(0, rng, max_rounds=0)
        assert not res.covered
        assert res.rounds_run == 0

    def test_batch_zero_cap(self, rng):
        g = cycle_graph(8)
        state = np.zeros((3, g.n), dtype=bool)
        state[:, 0] = True
        res = SpreadEngine(CobraProcess(g).rule, g).run(state, rng, max_rounds=0)
        assert not res.all_finished
        assert res.finished_fraction() == 0.0

    def test_bips_invalid_source(self):
        with pytest.raises(ValueError):
            BipsProcess(path_graph(3), 5)
        # Refused, not read as vertex 1.
        with pytest.raises(ValueError, match="must be an integer"):
            infection_time_samples(cycle_graph(9), source=True, runs=3, rng=1, lazy=True)

    def test_exact_t_max_zero(self):
        ex = bips_exact(path_graph(3), 0, t_max=0)
        assert ex.survival().tolist() == [1.0]

    def test_cover_samples_zero_runs(self):
        samples = cover_time_samples(path_graph(3), runs=0, rng=1)
        assert samples.shape == (0,)
