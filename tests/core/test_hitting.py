"""Hitting-time utilities: exact linear-system values and MC input checks.

That the sampled hitting times agree with the exact chains is the
oracle's exact leg (``tests/test_oracle.py``).
"""

import numpy as np
import pytest

from repro.core import (
    cobra_hit_survival_mc,
    random_walk_hitting_time,
    random_walk_hitting_times,
)
from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    star_graph,
)


class TestExactHittingTimes:
    def test_complete_graph_closed_form(self):
        # K_n: H(u, v) = n - 1 for u != v.
        n = 8
        assert random_walk_hitting_time(complete_graph(n), 0, 5) == pytest.approx(
            n - 1
        )

    def test_path_endpoint_closed_form(self):
        # P_n (vertices 0..n-1): H(0, n-1) = (n-1)^2.
        n = 6
        assert random_walk_hitting_time(path_graph(n), 0, n - 1) == pytest.approx(
            (n - 1) ** 2
        )

    def test_cycle_closed_form(self):
        # C_n: H(u, v) = k (n - k) for distance k.
        g = cycle_graph(10)
        assert random_walk_hitting_time(g, 0, 3) == pytest.approx(3 * 7)
        assert random_walk_hitting_time(g, 0, 5) == pytest.approx(5 * 5)

    def test_star_hub_and_leaf(self):
        # Star with hub 0: H(leaf, hub) = 1; H(hub, leaf) = 2(n-1) - 1.
        g = star_graph(9)
        assert random_walk_hitting_time(g, 3, 0) == pytest.approx(1.0)
        assert random_walk_hitting_time(g, 0, 3) == pytest.approx(2 * 8 - 1)

    def test_target_zero(self):
        times = random_walk_hitting_times(petersen_graph(), 4)
        assert times[4] == 0.0
        assert np.all(times[np.arange(10) != 4] > 0)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            random_walk_hitting_times(Graph(4, [(0, 1)]), 0)


class TestMcSurvival:
    def test_start_set_containing_target(self):
        curve = cobra_hit_survival_mc(
            path_graph(4), [1, 2], 2, runs=50, horizon=5, rng=1
        )
        assert curve.at(0) == 0.0

    @pytest.mark.parametrize("start", [[-2, 3], -1, 9])
    def test_invalid_start_rejected(self, start):
        # A negative id must not wrap around, and 9 is past the end.
        with pytest.raises(ValueError, match="out of range"):
            cobra_hit_survival_mc(cycle_graph(9), start, 4, runs=5, rng=1)
