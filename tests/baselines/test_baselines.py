"""Baseline process tests."""

import numpy as np
import pytest

from repro.baselines import (
    flooding_broadcast_time,
    flooding_broadcast_times,
    multi_walk_cover_samples,
    push_broadcast_samples,
    random_walk_cover_samples,
)
from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    star_graph,
)


class TestRandomWalkCover:
    def test_covers_complete_graph(self):
        (t,) = random_walk_cover_samples(complete_graph(8), runs=1, rng=1)
        # Coupon collector: ~ n ln n ~ 17; allow wide range.
        assert 7 <= t <= 300

    def test_star_needs_many_steps(self):
        # Star cover ~ 2 (n-1) H_{n-1}: strictly more than 2(n-1) - 2.
        (t,) = random_walk_cover_samples(star_graph(10), runs=1, rng=2)
        assert t >= 17

    def test_cap_raises(self):
        with pytest.raises(RuntimeError, match="round cap"):
            random_walk_cover_samples(cycle_graph(32), runs=1, rng=1, max_steps=5)

    def test_samples(self):
        s = random_walk_cover_samples(complete_graph(6), runs=5, rng=3)
        assert s.shape == (5,)
        assert np.all(s >= 5)


class TestMultiWalk:
    def test_more_walkers_faster(self):
        g = cycle_graph(40)
        t1 = np.mean(multi_walk_cover_samples(g, 1, runs=6, rng=1))
        t8 = np.mean(multi_walk_cover_samples(g, 8, runs=6, rng=2))
        assert t8 < t1

    def test_validation(self):
        with pytest.raises(ValueError, match="walker"):
            multi_walk_cover_samples(cycle_graph(5), 0)


class TestPush:
    def test_informs_everyone(self):
        (t,) = push_broadcast_samples(complete_graph(32), runs=1, rng=4)
        # Push on K_n completes in ~ log2 n + ln n ~ 8.5 rounds.
        assert 5 <= t <= 40

    def test_fanout_speeds_up(self):
        g = cycle_graph(64)
        t1 = np.mean(push_broadcast_samples(g, runs=8, rng=5, fanout=1))
        t2 = np.mean(push_broadcast_samples(g, runs=8, rng=6, fanout=2))
        assert t2 <= t1

    def test_fanout_validated(self):
        with pytest.raises(ValueError):
            push_broadcast_samples(cycle_graph(5), fanout=0)

    def test_monotone_informed_set(self):
        # Push never un-informs: broadcast time >= eccentricity.
        (t,) = push_broadcast_samples(path_graph(16), 0, runs=1, rng=7)
        assert t >= 15


class TestFlooding:
    def test_equals_eccentricity(self):
        assert flooding_broadcast_time(path_graph(10), 0) == 9
        assert flooding_broadcast_time(path_graph(10), 5) == 5
        assert flooding_broadcast_time(complete_graph(7), 3) == 1

    def test_time_is_bfs_ball_radius(self, flooding_graph):
        # The ball of radius t + 1 is the ball of radius t and its neighbours.
        g = flooding_graph
        for start in {0, g.n // 2, g.n - 1}:
            ball, radius = {start}, 0
            while len(ball) < g.n:
                ball |= {int(v) for u in ball for v in g.neighbors(u)}
                radius += 1
            assert flooding_broadcast_time(g, start) == radius

    @pytest.mark.parametrize(
        "call,match",
        [
            pytest.param(
                lambda: flooding_broadcast_time(Graph(3, [(0, 1)]), 0),
                "connected",
                id="time-disconnected",
            ),
            pytest.param(
                lambda: flooding_broadcast_time(path_graph(4), 4),
                "out of range",
                id="time-start-too-large",
            ),
            pytest.param(
                lambda: flooding_broadcast_times(Graph(3, [(0, 1)]), [0]),
                "connected",
                id="times-disconnected",
            ),
            pytest.param(
                lambda: flooding_broadcast_times(path_graph(4), [[0, 1]]),
                "1-D",
                id="times-2d-starts",
            ),
            pytest.param(
                lambda: flooding_broadcast_times(path_graph(4), [0, -1]),
                "out of range",
                id="times-negative-start",
            ),
        ],
    )
    def test_input_checks(self, call, match):
        # Flooding is only defined from a vertex of a connected graph.
        with pytest.raises(ValueError, match=match):
            call()


class TestCrossProcessOrdering:
    def test_flooding_fastest_cobra_between(self):
        # On the Petersen graph: flooding <= COBRA mean <= single-walk mean.
        from repro.core import cover_time_samples

        g = petersen_graph()
        flood = flooding_broadcast_time(g, 0)
        cobra = cover_time_samples(g, runs=60, rng=8).mean()
        walk = random_walk_cover_samples(g, runs=10, rng=9).mean()
        assert flood <= cobra <= walk
