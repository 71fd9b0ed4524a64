"""Pull and push-pull gossip tests."""

import numpy as np
import pytest

from repro.baselines import (
    pull_broadcast_samples,
    push_broadcast_samples,
    push_pull_broadcast_samples,
)
from repro.graphs import complete_graph, cycle_graph, path_graph, star_graph


class TestPull:
    def test_informs_everyone(self):
        (t,) = pull_broadcast_samples(complete_graph(32), runs=1, rng=1)
        assert 4 <= t <= 60

    def test_star_pull_is_fast_from_hub(self):
        # Every leaf pulls from the hub (its only neighbour): 1 round.
        assert pull_broadcast_samples(star_graph(16), 0, runs=1, rng=2)[0] == 1

    def test_star_pull_from_leaf(self):
        # Hub pulls from a uniform leaf: E[rounds to learn] = n - 1;
        # then one more round informs all other leaves.
        (t,) = pull_broadcast_samples(star_graph(8), 1, runs=1, rng=3)
        assert t >= 2

    def test_samples(self):
        s = pull_broadcast_samples(cycle_graph(16), runs=5, rng=4)
        assert s.shape == (5,)
        assert np.all(s >= 8)  # frontier moves <= 1 per side per round

    def test_cap(self):
        with pytest.raises(RuntimeError, match="pull on cycle-64 runs hit the round cap"):
            pull_broadcast_samples(cycle_graph(64), runs=1, rng=1, max_rounds=3)


class TestPushPull:
    def test_informs_everyone(self):
        (t,) = push_pull_broadcast_samples(complete_graph(64), runs=1, rng=5)
        assert 3 <= t <= 30

    def test_faster_than_push_alone_on_star(self):
        # Push from hub wastes rounds informing one leaf at a time;
        # push-pull lets all leaves pull: dramatic difference.
        g = star_graph(64)
        pp = np.mean(push_pull_broadcast_samples(g, 0, runs=10, rng=10))
        p = np.mean(push_broadcast_samples(g, 0, runs=10, rng=6))
        assert pp * 5 < p

    def test_cap(self):
        with pytest.raises(RuntimeError, match="push-pull on path-64 runs hit"):
            push_pull_broadcast_samples(path_graph(64), runs=1, rng=1, max_rounds=2)
