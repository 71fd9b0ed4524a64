"""Cost-accounting and worst-start cover tests."""

import numpy as np
import pytest

from repro.core import (
    cobra_transmission_report,
    per_vertex_load,
    worst_start_cover,
)
from repro.graphs import complete_graph, cycle_graph, path_graph, petersen_graph


class TestTransmissionReport:
    def test_basic_accounting(self):
        rep = cobra_transmission_report(complete_graph(16), runs=10, rng=1)
        assert rep.runs == 10
        assert rep.rounds.value >= 4.0  # log2(16)
        # Total messages = 2 * sum of active sizes >= 2 * rounds.
        assert rep.total_messages.value >= 2 * rep.rounds.value
        assert 0.0 < rep.peak_active_fraction <= 1.0

    def test_messages_per_vertex_scaling(self):
        rep = cobra_transmission_report(complete_graph(32), runs=10, rng=2)
        assert rep.messages_per_vertex.value == pytest.approx(
            rep.total_messages.value / 32
        )

    def test_b1_is_a_single_walker(self):
        g = cycle_graph(17)
        r1 = cobra_transmission_report(g, runs=10, branching=1, rng=3)
        r2 = cobra_transmission_report(g, runs=10, branching=2, rng=4)
        # b=1 is one walker: exactly 1 message per round, active set 1.
        assert r1.total_messages.value == pytest.approx(r1.rounds.value)
        assert r1.peak_active_fraction == pytest.approx(1 / 17)
        # b=2 covers in far fewer rounds (the paper's speed trade).
        assert r2.rounds.value < r1.rounds.value


class TestPerVertexLoad:
    def test_load_conservation(self):
        g = petersen_graph()
        load = per_vertex_load(g, rng=5)
        assert load.shape == (10,)
        assert load.sum() > 0
        assert load[0] >= 2  # the start sends b = 2 in round 1

    def test_b1_load_is_walk_visits(self):
        g = cycle_graph(9)
        load = per_vertex_load(g, rng=6, branching=1)
        # One walker: total transmissions = number of rounds.
        assert load.sum() >= 8

    def test_cap_raises(self):
        with pytest.raises(RuntimeError, match="failed to cover"):
            per_vertex_load(cycle_graph(64), rng=1, max_rounds=2)

    @pytest.mark.parametrize("start", [-1, 9])
    def test_invalid_start_rejected(self, start):
        with pytest.raises(ValueError, match="out of range"):
            per_vertex_load(cycle_graph(9), start, rng=1)


class TestWorstStartCover:
    def test_all_starts_small_graph(self):
        prof = worst_start_cover(path_graph(6), runs_per_start=8, seed=1)
        assert prof.starts.shape == (6,)
        assert prof.cover_of_g == pytest.approx(prof.means.max())
        assert prof.worst_start in prof.starts

    def test_path_worst_is_endpoint_best_is_middle(self):
        prof = worst_start_cover(path_graph(9), runs_per_start=24, seed=2)
        # Endpoints must be worse than the centre.
        assert prof.worst_start in (0, 1, 7, 8)
        assert prof.best_start() in (2, 3, 4, 5, 6)

    def test_sampled_starts_large_graph(self):
        prof = worst_start_cover(
            cycle_graph(64), runs_per_start=4, max_starts=8, seed=3
        )
        assert len(prof.starts) <= 8

    def test_deterministic(self):
        a = worst_start_cover(path_graph(5), runs_per_start=6, seed=9)
        b = worst_start_cover(path_graph(5), runs_per_start=6, seed=9)
        assert np.allclose(a.means, b.means)
