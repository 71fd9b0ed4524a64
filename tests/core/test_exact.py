"""Exact subset-chain engine tests.

That the engine's samples agree with these chains is the oracle's
exact leg (``tests/test_oracle.py``).
"""

import numpy as np
import pytest

from repro.core import (
    bips_exact,
    cobra_cover_survival_exact,
    cobra_hit_survival_exact,
    expected_time_from_survival,
)
from repro.graphs import (
    complete_graph,
    cycle_graph,
    hypercube_graph,
    path_graph,
    star_graph,
)


class TestBipsExact:
    def test_distributions_normalised(self):
        ex = bips_exact(path_graph(5), 0, t_max=12)
        assert np.allclose(ex.dists.sum(axis=1), 1.0)

    def test_survival_monotone_to_zero(self):
        ex = bips_exact(complete_graph(5), 0, t_max=40)
        surv = ex.survival()
        assert surv[0] == pytest.approx(1.0)
        assert np.all(np.diff(surv) <= 1e-12)
        assert surv[-1] < 1e-6

    def test_source_always_infected(self):
        ex = bips_exact(path_graph(4), 1, t_max=5)
        # P(source not in A_t) must be 0 at every t.
        assert ex.prob_uninfected([1], 3) == 0.0

    def test_prob_uninfected_decreases(self):
        ex = bips_exact(cycle_graph(6), 0, lazy=True, t_max=20)
        probs = [ex.prob_uninfected([3], t) for t in range(20)]
        assert probs[0] == pytest.approx(1.0)
        assert probs[-1] < 0.1

    def test_expected_size_monotone_to_n(self):
        g = complete_graph(6)
        ex = bips_exact(g, 0, t_max=30)
        sizes = [ex.expected_size(t) for t in range(31)]
        assert sizes[0] == pytest.approx(1.0)
        assert sizes[-1] == pytest.approx(6.0, abs=1e-6)
        assert all(b >= a - 1e-9 for a, b in zip(sizes, sizes[1:]))

    def test_size_limit_enforced(self):
        with pytest.raises(ValueError, match="exact BIPS limited"):
            bips_exact(hypercube_graph(4), 0)

    def test_b1_probabilities(self):
        # With b = 1 and A = {source}, a neighbour of the source is
        # infected next round with probability exactly 1/d(u).
        g = star_graph(4)  # centre 0, leaves 1..3
        ex = bips_exact(g, 1, branching=1, t_max=1)
        # After one round: the hub (vertex 0) picked the source leaf
        # w.p. 1/3; leaves other than the source pick the hub (only
        # neighbour) which is uninfected at t=0 -> stay uninfected.
        p_hub_infected = 1.0 - ex.prob_uninfected([0], 1)
        assert p_hub_infected == pytest.approx(1 / 3)


class TestCobraHitExact:
    def test_survival_starts_at_one(self):
        surv = cobra_hit_survival_exact(path_graph(5), 0, 4, t_max=30)
        assert surv[0] == pytest.approx(1.0)
        assert np.all(np.diff(surv) <= 1e-12)

    def test_start_containing_target_is_zero(self):
        surv = cobra_hit_survival_exact(path_graph(5), [2, 3], 3, t_max=5)
        assert np.allclose(surv, 0.0)

    def test_one_step_hand_computation(self):
        # Path 0-1-2, start {1}, target 0, b=2: vertex 1 makes two
        # uniform picks from {0, 2}; P(miss 0) = (1/2)^2 = 1/4.
        surv = cobra_hit_survival_exact(path_graph(3), 1, 0, t_max=1)
        assert surv[1] == pytest.approx(0.25)

    def test_b1_matches_random_walk_matrix_power(self):
        # b = 1 COBRA is a simple random walk: survival of hitting v
        # equals the substochastic matrix power mass.
        from repro.graphs import transition_matrix

        g = cycle_graph(6)
        target = 3
        p = transition_matrix(g)
        keep = [u for u in range(6) if u != target]
        q = p[np.ix_(keep, keep)]
        dist = np.zeros(len(keep))
        dist[keep.index(0)] = 1.0
        expected = [1.0]
        for _ in range(12):
            dist = dist @ q
            expected.append(dist.sum())
        surv = cobra_hit_survival_exact(g, 0, target, branching=1, t_max=12)
        assert np.allclose(surv, expected, atol=1e-12)

    def test_size_limit(self):
        with pytest.raises(ValueError, match="exact COBRA limited"):
            cobra_hit_survival_exact(cycle_graph(12), 0, 5)


class TestCobraCoverExact:
    def test_survival_properties(self):
        surv = cobra_cover_survival_exact(path_graph(4), 0, t_max=60)
        assert surv[0] == pytest.approx(1.0)
        assert np.all(np.diff(surv) <= 1e-12)
        assert surv[-1] < 1e-6

    def test_size_limit(self):
        with pytest.raises(ValueError, match="cover limited"):
            cobra_cover_survival_exact(cycle_graph(10), 0)


class TestExpectedTimeFromSurvival:
    def test_geometric_example(self):
        # T geometric on {1, 2, ..}: P(T > t) = q^t; E T = 1/(1-q).
        q = 0.5
        surv = q ** np.arange(60)
        assert expected_time_from_survival(surv) == pytest.approx(2.0, abs=1e-9)

    def test_tail_guard(self):
        with pytest.raises(ValueError, match="tail"):
            expected_time_from_survival(np.array([1.0, 0.5, 0.2]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            expected_time_from_survival(np.array([]))


class TestExactCoverConvenience:
    def test_path_end_is_the_worst_start(self):
        from repro.core import exact_cover_expectation

        g = path_graph(5)
        ends = exact_cover_expectation(g, 0)
        assert ends == pytest.approx(exact_cover_expectation(g, 4))
        assert ends > max(exact_cover_expectation(g, u) for u in (1, 2, 3))

    def test_symmetric_graph_start_invariant(self):
        from repro.core import exact_cover_expectation

        g = cycle_graph(5)
        a = exact_cover_expectation(g, 0)
        b = exact_cover_expectation(g, 3)
        assert a == pytest.approx(b, abs=1e-9)
