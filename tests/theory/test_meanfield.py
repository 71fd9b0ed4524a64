"""Mean-field predictor tests, including agreement with simulation."""

import numpy as np
import pytest

from repro.core import make_policy
from repro.engine import BipsRule, CobraRule
from repro.graphs import complete_graph
from repro.theory import (
    bips_complete_expected_next,
    bips_complete_meanfield_trajectory,
    cobra_complete_expected_next,
    cobra_complete_meanfield_trajectory,
    meanfield_rounds_to_cover,
)


class TestCobraMap:
    def test_single_particle_stays_single(self):
        # k = 1, b = 1... with b=2: E|C_1| = n(1-(1-1/(n-1))^2) ~ 2.
        val = cobra_complete_expected_next(1, 100, b=2)
        assert 1.9 < val < 2.1

    def test_early_doubling(self):
        # Small k: growth factor approaches b.
        val = cobra_complete_expected_next(5, 10_000, b=2)
        assert val == pytest.approx(10.0, rel=0.01)

    def test_fixed_point_near_0797(self):
        # x = 1 - e^{-2x} has root ~0.7968 for b = 2.
        traj = cobra_complete_meanfield_trajectory(10_000, t_max=200)
        assert traj[-1] / 10_000 == pytest.approx(0.7968, abs=0.01)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            cobra_complete_expected_next(-1, 10)

    def test_matches_simulation(self):
        # Mean |C_t| from simulation vs the occupancy map on K_64.
        n = 64
        g = complete_graph(n)
        rule = CobraRule(make_policy(2))
        alive = np.ones(1, dtype=bool)
        rounds = 8
        sums = np.zeros(rounds + 1)
        runs = 300
        rng = np.random.default_rng(3)
        for _ in range(runs):
            active = np.zeros((1, n), dtype=bool)
            active[0, 0] = True
            sums[0] += 1
            for t in range(1, rounds + 1):
                active = rule.step(g, active, alive, rng)
                sums[t] += active.sum()
        means = sums / runs
        traj = cobra_complete_meanfield_trajectory(n, t_max=rounds)
        # Occupancy map ignores O(k/n^2) self-exclusion: 5% tolerance.
        for t in range(rounds + 1):
            assert means[t] == pytest.approx(traj[t], rel=0.07), f"t={t}"


class TestBipsMap:
    def test_logistic_shape(self):
        # Fraction map x -> 1 - (1-x)^2 at rho=1, ignoring the source.
        val = bips_complete_expected_next(50, 101, rho=1.0)
        frac = 0.5
        assert val == pytest.approx(1 + 100 * (1 - (1 - frac) ** 2), rel=0.01)

    def test_rho_slows(self):
        full = bips_complete_meanfield_trajectory(1000, rho=1.0, t_max=20)
        half = bips_complete_meanfield_trajectory(1000, rho=0.5, t_max=20)
        assert full[10] > half[10]

    def test_saturates_at_n(self):
        traj = bips_complete_meanfield_trajectory(500, t_max=100)
        assert traj[-1] == pytest.approx(500, rel=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            bips_complete_expected_next(0, 10)

    def test_matches_simulation(self):
        # Larger n: the mean-field map is exact only as n -> infinity
        # (Jensen-gap at mid-trajectory shrinks with concentration).
        n = 256
        g = complete_graph(n)
        rule = BipsRule(make_policy(2), 0)
        alive = np.ones(1, dtype=bool)
        rounds = 10
        runs = 200
        rng = np.random.default_rng(5)
        sums = np.zeros(rounds + 1)
        for _ in range(runs):
            infected = np.zeros((1, n), dtype=bool)
            infected[0, 0] = True
            sums[0] += 1
            for t in range(1, rounds + 1):
                infected = rule.step(g, infected, alive, rng)
                sums[t] += infected.sum()
        means = sums / runs
        traj = bips_complete_meanfield_trajectory(n, t_max=rounds)
        for t in range(rounds + 1):
            assert means[t] == pytest.approx(traj[t], rel=0.10), f"t={t}"


class TestRoundsToCover:
    def test_logarithmic_growth(self):
        # Θ(log n): doubling n adds O(1) rounds.
        r1 = meanfield_rounds_to_cover(2**10)
        r2 = meanfield_rounds_to_cover(2**16)
        assert r2 > r1
        assert r2 - r1 <= 2 * (16 - 10)

    def test_matches_simulated_cover_scale(self):
        from repro.core import cover_time_samples

        n = 256
        predicted = meanfield_rounds_to_cover(n, fraction=0.99)
        measured = cover_time_samples(complete_graph(n), runs=50, rng=6).mean()
        # Same scale (the mean-field 99%-coverage round vs full cover).
        assert 0.4 * measured <= predicted <= 2.5 * measured

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            meanfield_rounds_to_cover(100, fraction=1.0)
