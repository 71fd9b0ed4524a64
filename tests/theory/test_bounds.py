"""Bound-formula tests: values, monotonicity, orderings, error handling."""

import math

import pytest

from repro.theory import (
    bound_podc16_regular,
    bound_spaa16_regular,
    bound_spaa17_general,
    bound_spaa17_regular,
    gap_condition_holds,
    hypercube_ladder,
    lemma31_round_schedule,
    lower_bound_cover,
    rho_scaled,
)


class TestLowerBound:
    def test_log_dominates_on_complete(self):
        assert lower_bound_cover(1024, 1) == 10.0

    def test_diameter_dominates_on_path(self):
        assert lower_bound_cover(64, 63) == 63.0

    def test_tiny(self):
        assert lower_bound_cover(2, 1) == 1.0


class TestMainBounds:
    def test_general_value(self):
        # m + dmax^2 ln n at n=e^2 (~7.39): exact arithmetic check.
        val = bound_spaa17_general(100, 50, 4)
        assert val == pytest.approx(50 + 16 * math.log(100))

    def test_general_constant_scales(self):
        assert bound_spaa17_general(10, 5, 2, constant=3.0) == pytest.approx(
            3 * bound_spaa17_general(10, 5, 2)
        )

    def test_general_is_o_n2_logn(self):
        # m <= n^2/2 so bound <= (n^2/2 + n^2 ln n).
        n = 64
        val = bound_spaa17_general(n, n * (n - 1) // 2, n - 1)
        assert val <= n**2 * (1 + math.log(n))

    def test_regular_value(self):
        val = bound_spaa17_regular(100, 4, 0.5)
        assert val == pytest.approx((4 / 0.5 + 16) * math.log(100))

    def test_regular_needs_positive_gap(self):
        with pytest.raises(ValueError):
            bound_spaa17_regular(10, 3, 0.0)

    def test_regular_monotone_in_gap(self):
        assert bound_spaa17_regular(100, 4, 0.1) > bound_spaa17_regular(
            100, 4, 0.9
        )


class TestComparisonBounds:
    def test_podc16(self):
        assert bound_podc16_regular(100, 0.5) == pytest.approx(
            8 * math.log(100)
        )
        with pytest.raises(ValueError):
            bound_podc16_regular(10, -0.1)

    def test_spaa16_regular(self):
        assert bound_spaa16_regular(100, 2, 0.5) == pytest.approx(
            (16 / 0.25) * math.log(100) ** 2
        )
        with pytest.raises(ValueError):
            bound_spaa16_regular(10, 3, 0.0)


class TestImprovementRegimes:
    def test_regular_beats_podc16_when_gap_small_vs_r(self):
        # 1 - lambda = o(1/sqrt(r)): paper's stated improvement regime.
        n, r, gap = 10**6, 100, 0.01  # gap << 1/sqrt(r) = 0.1
        assert bound_spaa17_regular(n, r, gap) < bound_podc16_regular(n, gap)

    def test_podc16_beats_regular_when_gap_large(self):
        n, r, gap = 10**6, 100, 0.9
        assert bound_podc16_regular(n, gap) < bound_spaa17_regular(n, r, gap)

    def test_cheeger_link_dominance(self):
        # Via 1 - lambda >= phi^2/2, the new regular bound dominates the
        # SPAA'16 conductance bound: check at the linked values.
        n, r, phi = 10**4, 8, 0.05
        gap = phi**2 / 2
        assert bound_spaa17_regular(n, r, gap) <= bound_spaa16_regular(n, r, phi)


class TestSchedules:
    def test_lemma31(self):
        assert lemma31_round_schedule(10, 3, 100, c_prime=2.0) == pytest.approx(
            40 + 2 * 9 * math.log(100)
        )

    def test_rho_scaling(self):
        assert rho_scaled(100.0, 0.5) == pytest.approx(400.0)
        assert rho_scaled(100.0, 1.0) == pytest.approx(100.0)
        with pytest.raises(ValueError):
            rho_scaled(10.0, 0.0)


class TestGapCondition:
    def test_holds_for_expander(self):
        assert gap_condition_holds(1024, 0.5)

    def test_fails_for_tiny_gap(self):
        assert not gap_condition_holds(1024, 1e-4)


class TestHypercubeLadder:
    def test_ordering_at_all_dims(self):
        for d in range(4, 16):
            ladder = hypercube_ladder(d)
            assert ladder.ordering_correct(), f"d={d}"

    def test_growth_rates(self):
        # spaa16/spaa17 ratio grows like log^5 n: ladder at d and 2d.
        l1, l2 = hypercube_ladder(6), hypercube_ladder(12)
        assert (l2.spaa16 / l2.spaa17) > (l1.spaa16 / l1.spaa17)

    def test_n_matches(self):
        assert hypercube_ladder(7).n == 128

    def test_min_dim(self):
        with pytest.raises(ValueError):
            hypercube_ladder(1)


class TestRestartArgument:
    def test_value(self):
        from repro.theory import restart_expectation_bound

        assert restart_expectation_bound(100.0, 0.5) == pytest.approx(200.0)
        assert restart_expectation_bound(100.0, 0.0) == pytest.approx(100.0)

    def test_validation(self):
        from repro.theory import restart_expectation_bound

        with pytest.raises(ValueError):
            restart_expectation_bound(0.0, 0.1)
        with pytest.raises(ValueError):
            restart_expectation_bound(10.0, 1.0)

    def test_empirical_consistency(self):
        # The bound must dominate the directly-measured expectation:
        # pick a horizon, measure the window failure probability, and
        # check E[cover] <= horizon / (1 - p_fail).
        import numpy as np

        from repro.core import cover_time_samples
        from repro.graphs import cycle_graph
        from repro.theory import restart_expectation_bound

        g = cycle_graph(15)
        samples = cover_time_samples(g, runs=300, rng=8)
        horizon = float(np.quantile(samples, 0.75))
        p_fail = float(np.mean(samples > horizon))
        bound = restart_expectation_bound(horizon, p_fail)
        assert samples.mean() <= bound
