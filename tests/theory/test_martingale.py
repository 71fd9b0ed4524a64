"""Concentration-inequality machinery tests."""

import numpy as np
import pytest

from repro.theory import (
    azuma_tail_bound,
    check_azuma_on_paths,
    corollary22_bound,
    synthetic_supermartingale_paths,
)


class TestBoundFormulas:
    def test_azuma_values(self):
        assert azuma_tail_bound(2.0) == pytest.approx(np.exp(-2.0))
        with pytest.raises(ValueError):
            azuma_tail_bound(0.0)

    def test_corollary22_value(self):
        val = corollary22_bound(2.0, 0.5, 16)
        expected = 16 * np.exp(-1.0) + 64 * np.exp(-0.25 * 16 / 4)
        assert val == pytest.approx(expected)

    def test_corollary22_validation(self):
        with pytest.raises(ValueError):
            corollary22_bound(-1.0, 0.5, 4)
        with pytest.raises(ValueError):
            corollary22_bound(1.0, 1.5, 4)
        with pytest.raises(ValueError):
            corollary22_bound(1.0, 0.5, 0)

    def test_corollary22_decreasing_in_delta(self):
        assert corollary22_bound(4.0, 0.5, 64) < corollary22_bound(2.0, 0.5, 64)


class TestEmpiricalSupTail:
    def test_deterministic_flat_paths(self):
        # All-zero increments: S_q = 0 never exceeds a positive threshold.
        paths = np.zeros((10, 50))
        (check,) = check_azuma_on_paths(paths, deltas=(1.0,), alphas=(0.5,), q0s=(5,))
        assert check.empirical == 0.0

    def test_deterministic_rising_paths(self):
        # Constant +1 increments: S_q = q > alpha (q - q0) + delta sqrt(q0)
        # eventually, so every path exceeds.
        paths = np.ones((4, 100))
        (check,) = check_azuma_on_paths(paths, deltas=(1.0,), alphas=(0.5,), q0s=(4,))
        assert check.empirical == 1.0


class TestSyntheticPaths:
    def test_rademacher_bounded_and_centered(self, rng):
        paths = synthetic_supermartingale_paths(200, 100, rng)
        assert set(np.unique(paths).tolist()) <= {-1.0, 1.0}
        assert abs(paths.mean()) < 0.05

    def test_negative_drift(self, rng):
        paths = synthetic_supermartingale_paths(500, 200, rng, drift=-0.2)
        assert paths.mean() == pytest.approx(-0.2, abs=0.02)

    def test_uniform_kind(self, rng):
        paths = synthetic_supermartingale_paths(
            300, 100, rng, drift=-0.05, kind="uniform"
        )
        assert np.all(np.abs(paths) <= 1.0)
        assert paths.mean() <= 0.0

    def test_positive_drift_rejected(self, rng):
        with pytest.raises(ValueError):
            synthetic_supermartingale_paths(10, 10, rng, drift=0.1)

    def test_unknown_kind(self, rng):
        with pytest.raises(ValueError):
            synthetic_supermartingale_paths(10, 10, rng, kind="cauchy")


class TestInequalitiesHold:
    def test_azuma_on_rademacher(self, rng):
        # Monte-Carlo check of Lemma 2.1 itself.
        paths = synthetic_supermartingale_paths(4000, 256, rng)
        sums = paths.sum(axis=1)
        for delta in (1.0, 2.0, 3.0):
            emp = float(np.mean(sums > delta * np.sqrt(256)))
            assert emp <= azuma_tail_bound(delta) + 0.01

    def test_corollary22_grid_holds(self, rng):
        paths = synthetic_supermartingale_paths(2000, 256, rng)
        checks = check_azuma_on_paths(
            paths, deltas=(3.0, 5.0), alphas=(0.5, 1.0), q0s=(16, 64)
        )
        assert len(checks) == 8
        assert all(c.holds for c in checks)

    def test_check_respects_horizon(self, rng):
        paths = synthetic_supermartingale_paths(100, 20, rng)
        checks = check_azuma_on_paths(paths, q0s=(8, 64))
        assert all(c.q0 == 8 for c in checks)  # q0=64 beyond horizon skipped
