"""Survival-curve tests."""

import numpy as np
import pytest

from repro.stats import empirical_survival


class TestEmpiricalSurvival:
    def test_hand_computed(self):
        # Times {1, 1, 3}: P(T>0)=1, P(T>1)=1/3, P(T>2)=1/3, P(T>3)=0.
        curve = empirical_survival(np.array([1, 1, 3]))
        assert curve.probabilities.tolist() == pytest.approx(
            [1.0, 1 / 3, 1 / 3, 0.0]
        )

    def test_monotone_nonincreasing(self):
        rng = np.random.default_rng(1)
        curve = empirical_survival(rng.integers(0, 30, size=200))
        assert np.all(np.diff(curve.probabilities) <= 1e-12)

    def test_censored_counted_as_surviving(self):
        curve = empirical_survival(np.array([1, -1, -1]), horizon=3)
        assert curve.probabilities.tolist() == pytest.approx(
            [1.0, 2 / 3, 2 / 3, 2 / 3]
        )

    def test_at_beyond_grid(self):
        curve = empirical_survival(np.array([2, 2]))
        assert curve.at(-1) == 1.0
        assert curve.at(100) == 0.0

    def test_horizon_extension(self):
        curve = empirical_survival(np.array([1]), horizon=5)
        assert curve.horizons.shape == (6,)
        assert curve.at(5) == 0.0

    def test_stderr_shape(self):
        curve = empirical_survival(np.array([0, 1, 2, 3]))
        assert curve.stderr().shape == curve.probabilities.shape

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_survival(np.array([], dtype=np.int64))
