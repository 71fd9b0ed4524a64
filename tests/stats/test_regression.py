"""Scaling-fit tests: known laws must be recovered."""

import numpy as np
import pytest

from repro.stats import fit_polylog, fit_power_law


class TestPowerLaw:
    def test_recovers_exact_law(self):
        x = np.array([8, 16, 32, 64, 128], dtype=float)
        y = 3.0 * x**0.5
        fit = fit_power_law(x, y)
        assert fit.exponent == pytest.approx(0.5, abs=1e-9)
        assert fit.amplitude == pytest.approx(3.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_noisy_recovery(self):
        rng = np.random.default_rng(1)
        x = np.array([16, 32, 64, 128, 256, 512], dtype=float)
        y = 2.0 * x**1.5 * np.exp(rng.normal(0, 0.05, x.size))
        fit = fit_power_law(x, y)
        assert fit.exponent == pytest.approx(1.5, abs=0.1)
        assert fit.r_squared > 0.98

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0, -2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0], [1.0])
        with pytest.raises(ValueError):
            fit_power_law([2.0, 2.0], [1.0, 3.0])


class TestPolylog:
    def test_recovers_log_power(self):
        n = np.array([2**k for k in range(4, 12)], dtype=float)
        y = 5.0 * np.log(n) ** 2
        fit = fit_polylog(n, y)
        assert fit.exponent == pytest.approx(2.0, abs=1e-9)

    def test_linear_log(self):
        n = np.array([10, 100, 1000, 10000], dtype=float)
        fit = fit_polylog(n, np.log(n))
        assert fit.exponent == pytest.approx(1.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_polylog([1.0, 10.0], [1.0, 2.0])  # n must be > 1
