"""Estimator tests."""

import numpy as np
import pytest

from repro.stats import mean_ci, quantile_estimate, whp_quantile


class TestMeanCI:
    def test_point_estimate(self):
        est = mean_ci(np.array([1.0, 2.0, 3.0]))
        assert est.value == pytest.approx(2.0)
        assert est.lower < 2.0 < est.upper
        assert est.n_samples == 3

    def test_single_sample_degenerate(self):
        est = mean_ci(np.array([5.0]))
        assert est.value == est.lower == est.upper == 5.0

    def test_constant_samples(self):
        est = mean_ci(np.full(10, 7.0))
        assert est.half_width == 0.0

    def test_coverage_calibration(self):
        # ~95% of intervals should contain the true mean.
        rng = np.random.default_rng(0)
        hits = 0
        for _ in range(300):
            est = mean_ci(rng.normal(10.0, 2.0, size=30))
            hits += est.lower <= 10.0 <= est.upper
        assert 0.90 <= hits / 300 <= 0.99

    def test_interval_equals_scipy_stats_t(self):
        # mean_ci takes its quantile from scipy.special.stdtrit, which
        # imports faster than scipy.stats; the interval must be the same
        # floats scipy.stats.t.ppf gives.
        from scipy import stats

        rng = np.random.default_rng(11)
        for size in (2, 3, 5, 10, 31, 100, 1000, 10_000, 100_000):
            x = rng.normal(10.0, 3.0, size=size)
            mean = float(x.mean())
            sem = float(x.std(ddof=1) / np.sqrt(size))
            for confidence in (0.5, 0.9, 0.95, 0.99, 0.999):
                tcrit = float(stats.t.ppf(0.5 + confidence / 2.0, df=size - 1))
                est = mean_ci(x, confidence=confidence)
                assert (est.value, est.lower, est.upper) == (
                    mean,
                    mean - tcrit * sem,
                    mean + tcrit * sem,
                ), (size, confidence)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_ci(np.array([]))


class TestQuantiles:
    def test_median(self):
        est = quantile_estimate(np.arange(101, dtype=float), 0.5, rng=1)
        assert est.value == pytest.approx(50.0)

    def test_whp_is_95th(self):
        x = np.arange(1000, dtype=float)
        est = whp_quantile(x, rng=2)
        assert est.value == pytest.approx(np.quantile(x, 0.95))

    def test_bounds_bracket_point(self):
        rng = np.random.default_rng(3)
        est = quantile_estimate(rng.exponential(size=500), 0.9, rng=4)
        assert est.lower <= est.value <= est.upper

    def test_validation(self):
        with pytest.raises(ValueError):
            quantile_estimate(np.array([1.0]), 1.5)
        with pytest.raises(ValueError):
            quantile_estimate(np.array([]), 0.5)
