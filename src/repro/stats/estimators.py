"""Point and interval estimators for cover/infection time samples.

The paper's statements are "w.h.p." bounds; we operationalise them as
empirical high quantiles with bootstrap intervals, and report means
with Student-t confidence intervals for the tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import generator_from

__all__ = ["Estimate", "mean_ci", "quantile_estimate", "whp_quantile"]


@dataclass(frozen=True)
class Estimate:
    """A point estimate with a two-sided confidence interval."""

    value: float
    lower: float
    upper: float
    n_samples: int
    confidence: float

    @property
    def half_width(self) -> float:
        """Half the CI width — the ± in table cells."""
        return (self.upper - self.lower) / 2.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.value:.2f} ± {self.half_width:.2f}"


def mean_ci(samples: np.ndarray, *, confidence: float = 0.95) -> Estimate:
    """Sample mean with a Student-t confidence interval."""
    x = np.asarray(samples, dtype=np.float64)
    if x.size == 0:
        raise ValueError("no samples")
    mean = float(x.mean())
    if x.size == 1:
        return Estimate(mean, mean, mean, 1, confidence)
    sem = float(x.std(ddof=1) / np.sqrt(x.size))
    if sem == 0.0:
        return Estimate(mean, mean, mean, int(x.size), confidence)
    # ``stdtrit`` is the function ``scipy.stats.t.ppf`` evaluates, so
    # the interval is the same float; ``scipy.special`` imports in a
    # fraction of the time ``scipy.stats`` takes.
    from scipy.special import stdtrit

    tcrit = float(stdtrit(x.size - 1, 0.5 + confidence / 2.0))
    return Estimate(
        value=mean,
        lower=mean - tcrit * sem,
        upper=mean + tcrit * sem,
        n_samples=int(x.size),
        confidence=confidence,
    )


def quantile_estimate(
    samples: np.ndarray,
    q: float,
    *,
    confidence: float = 0.95,
    n_boot: int = 400,
    rng: np.random.Generator | int | None = None,
) -> Estimate:
    """Empirical ``q``-quantile with a bootstrap percentile interval."""
    x = np.asarray(samples, dtype=np.float64)
    if x.size == 0:
        raise ValueError("no samples")
    if not 0.0 < q < 1.0:
        raise ValueError("quantile must be in (0, 1)")
    gen = generator_from(rng)
    point = float(np.quantile(x, q))
    if x.size == 1:
        return Estimate(point, point, point, 1, confidence)
    idx = gen.integers(0, x.size, size=(n_boot, x.size))
    boots = np.quantile(x[idx], q, axis=1)
    lo = float(np.quantile(boots, (1.0 - confidence) / 2.0))
    hi = float(np.quantile(boots, 0.5 + confidence / 2.0))
    return Estimate(point, lo, hi, int(x.size), confidence)


def whp_quantile(
    samples: np.ndarray,
    *,
    level: float = 0.95,
    rng: np.random.Generator | int | None = None,
) -> Estimate:
    """The library's operationalisation of "w.h.p. cover time".

    The paper's bounds hold with probability ``1 − n^{−c}``; at
    experiment scale we report the empirical ``level`` quantile (default
    95th percentile) of the sampled times.
    """
    return quantile_estimate(samples, level, rng=rng)
