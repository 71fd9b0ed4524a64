"""Survival-curve utilities: ``P(T > t)`` from samples or exact chains.

Duality verification and the w.h.p. experiments are phrased in terms of
survival functions of hit/cover/infection times; this module provides
the empirical estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SurvivalCurve", "empirical_survival"]


@dataclass(frozen=True)
class SurvivalCurve:
    """``P(T > t)`` on an integer grid ``t = 0 .. horizon``."""

    horizons: np.ndarray
    probabilities: np.ndarray
    n_samples: int

    def at(self, t: int) -> float:
        """Survival at integer time ``t`` (0 beyond the grid)."""
        if t < 0:
            return 1.0
        if t >= self.horizons.shape[0]:
            return float(self.probabilities[-1])
        return float(self.probabilities[t])

    def stderr(self) -> np.ndarray:
        """Binomial standard errors per grid point."""
        p = self.probabilities
        return np.sqrt(np.maximum(p * (1.0 - p), 1e-12) / max(self.n_samples, 1))


def empirical_survival(samples: np.ndarray, horizon: int | None = None) -> SurvivalCurve:
    """Empirical survival of integer-valued times.

    ``samples`` may contain ``-1`` for censored runs (treated as
    ``> horizon`` at every grid point).
    """
    x = np.asarray(samples, dtype=np.int64)
    if x.size == 0:
        raise ValueError("no samples")
    censored = x < 0
    observed = x[~censored]
    top = int(observed.max()) if observed.size else 0
    if horizon is None:
        horizon = top
    ts = np.arange(horizon + 1)
    counts = np.zeros(horizon + 1, dtype=np.int64)
    # count of samples with value > t  =  total - #(value <= t)
    clipped = np.clip(observed, 0, horizon + 1)
    hist = np.bincount(clipped, minlength=horizon + 2)
    cum = np.cumsum(hist[: horizon + 1])
    counts = x.size - cum + 0  # censored runs always count as surviving
    probs = counts / x.size
    return SurvivalCurve(horizons=ts, probabilities=probs.astype(np.float64), n_samples=int(x.size))
