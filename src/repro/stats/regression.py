"""Scaling-exponent fits for the growth-shape checks.

The reproduction criterion for asymptotic claims is the *shape*: cover
time ``T(n) ≈ a · n^c`` (power law) or ``T(n) ≈ a · (ln n)^p``
(polylog).  Both reduce to ordinary least squares in log space; we also
report R² so experiments can assert the fit is meaningful before
asserting the exponent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PowerLawFit", "fit_power_law", "fit_polylog"]


@dataclass(frozen=True)
class PowerLawFit:
    """Result of a log-space least-squares fit ``y ≈ amplitude · x^exponent``."""

    exponent: float
    amplitude: float
    r_squared: float
    n_points: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.amplitude:.3g} * x^{self.exponent:.3f} (R²={self.r_squared:.3f})"
        )


def _loglog_fit(logx: np.ndarray, logy: np.ndarray) -> PowerLawFit:
    if logx.size < 2:
        raise ValueError("need at least two points to fit")
    if np.allclose(logx, logx[0]):
        raise ValueError("all x values identical; cannot fit an exponent")
    slope, intercept = np.polyfit(logx, logy, deg=1)
    pred = slope * logx + intercept
    ss_res = float(np.sum((logy - pred) ** 2))
    ss_tot = float(np.sum((logy - logy.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(
        exponent=float(slope),
        amplitude=float(np.exp(intercept)),
        r_squared=r2,
        n_points=int(logx.size),
    )


def fit_power_law(x, y) -> PowerLawFit:
    """Fit ``y ≈ a · x^c`` by least squares on ``(ln x, ln y)``."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit requires positive data")
    return _loglog_fit(np.log(x), np.log(y))


def fit_polylog(n, y) -> PowerLawFit:
    """Fit ``y ≈ a · (ln n)^p`` — i.e. a power law in ``ln n``.

    The returned ``exponent`` is the polylog power ``p``; e.g. the
    hypercube experiment checks ``p`` is small (≲ 2) and certainly far
    below the proven ceiling of 3.
    """
    n = np.asarray(n, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if np.any(n <= 1) or np.any(y <= 0):
        raise ValueError("polylog fit requires n > 1 and positive y")
    return _loglog_fit(np.log(np.log(n)), np.log(y))
