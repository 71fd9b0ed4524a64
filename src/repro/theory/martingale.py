"""Lemma 2.1 / Corollary 2.2: supermartingale concentration machinery.

Lemma 2.1 (Azuma–Hoeffding variant): if ``|Z_i| <= 1`` and
``E[Z_i | Z_1..Z_{i-1}] <= 0`` then ``P(S_q > δ√q) < e^{−δ²/2}``.

Corollary 2.2 (uniform-in-q version): for ``0 < α <= 1`` and
``q0 >= 1``,

    ``P(∃ q >= q0 : S_q > α(q − q0) + δ√q0)
        < q0 e^{−δ²/4} + (16/α²) e^{−α² q0 / 4}``.

These drive Lemma 3.1's round schedule.  This module provides the bound
evaluators plus an empirical-verification harness that feeds either
synthetic bounded-increment supermartingales or real serialised-BIPS
``Z_l`` streams through the inequality (experiment E10).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

__all__ = [
    "azuma_tail_bound",
    "corollary22_bound",
    "TailCheck",
    "check_azuma_on_paths",
    "synthetic_supermartingale_paths",
]


def azuma_tail_bound(delta: float) -> float:
    """Lemma 2.1 right-hand side: ``e^{−δ²/2}``."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return float(np.exp(-(delta**2) / 2.0))


def corollary22_bound(delta: float, alpha: float, q0: int) -> float:
    """Corollary 2.2 right-hand side.

    ``q0 e^{−δ²/4} + (16/α²) e^{−α² q0 / 4}`` for ``0 < α <= 1``,
    ``q0 >= 1``.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    if q0 < 1:
        raise ValueError("q0 must be >= 1")
    return float(
        q0 * np.exp(-(delta**2) / 4.0)
        + (16.0 / alpha**2) * np.exp(-(alpha**2) * q0 / 4.0)
    )


def _sup_tail(sums: np.ndarray, delta: float, alpha: float, q0: int) -> float:
    """Empirical LHS of Corollary 2.2 from partial sums ``S_1..S_Q``.

    ``sums`` has shape ``(R, Q)``, one row per path.  Returns the
    fraction of paths on which ``S_q > α(q − q0) + δ√q0`` for *some*
    ``q0 <= q <= Q``.
    """
    qs = np.arange(1, sums.shape[1] + 1, dtype=np.float64)
    threshold = alpha * (qs - q0) + delta * np.sqrt(q0)
    relevant = qs >= q0
    exceed = (sums > threshold[None, :]) & relevant[None, :]
    return float(np.mean(exceed.any(axis=1)))


@dataclass(frozen=True)
class TailCheck:
    """One (δ, α, q0) grid point of the E10 verification."""

    delta: float
    alpha: float
    q0: int
    empirical: float
    bound: float

    @property
    def holds(self) -> bool:
        """Inequality satisfied (bound may exceed 1, then trivially true)."""
        return self.empirical <= min(self.bound, 1.0) + 1e-12


def check_azuma_on_paths(
    paths: np.ndarray,
    deltas=(1.0, 2.0, 3.0),
    alphas=(0.25, 0.5, 1.0),
    q0s=(8, 32, 128),
) -> list[TailCheck]:
    """Evaluate Corollary 2.2 empirically across a (δ, α, q0) grid.

    The partial sums are taken once for the whole grid.
    """
    checks = []
    q_max = paths.shape[1]
    sums = np.cumsum(np.asarray(paths, dtype=np.float64), axis=1)
    for delta in deltas:
        for alpha in alphas:
            for q0 in q0s:
                if q0 > q_max:
                    continue
                emp = _sup_tail(sums, delta, alpha, q0)
                checks.append(
                    TailCheck(
                        delta=float(delta),
                        alpha=float(alpha),
                        q0=int(q0),
                        empirical=emp,
                        bound=corollary22_bound(delta, alpha, q0),
                    )
                )
    return checks


def synthetic_supermartingale_paths(
    runs: int,
    steps: int,
    rng: np.random.Generator,
    *,
    drift: float = 0.0,
    kind: str = "rademacher",
) -> np.ndarray:
    """Generate bounded-increment supermartingale sample paths.

    ``kind``:

    * ``"rademacher"`` — ±1 increments with ``P(+1) = (1 + drift)/2``
      (``drift <= 0`` for a supermartingale).
    * ``"uniform"`` — increments uniform on ``[−1, min(1, drift·2+1)]``
      shifted so the mean is ``drift``.

    ``drift`` must be ``<= 0`` to satisfy Lemma 2.1's hypothesis.
    """
    if drift > 0:
        raise ValueError("supermartingale requires non-positive drift")
    if kind == "rademacher":
        p_up = (1.0 + drift) / 2.0
        ups = rng.random((runs, steps)) < p_up
        return np.where(ups, 1.0, -1.0)
    if kind == "uniform":
        # U[-1, 1] has mean 0; shift down by |drift| then clip to [-1, 1].
        vals = rng.uniform(-1.0, 1.0, size=(runs, steps)) + drift
        return np.clip(vals, -1.0, 1.0)
    raise ValueError(f"unknown path kind {kind!r}")
