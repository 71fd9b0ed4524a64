"""Cover-time bound formulas.

The paper's Theorems 1.1 and 1.2, the universal lower bound, the
earlier regular-graph bounds Theorem 1.2 improves on, and the schedules
of the proof lemmas.

All bounds are asymptotic (``O(·)``); the functions here evaluate the
*bound expression* with an explicit leading constant (default 1) so
experiments can (a) check dominance ``bound >= measured`` after
calibrating the constant on one instance, and (b) compare the *growth
shapes* of competing bounds, which is the paper's actual claim.

Naming: ``spaa16`` = Mitzenmacher et al. [8]; ``podc16`` = Cooper et
al. [4]; ``spaa17`` = this paper.
Logarithms are natural unless stated otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "lower_bound_cover",
    "bound_spaa17_general",
    "bound_spaa17_regular",
    "bound_podc16_regular",
    "bound_spaa16_regular",
    "lemma31_round_schedule",
    "rho_scaled",
    "gap_condition_holds",
    "HypercubeLadder",
    "hypercube_ladder",
]


def _log(n: float) -> float:
    """``max(1, ln n)`` — keeps bounds monotone and positive at tiny n."""
    return max(1.0, math.log(n))


def lower_bound_cover(n: int, diam: int) -> float:
    """Universal lower bound ``max{log₂ n, Diam(G)}`` (paper, Section 1).

    The visited set at most doubles per round for ``b = 2``, and
    information travels one hop per round.
    """
    return max(math.log2(max(n, 2)), float(diam))


def bound_spaa17_general(n: int, m: int, dmax: int, *, constant: float = 1.0) -> float:
    """Theorem 1.1: ``O(m + dmax² log n)`` for any connected graph.

    Since ``m <= n·dmax/2 <= n²/2`` this is always ``O(n² log n)``.
    """
    return constant * (m + dmax**2 * _log(n))


def bound_spaa17_regular(
    n: int, r: int, gap: float, *, constant: float = 1.0
) -> float:
    """Theorem 1.2: ``O((r/(1−λ) + r²) log n)`` for connected r-regular graphs.

    ``gap`` is the eigenvalue gap ``1 − λ``; must be positive
    (non-bipartite, or lazy spectrum).
    """
    if gap <= 0:
        raise ValueError("Theorem 1.2 requires a positive eigenvalue gap")
    return constant * (r / gap + r**2) * _log(n)


def bound_podc16_regular(n: int, gap: float, *, constant: float = 1.0) -> float:
    """[Cooper et al., PODC 2016]: ``O((1/(1−λ))³ log n)``.

    The paper's Theorem 1.2 improves this whenever
    ``1 − λ = o(1/√r)`` — equivalently when ``1/gap³`` exceeds
    ``r/gap + r²``.
    """
    if gap <= 0:
        raise ValueError("PODC'16 bound requires a positive eigenvalue gap")
    return constant * _log(n) / gap**3


def bound_spaa16_regular(
    n: int, r: int, phi: float, *, constant: float = 1.0
) -> float:
    """[Mitzenmacher et al., SPAA 2016]: ``O((r⁴/ϕ²) log² n)`` (ϕ = conductance).

    Via Cheeger (``1 − λ >= ϕ²/2``) the paper's regular bound dominates
    this one for every regular graph.
    """
    if phi <= 0:
        raise ValueError("conductance must be positive")
    return constant * (r**4 / phi**2) * _log(n) ** 2


# ----------------------------------------------------------------------
# Internal proof schedules (for the BIPS growth experiments)
# ----------------------------------------------------------------------
def lemma31_round_schedule(
    k: int, dmax: int, n: int, *, c_prime: float = 1.0
) -> float:
    """Lemma 3.1: ``t(k) = 4k + C′ dmax² log n``.

    After ``t(k)`` rounds, ``d(A_t) >= d(v) + k`` except with
    probability ``n^{-C}``.
    """
    return 4.0 * k + c_prime * dmax**2 * _log(n)


def rho_scaled(bound_value: float, rho: float) -> float:
    """Section 6: with branching ``b = 1 + ρ`` every schedule scales by ``1/ρ²``."""
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must be in (0, 1]")
    return bound_value / rho**2


def gap_condition_holds(n: int, gap: float, *, constant: float = 1.0) -> bool:
    """Theorem 1.2's hypothesis: ``1 − λ > C sqrt(log n / n)``."""
    return gap > constant * math.sqrt(_log(n) / n)


def restart_expectation_bound(horizon: float, failure_prob: float) -> float:
    """The paper's restart argument: from w.h.p. to expectation.

    If each window of ``horizon`` rounds covers with probability
    ``>= 1 − failure_prob`` regardless of the current state (restart
    from any vertex of ``C_T``), the number of windows is dominated by
    a geometric variable, so

        ``E[cover] <= horizon / (1 − failure_prob)``.

    This is how Theorems 1.1/1.2 convert their w.h.p. statements into
    bounds on ``COVER(G)``.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if not 0.0 <= failure_prob < 1.0:
        raise ValueError("failure probability must be in [0, 1)")
    return horizon / (1.0 - failure_prob)


# ----------------------------------------------------------------------
# The hypercube ladder (the paper's flagship comparison)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HypercubeLadder:
    """The three competing hypercube bounds, evaluated at ``n = 2^d``.

    The hypercube has ``r = log₂ n`` and lazy eigenvalue gap
    ``1 − λ = 1/d = Θ(1/log n)``, so:

    * SPAA'16:  ``(r⁴/ϕ²) log² n = Θ(log⁸ n)``
    * PODC'16:  ``(1/(1−λ))³ log n = Θ(log⁴ n)``
    * SPAA'17:  ``(r/(1−λ) + r²) log n = Θ(log³ n)``
    """

    dim: int
    n: int
    spaa16: float
    podc16: float
    spaa17: float

    def ordering_correct(self) -> bool:
        """The paper's claim: each successive bound is tighter."""
        return self.spaa17 <= self.podc16 <= self.spaa16


def hypercube_ladder(dim: int, *, constant: float = 1.0) -> HypercubeLadder:
    """Evaluate the three hypercube bounds at dimension ``dim``.

    Uses the structural facts ``r = d``, lazy gap ``1/d`` and
    conductance ``ϕ = Θ(1/d)`` (we take ``ϕ = 1/d``).
    """
    if dim < 2:
        raise ValueError("ladder needs dim >= 2")
    n = 1 << dim
    gap = 1.0 / dim
    phi = 1.0 / dim
    return HypercubeLadder(
        dim=dim,
        n=n,
        spaa16=bound_spaa16_regular(n, dim, phi, constant=constant),
        podc16=bound_podc16_regular(n, gap, constant=constant),
        spaa17=bound_spaa17_regular(n, dim, gap, constant=constant),
    )
