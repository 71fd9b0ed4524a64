"""Verification of the COBRA ↔ BIPS duality (Theorem 1.3).

The theorem: for any vertex ``v`` (the BIPS source), any nonempty
``C ⊆ V`` (the COBRA start set) and any ``T ≥ 0``,

    ``P̂(Hit(v) > T | C_0 = C)  =  P(C ∩ A_T = ∅ | A_0 = {v})``,

for the same branching parameter ``b`` on both sides.  The proof couples
the two processes through a time-reversed reuse of the neighbour
selections.

Two verification modes:

* :func:`verify_duality_exact` — both sides computed exactly on a tiny
  graph (via :mod:`repro.core.exact`); the theorem is an identity, so
  the difference must be numerically zero.
* :func:`verify_duality_monte_carlo` — independent empirical estimates
  of both sides with normal-approximation confidence intervals, usable
  at any graph size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine.completion import TargetHit
from ..engine.engine import SpreadEngine
from ..engine.rules import BipsRule, CobraRule
from ..graphs.graph import Graph
from ..graphs.validation import check_vertex, check_vertex_set, require_connected
from ..stats.rng import generator_from
from .branching import BranchingPolicy, make_policy
from .exact import bips_exact, cobra_hit_survival_exact

__all__ = [
    "DualityReport",
    "verify_duality_exact",
    "verify_duality_monte_carlo",
]


@dataclass(frozen=True)
class DualityReport:
    """The two sides of Theorem 1.3 on a grid of round horizons ``T``.

    ``cobra_side[T]`` estimates ``P̂(Hit(v) > T | C_0 = C)`` and
    ``bips_side[T]`` estimates ``P(C ∩ A_T = ∅ | A_0 = {v})``.  For the
    exact mode ``stderr`` is zero and ``max_abs_diff`` should be at
    numerical noise level.
    """

    horizons: np.ndarray
    cobra_side: np.ndarray
    bips_side: np.ndarray
    cobra_stderr: np.ndarray
    bips_stderr: np.ndarray

    @property
    def max_abs_diff(self) -> float:
        """Largest pointwise discrepancy between the two sides."""
        return float(np.max(np.abs(self.cobra_side - self.bips_side)))

    def consistent(self, z: float = 4.0) -> bool:
        """True iff every horizon's difference is within ``z`` joint stderrs.

        For exact reports (zero stderr) falls back to an absolute
        tolerance of 1e-9.
        """
        joint = np.sqrt(self.cobra_stderr**2 + self.bips_stderr**2)
        tol = np.maximum(z * joint, 1e-9)
        return bool(np.all(np.abs(self.cobra_side - self.bips_side) <= tol))


def verify_duality_exact(
    graph: Graph,
    source: int,
    start_set,
    *,
    branching: BranchingPolicy | int | float = 2,
    lazy: bool = False,
    t_max: int = 24,
) -> DualityReport:
    """Exact evaluation of both sides of Theorem 1.3 on a tiny graph."""
    require_connected(graph)
    source = check_vertex(graph, source)
    c = check_vertex_set(graph, start_set)

    cobra_surv = cobra_hit_survival_exact(
        graph, c, source, branching=branching, lazy=lazy, t_max=t_max
    )
    bips = bips_exact(graph, source, branching=branching, lazy=lazy, t_max=t_max)
    bips_side = np.array(
        [bips.prob_uninfected(c, t) for t in range(t_max + 1)], dtype=np.float64
    )
    horizons = np.arange(t_max + 1)
    zeros = np.zeros(t_max + 1)
    return DualityReport(
        horizons=horizons,
        cobra_side=cobra_surv,
        bips_side=bips_side,
        cobra_stderr=zeros,
        bips_stderr=zeros.copy(),
    )


def verify_duality_monte_carlo(
    graph: Graph,
    source: int,
    start_set,
    *,
    branching: BranchingPolicy | int | float = 2,
    lazy: bool = False,
    horizons=None,
    runs: int = 2000,
    rng: np.random.Generator | int | None = None,
) -> DualityReport:
    """Monte-Carlo estimates of both sides of Theorem 1.3.

    COBRA side: fraction of runs (started from ``start_set``) in which
    the source is still unhit after ``T`` rounds.  BIPS side: fraction
    of runs (source ``source``) in which ``A_T`` misses ``start_set``
    entirely.  Both estimated from ``runs`` independent trajectories:
    the COBRA runs from the sharded stream, each stopping at its hit of
    the source (as in :func:`~repro.core.hitting.cobra_hit_survival_mc`;
    the stream's root is one draw from ``rng``), then the BIPS runs as
    one ``(runs, n)`` batch on ``rng``.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    require_connected(graph)
    gen = generator_from(rng)
    source = check_vertex(graph, source)
    c = check_vertex_set(graph, start_set)
    if horizons is None:
        horizons = np.arange(0, 4 * max(4, int(np.ceil(np.log2(graph.n + 1)))))
    horizons = np.asarray(horizons, dtype=np.int64)
    if horizons.min() < 0:
        raise ValueError("horizons must be nonnegative")
    t_top = int(horizons.max())
    policy = make_policy(branching)

    # --- COBRA side: the round each run first hits the source (-1:
    # not by t_top).
    state = np.zeros((runs, graph.n), dtype=bool)
    state[:, c] = True
    hits = SpreadEngine(
        CobraRule(policy, lazy=lazy), graph, TargetHit(source)
    ).run_sharded(state, gen, workers=1, max_rounds=t_top).finish_times
    unhit = (hits[:, None] < 0) | (hits[:, None] > horizons[None, :])
    cobra_side = unhit.sum(axis=0) / runs

    # --- BIPS side: batch runs, count the runs whose A_t misses C.
    rule = BipsRule(policy, source, lazy=lazy)
    alive = np.ones(runs, dtype=bool)
    infected = np.zeros((runs, graph.n), dtype=bool)
    infected[:, source] = True
    misses = np.zeros(t_top + 1, dtype=np.int64)
    misses[0] = 0 if source in c else runs
    for t in range(1, t_top + 1):
        infected = rule.step(graph, infected, alive, gen)
        misses[t] = np.count_nonzero(~infected[:, c].any(axis=1))
    bips_side = misses[horizons] / runs

    def stderr(p: np.ndarray) -> np.ndarray:
        return np.sqrt(np.maximum(p * (1.0 - p), 1e-12) / runs)

    return DualityReport(
        horizons=horizons,
        cobra_side=cobra_side,
        bips_side=bips_side,
        cobra_stderr=stderr(cobra_side),
        bips_stderr=stderr(bips_side),
    )
