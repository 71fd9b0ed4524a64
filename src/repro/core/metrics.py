"""Cost accounting and cover-time aggregation utilities.

The paper's design goal is "propagate quickly *but with a limited
number of transmissions per vertex per round*".  This module makes the
cost side first-class: per-run message counts, per-vertex transmission
loads, and the worst-case-start aggregation ``COVER(G) = max_u
E[cover(u)]`` used in the paper's definition of cover time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine.engine import SpreadEngine
from ..engine.rules import CobraRule
from ..graphs.graph import Graph
from ..graphs.validation import check_vertex, require_connected
from ..parallel.sharding import finished_times_or_raise
from ..stats.estimators import Estimate, mean_ci
from ..stats.rng import generator_from, spawn_seeds
from .branching import BranchingPolicy, make_policy
from .cobra import (
    CobraProcess,
    _start_state,
    cover_time_samples,
    default_round_cap,
)

__all__ = [
    "TransmissionReport",
    "cobra_transmission_report",
    "per_vertex_load",
    "CoverProfile",
    "worst_start_cover",
]


@dataclass(frozen=True)
class TransmissionReport:
    """Message-cost summary of COBRA runs to coverage.

    ``total_messages`` counts every selection made by an active vertex
    (``b`` per active vertex per round for fixed-``b``); rates are per
    vertex to make graph sizes comparable.
    """

    graph_name: str
    n: int
    runs: int
    rounds: Estimate
    total_messages: Estimate
    messages_per_vertex: Estimate
    peak_active_fraction: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.graph_name}: {self.rounds} rounds, "
            f"{self.messages_per_vertex} msgs/vertex"
        )


def cobra_transmission_report(
    graph: Graph,
    start: int = 0,
    runs: int = 20,
    *,
    branching: BranchingPolicy | int | float = 2,
    lazy: bool = False,
    rng=None,
) -> TransmissionReport:
    """Run COBRA to coverage ``runs`` times and account for every message.

    One recorded pass of the sharded engine path (the stream of
    :func:`~repro.core.cobra.cover_time_samples`).  Run ``r``, covering
    at round ``T_r``, sends from ``C_0 … C_{T_r - 1}`` and peaks at the
    largest of ``|C_0| … |C_{T_r}|``; shards pad their rows past their
    end, so both are read up to ``T_r``.  For the Bernoulli policy the
    expected per-vertex rate ``1 + ρ`` is used (the engine draws counts
    internally; we account in expectation, which is exact for fixed
    ``b``).
    """
    policy = make_policy(branching)
    proc = CobraProcess(graph, policy, lazy=lazy)
    res = SpreadEngine(proc.rule, graph).run_sharded(
        _start_state(graph, start, runs), rng, workers=1, record_sizes=True
    )
    rounds = finished_times_or_raise(res.finish_times, f"COBRA on {graph.name}")
    t = np.arange(res.sizes.shape[1])
    senders = np.where(t < rounds[:, None], res.sizes, 0).sum(axis=1)
    totals = policy.expected_branching * senders.astype(np.float64)
    peak = int(np.where(t <= rounds[:, None], res.sizes, 0).max(initial=0))
    return TransmissionReport(
        graph_name=graph.name,
        n=graph.n,
        runs=runs,
        rounds=mean_ci(rounds.astype(np.float64)),
        total_messages=mean_ci(totals),
        messages_per_vertex=mean_ci(totals / graph.n),
        peak_active_fraction=float(peak) / graph.n,
    )


class _LoggedCounts:
    """A branching policy that keeps the counts of its latest draw."""

    def __init__(self, policy: BranchingPolicy) -> None:
        self.policy = policy
        self.last = np.empty(0, dtype=np.int64)

    def draw_counts(self, k: int, rng: np.random.Generator) -> np.ndarray:
        self.last = self.policy.draw_counts(k, rng)
        return self.last


def per_vertex_load(
    graph: Graph,
    start: int = 0,
    *,
    branching: BranchingPolicy | int | float = 2,
    lazy: bool = False,
    rng=None,
    max_rounds: int | None = None,
) -> np.ndarray:
    """Transmissions made by each vertex during one run to coverage.

    Returns an ``(n,)`` integer array: how many selections each vertex
    performed.  The paper's cap means no entry may exceed
    ``b · cover_time``.  The run is :class:`~repro.engine.rules.CobraRule`
    at ``R = 1``, which draws one count per active vertex in ascending
    vertex order.
    """
    gen = generator_from(rng)
    require_connected(graph)
    counts = _LoggedCounts(make_policy(branching))
    rule = CobraRule(counts, lazy=lazy)
    state = np.zeros((1, graph.n), dtype=bool)
    state[0, check_vertex(graph, start)] = True
    visited = state[0].copy()
    alive = np.ones(1, dtype=bool)
    load = np.zeros(graph.n, dtype=np.int64)
    cap = default_round_cap(graph) if max_rounds is None else int(max_rounds)
    t = 0
    while not visited.all() and t < cap:
        t += 1
        nxt = rule.step(graph, state, alive, gen)
        load[state[0]] += counts.last
        state = nxt
        visited |= state[0]
    if not visited.all():
        raise RuntimeError(f"COBRA failed to cover {graph.name} within {cap} rounds")
    return load


@dataclass(frozen=True)
class CoverProfile:
    """Cover-time estimates per start vertex plus the worst-case maximum.

    ``COVER(G) = max_u E[cover(u)]`` — the paper's cover-time
    definition; ``worst_start`` attains the max over the sampled starts.
    """

    graph_name: str
    starts: np.ndarray
    means: np.ndarray
    worst_start: int
    cover_of_g: float

    def best_start(self) -> int:
        """The sampled start with the smallest estimated E[cover(u)]."""
        return int(self.starts[int(np.argmin(self.means))])


def worst_start_cover(
    graph: Graph,
    *,
    runs_per_start: int = 16,
    max_starts: int = 16,
    branching: BranchingPolicy | int | float = 2,
    lazy: bool = False,
    seed: int = 0,
) -> CoverProfile:
    """Estimate ``COVER(G)`` by maximising mean cover time over starts.

    All vertices are tried when ``n <= max_starts``; otherwise
    ``max_starts`` evenly-spread vertices (deterministic stride) are
    sampled, which suffices for the vertex-transitive and
    near-homogeneous families in the experiments.
    """
    if graph.n <= max_starts:
        starts = np.arange(graph.n, dtype=np.int64)
    else:
        stride = graph.n / max_starts
        starts = np.unique((np.arange(max_starts) * stride).astype(np.int64))
    seeds = spawn_seeds(seed, len(starts))
    means = np.empty(len(starts), dtype=np.float64)
    for i, (u, s) in enumerate(zip(starts.tolist(), seeds)):
        samples = cover_time_samples(
            graph,
            u,
            runs_per_start,
            branching=branching,
            lazy=lazy,
            rng=np.random.default_rng(s),
        )
        means[i] = samples.mean()
    worst = int(np.argmax(means))
    return CoverProfile(
        graph_name=graph.name,
        starts=starts,
        means=means,
        worst_start=int(starts[worst]),
        cover_of_g=float(means[worst]),
    )
