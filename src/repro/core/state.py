"""Result containers for process runs.

Plain frozen dataclasses: the engines return these instead of bare
tuples so experiment code reads like the paper ("``result.cover_time``",
"``result.infection_time``", "``result.sizes``").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CobraResult",
    "BipsResult",
]


@dataclass(frozen=True)
class CobraResult:
    """Outcome of one COBRA run.

    Attributes
    ----------
    covered:
        True iff every vertex was visited within the round cap.
    cover_time:
        ``cover(u)`` per the paper: the first round ``T`` with
        ``union_{t<=T} C_t = V``.  Only valid when ``covered``.
    rounds_run:
        Number of rounds actually simulated.
    hit_times:
        Per-vertex first-visit round (``Hit(w)``); ``-1`` if unvisited.
    active_sizes:
        ``|C_t|`` for ``t = 0 .. rounds_run`` (empty if not recorded).
    visited_counts:
        Cumulative number of distinct visited vertices per round
        (empty if not recorded).
    """

    covered: bool
    cover_time: int
    rounds_run: int
    hit_times: np.ndarray
    active_sizes: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    visited_counts: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))


@dataclass(frozen=True)
class BipsResult:
    """Outcome of one BIPS run.

    Attributes
    ----------
    infected_all:
        True iff the whole graph was infected within the round cap.
    infection_time:
        ``infec(v)``: the first round at which ``A_t = V``.
    rounds_run:
        Number of rounds simulated.
    sizes:
        ``|A_t|`` for ``t = 0 .. rounds_run``.
    degree_sizes:
        ``d(A_t)`` (the quantity tracked in Section 3), same indexing;
        empty unless recorded.
    candidate_sizes:
        ``|C_t|`` for ``t = 1 .. rounds_run`` (the candidate sets of
        eq. (6)); empty unless recorded.
    final_infected:
        Boolean mask of the infected set at the last simulated round.
    """

    infected_all: bool
    infection_time: int
    rounds_run: int
    sizes: np.ndarray
    degree_sizes: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    candidate_sizes: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    final_infected: np.ndarray = field(default_factory=lambda: np.empty(0, bool))
