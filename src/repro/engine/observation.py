"""The observation protocol: topology sources that see the process.

The engine's topology sources are normally *oblivious* — a
:class:`~repro.dynamics.GraphSequence` evolves from its own seed,
blind to where the spread process actually is.  Worst-case dynamic
cover needs the other regime: an **adaptive adversary** that rewires
against the observed frontier.  This module defines the handshake.

A topology source opts in by setting ``observes_process = True`` and
implementing ``observe(observation)``.  The engine then delivers one
:class:`FrontierObservation` per round — *before* it asks the source
for that round's snapshot — carrying the state entering the round:

* round 0: the initial state, before the pre-loop ``graph_at(0)``;
* round ``t >= 1``: the state produced by round ``t - 1``, before the
  loop's ``graph_at(t)``.

So ``graph_at(t)`` may react to exactly the process state that is
about to act on snapshot ``t`` — full information, zero lookahead.

Determinism contract: the observation stream is a pure function of
``(rule, topology seed, process seed, initial state)`` — never of what
the caller asks the engine to record — so an adaptive
source remains replayable — re-running the same engine invocation
regenerates the identical observation sequence and therefore the
identical topology realisation.  This is what keeps adversarial
sequences shard-locally realizable and wire-encodable as seeded replay
specs (see :mod:`repro.adversary`).

The arrays inside an observation are engine-owned views, valid only
for the duration of the ``observe`` call — observers must copy (or
digest) what they keep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FrontierObservation"]


@dataclass(frozen=True)
class FrontierObservation:
    """Per-round snapshot of the process state, as shown to a topology.

    Attributes
    ----------
    t:
        Round index the state is entering (the snapshot ``graph_at(t)``
        requested next is the one this state will act on).
    occupied:
        ``(R, n)`` boolean occupancy entering round ``t`` — the active
        set for COBRA, the infected set for BIPS, the informed set for
        the broadcast baselines, walker positions scattered for walks.
    visited:
        ``(R, n)`` cumulative visited mask for rules whose completion
        rests on it (``completion_basis == "visited"``: COBRA, walks);
        None otherwise, whatever the caller records (``track_hits`` /
        ``record_visited`` never change what an observer sees) —
        observers should fall back to ``occupied``.
    alive:
        ``(R,)`` boolean mask of runs that have not yet completed.
    """

    t: int
    occupied: np.ndarray
    visited: np.ndarray | None
    alive: np.ndarray

    @property
    def runs(self) -> int:
        """Number of runs the engine is advancing."""
        return int(self.occupied.shape[0])

    @property
    def n(self) -> int:
        """Vertex count of the fixed vertex set."""
        return int(self.occupied.shape[1])

    @property
    def informed(self) -> np.ndarray:
        """The best cumulative-knowledge mask available.

        ``visited`` when the engine tracks it, else ``occupied``.
        """
        return self.occupied if self.visited is None else self.visited

    def frontier_sizes(self) -> np.ndarray:
        """``(R,)`` per-run occupancy counts entering the round."""
        return self.occupied.sum(axis=1)

    def union_occupied(self) -> np.ndarray:
        """``(n,)`` union of occupancy over the alive runs."""
        if not self.alive.any():
            return np.zeros(self.n, dtype=bool)
        return self.occupied[self.alive].any(axis=0)

    def union_informed(self) -> np.ndarray:
        """``(n,)`` union of cumulative knowledge over the alive runs."""
        if not self.alive.any():
            return np.zeros(self.n, dtype=bool)
        return self.informed[self.alive].any(axis=0)
