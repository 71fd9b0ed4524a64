"""Graph sequences: the substrate for time-evolving-graph processes.

A :class:`GraphSequence` is a deterministic, random-access sequence of
graph snapshots ``G_0, G_1, ...`` over a fixed vertex set ``0 .. n-1``.
``graph_at(t)`` is a pure function of the sequence's seed, so replaying
a sequence — in any access order — always yields the same topology
realisation.  This is what keeps dynamic-process experiments and the
duality/coupling audits reproducible: topology randomness lives in its
own stream, entirely separate from the process randomness.

A sequence serves the snapshot of the round it is at.  A
:class:`MarkovGraphSequence` holds its chain's current round and that
round's :class:`~repro.graphs.Graph`: a lookup of that round returns
the held graph, a later round steps the chain forward, and an earlier
round replays it from round 0.  Rounds whose transition left the
topology untouched (zero accepted swaps, no edge flips) keep the held
``Graph`` object instead of rebuilding it.  An engine run asks for its
rounds in order, so it builds each snapshot at most once.  A
swap-driven sequence's snapshot wraps the CSR its round's
:class:`~repro.dynamics.topology.MutableTopology` sorted once.

Concrete stochastic providers live in
:mod:`repro.dynamics.providers`; :class:`FrozenSequence` (a constant
sequence) is defined here.
"""

from __future__ import annotations

import abc

import numpy as np

from ..graphs.graph import Graph
from ..stats.rng import unspawned

__all__ = ["GraphSequence", "MarkovGraphSequence", "FrozenSequence"]


class GraphSequence(abc.ABC):
    """Abstract random-access sequence of graph snapshots.

    Parameters
    ----------
    n:
        Vertex count, shared by every snapshot (vertices never change
        identity; "departed" vertices appear with degree zero).
    name:
        Human-readable label used in reports.
    """

    #: Oblivious by default.  Sequences that react to process state
    #: (see :mod:`repro.engine.observation`) set this True and
    #: implement ``observe(observation)``; the engine then delivers one
    #: :class:`~repro.engine.FrontierObservation` per round.
    observes_process = False

    def __init__(self, n: int, name: str) -> None:
        if n < 1:
            raise ValueError("sequence needs at least one vertex")
        self.n = int(n)
        self.name = name
        self._hits = 0
        self._misses = 0

    # ------------------------------------------------------------------
    def fresh_replay(self) -> "GraphSequence":
        """A sequence replaying this realisation from a pristine state.

        Oblivious sequences are already pure functions of their seed,
        so sharing one instance is safe and the default returns
        ``self``.  Observing sequences (``observes_process = True``)
        accumulate an observation log and therefore *must* override
        this to return an unused clone — sharding and the per-run
        samplers call it before handing a sequence to a new engine
        invocation.
        """
        if self.observes_process:
            raise NotImplementedError(
                f"{type(self).__name__} observes the process and must "
                "implement fresh_replay()"
            )
        return self

    # ------------------------------------------------------------------
    def graph_at(self, t: int) -> Graph:
        """Return the snapshot in force during round ``t``."""
        t = int(t)
        if t < 0:
            raise ValueError("round index must be >= 0")
        graph = self._materialize(t)
        if graph.n != self.n:
            raise ValueError(
                f"{self.name}: snapshot at t={t} has n={graph.n}, "
                f"expected {self.n}"
            )
        return graph

    @property
    def cache_info(self) -> dict:
        """Snapshot lookups (for tests and benchmarks).

        ``hits`` counts the lookups the graph already held answered,
        ``misses`` the ones that stepped, replayed or built.
        """
        return {"hits": self._hits, "misses": self._misses}

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _materialize(self, t: int) -> Graph:
        """The snapshot for round ``t``, counted as a hit or a miss."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, n={self.n})"


class MarkovGraphSequence(GraphSequence):
    """Base class for sequences evolving as a Markov chain on topologies.

    Subclasses implement three hooks operating on internal state:

    * ``_reset_state()`` — (re)initialise the round-0 state;
    * ``_advance_state(rng)`` — one transition; returns True iff the
      topology actually changed;
    * ``_build_graph()`` — materialise a :class:`Graph` from the state.

    The base class owns reproducibility: the transition into round ``t``
    is driven by the ``t``-th child of the master
    :class:`numpy.random.SeedSequence`, so replaying from round 0 (the
    slow path taken when a caller asks for an earlier round than the
    chain is at) regenerates the identical realisation.
    """

    def __init__(
        self,
        base: Graph,
        name: str,
        seed: int | np.random.SeedSequence | None = None,
    ) -> None:
        super().__init__(base.n, name)
        self.base = base
        self._master = (
            unspawned(seed)
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        self._round_seeds: list[np.random.SeedSequence] = []
        self._state_t = -1  # -1: state not yet initialised
        self._graph: Graph | None = None  # None: not built for _state_t

    # -- subclass hooks -------------------------------------------------
    @abc.abstractmethod
    def _reset_state(self) -> None:
        """(Re)initialise the round-0 topology state."""

    @abc.abstractmethod
    def _advance_state(self, rng: np.random.Generator) -> bool:
        """Advance one round; return True iff the topology changed."""

    @abc.abstractmethod
    def _build_graph(self) -> Graph:
        """Materialise the current state as a :class:`Graph`."""

    # -- machinery ------------------------------------------------------
    def _round_rng(self, t: int) -> np.random.Generator:
        """The generator driving the transition into round ``t`` (t >= 1):
        the master's ``t``-th child, spawned on first use and kept."""
        while len(self._round_seeds) < t:
            self._round_seeds.append(self._master.spawn(1)[0])
        return np.random.default_rng(self._round_seeds[t - 1])

    def _materialize(self, t: int) -> Graph:
        if t == self._state_t and self._graph is not None:
            self._hits += 1
            return self._graph
        self._misses += 1
        if self._state_t < 0 or t < self._state_t:
            # The first lookup or an earlier round: replay from round 0.
            self._reset_state()
            self._state_t = 0
            self._graph = None
        while self._state_t < t:
            nxt = self._state_t + 1
            if self._advance_state(self._round_rng(nxt)):
                self._graph = None
            self._state_t = nxt
        if self._graph is None:
            self._graph = self._build_graph()
        return self._graph


class FrozenSequence(GraphSequence):
    """A constant sequence: every round sees the same static graph.

    The rate-0 limit of every provider; dynamic runners on a frozen
    sequence reproduce their static counterparts sample-for-sample
    under the same process seed.
    """

    def __init__(self, graph: Graph) -> None:
        super().__init__(graph.n, f"frozen-{graph.name}")
        self.base = graph

    def _materialize(self, t: int) -> Graph:
        self._hits += 1
        return self.base
