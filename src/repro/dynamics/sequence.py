"""Graph sequences: the substrate for time-evolving-graph processes.

A :class:`GraphSequence` is a deterministic, random-access sequence of
graph snapshots ``G_0, G_1, ...`` over a fixed vertex set ``0 .. n-1``.
``graph_at(t)`` is a pure function of the sequence's seed, so replaying
a sequence — in any access order — always yields the same topology
realisation.  This is what keeps dynamic-process experiments and the
duality/coupling audits reproducible: topology randomness lives in its
own stream, entirely separate from the process randomness.

Two mechanisms keep per-round :class:`~repro.graphs.Graph` construction
off the simulation hot path:

* an LRU snapshot cache (recently queried rounds return the cached
  object, so runners that revisit a round pay nothing), and
* state-change tracking in :class:`MarkovGraphSequence` — rounds whose
  transition left the topology untouched (zero accepted swaps, no edge
  flips) reuse the previous ``Graph`` object instead of rebuilding.

Concrete stochastic providers live in
:mod:`repro.dynamics.providers`; :class:`FrozenSequence` (a constant
sequence) and :class:`SnapshotSchedule` (replay of a precomputed list,
eager or lazily materialised) are defined here.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from typing import Callable, Sequence

import numpy as np

from ..graphs.graph import Graph
from ..stats.rng import unspawned

__all__ = [
    "GraphSequence",
    "MarkovGraphSequence",
    "FrozenSequence",
    "SnapshotSchedule",
]

# Round seeds are spawned from the master SeedSequence in blocks, so a
# long run does not pay one ``spawn`` call per round.
_SEED_BLOCK = 64


class _LRUCache:
    """A tiny LRU mapping (OrderedDict-based) with hit/miss counters."""

    __slots__ = ("capacity", "hits", "misses", "_data")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict = OrderedDict()

    def get(self, key):
        if key in self._data:
            self._data.move_to_end(key)
            self.hits += 1
            return self._data[key]
        self.misses += 1
        return None

    def put(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)


class GraphSequence(abc.ABC):
    """Abstract random-access sequence of graph snapshots.

    Parameters
    ----------
    n:
        Vertex count, shared by every snapshot (vertices never change
        identity; "departed" vertices appear with degree zero).
    name:
        Human-readable label used in reports.
    cache_size:
        Capacity of the LRU snapshot cache.
    """

    #: Oblivious by default.  Sequences that react to process state
    #: (see :mod:`repro.engine.observation`) set this True and
    #: implement ``observe(observation)``; the engine then delivers one
    #: :class:`~repro.engine.FrontierObservation` per round.
    observes_process = False

    def __init__(self, n: int, name: str, *, cache_size: int = 8) -> None:
        if n < 1:
            raise ValueError("sequence needs at least one vertex")
        self.n = int(n)
        self.name = name
        self._cache = _LRUCache(cache_size)

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
        """Return the snapshot in force during round ``t`` (cached)."""
        t = int(t)
        if t < 0:
            raise ValueError("round index must be >= 0")
        key = self._cache_key(t)
        graph = self._cache.get(key)
        if graph is None:
            graph = self._materialize(t)
            if graph.n != self.n:
                raise ValueError(
                    f"{self.name}: snapshot at t={t} has n={graph.n}, "
                    f"expected {self.n}"
                )
            self._cache.put(key, graph)
        return graph

    @property
    def cache_info(self) -> dict:
        """Snapshot-cache statistics (for tests and benchmarks)."""
        return {
            "hits": self._cache.hits,
            "misses": self._cache.misses,
            "size": len(self._cache),
            "capacity": self._cache.capacity,
        }

    # ------------------------------------------------------------------
    def _cache_key(self, t: int):
        """Cache key for round ``t`` (rounds sharing a snapshot share it)."""
        return t

    @abc.abstractmethod
    def _materialize(self, t: int) -> Graph:
        """Build (or fetch) the snapshot for round ``t``."""

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
    :class:`numpy.random.SeedSequence`, so recomputing from round 0 (the
    slow path taken when a caller seeks backwards past the cache)
    regenerates the identical realisation.
    """

    def __init__(
        self,
        base: Graph,
        name: str,
        seed: int | np.random.SeedSequence | None = None,
        *,
        cache_size: int = 8,
    ) -> None:
        super().__init__(base.n, name, cache_size=cache_size)
        self.base = base
        self._master = (
            unspawned(seed)
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        self._round_seeds: list[np.random.SeedSequence] = []
        self._state_t = -1  # -1: state not yet initialised
        self._graph: Graph | None = None
        self._graph_stale = True

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
        """The generator driving the transition into round ``t`` (t >= 1)."""
        while len(self._round_seeds) < t:
            self._round_seeds.extend(self._master.spawn(_SEED_BLOCK))
        return np.random.default_rng(self._round_seeds[t - 1])

    def _materialize(self, t: int) -> Graph:
        if self._state_t < 0 or t < self._state_t:
            # Seeking backwards past the cache: deterministic restart.
            self._reset_state()
            self._state_t = 0
            self._graph_stale = True
        while self._state_t < t:
            nxt = self._state_t + 1
            if self._advance_state(self._round_rng(nxt)):
                self._graph_stale = True
            self._state_t = nxt
        if self._graph is None or self._graph_stale:
            self._graph = self._build_graph()
            self._graph_stale = False
        return self._graph


class FrozenSequence(GraphSequence):
    """A constant sequence: every round sees the same static graph.

    The rate-0 limit of every provider; dynamic runners on a frozen
    sequence reproduce their static counterparts sample-for-sample
    under the same process seed.
    """

    def __init__(self, graph: Graph) -> None:
        super().__init__(graph.n, f"frozen-{graph.name}", cache_size=1)
        self.base = graph

    def _cache_key(self, t: int):
        return 0

    def _materialize(self, t: int) -> Graph:
        return self.base


class SnapshotSchedule(GraphSequence):
    """Replay a precomputed list of snapshots on a round schedule.

    Parameters
    ----------
    snapshots:
        Graphs, or zero-argument callables producing graphs ("lazy"
        entries, materialised on first use and retained only by the LRU
        cache — a schedule of thousands of large snapshots never holds
        more than ``cache_size`` of them in memory).
    durations:
        Rounds each snapshot stays in force (default: 1 each).
    cycle:
        After the schedule's last round, wrap around (True) or hold the
        final snapshot forever (False, the default).
    """

    def __init__(
        self,
        snapshots: Sequence[Graph | Callable[[], Graph]],
        *,
        durations: Sequence[int] | None = None,
        cycle: bool = False,
        name: str = "schedule",
        cache_size: int = 8,
    ) -> None:
        if not snapshots:
            raise ValueError("schedule needs at least one snapshot")
        self._snapshots = list(snapshots)
        if durations is None:
            durations = [1] * len(self._snapshots)
        durations = [int(d) for d in durations]
        if len(durations) != len(self._snapshots):
            raise ValueError("durations must match snapshots one-to-one")
        if any(d < 1 for d in durations):
            raise ValueError("every duration must be >= 1")
        self._ends = np.cumsum(np.asarray(durations, dtype=np.int64))
        self.cycle = bool(cycle)
        self.materializations = 0
        first = self._entry(0)
        super().__init__(first.n, name, cache_size=cache_size)
        self._cache.put(0, first)

    def _entry(self, index: int) -> Graph:
        entry = self._snapshots[index]
        if callable(entry):
            self.materializations += 1
            entry = entry()
        if not isinstance(entry, Graph):
            raise TypeError("snapshot entries must be Graphs or Graph factories")
        return entry

    def snapshot_index(self, t: int) -> int:
        """Map a round index to the index of the snapshot in force."""
        total = int(self._ends[-1])
        t = t % total if self.cycle else min(t, total - 1)
        return int(np.searchsorted(self._ends, t, side="right"))

    def _cache_key(self, t: int):
        return self.snapshot_index(t)

    def _materialize(self, t: int) -> Graph:
        return self._entry(self.snapshot_index(t))
