"""Stochastic evolving-graph providers.

Three canonical dynamics from the evolving-graph literature, each a
:class:`~repro.dynamics.sequence.MarkovGraphSequence`:

* :class:`EdgeMarkovianSequence` — every potential edge is an
  independent two-state Markov chain (absent --birth--> present,
  present --death--> absent), the edge-Markovian model of Clementi et
  al. used for dynamic flooding/rumour-spreading bounds.
* :class:`RewiringSequence` — degree-preserving double-edge swaps
  ("k-swap") per round, the standard Markov chain on the set of simple
  graphs with a fixed degree sequence; applied to
  :func:`~repro.graphs.generators.random_regular_graph` it walks the
  space of random regular graphs (expanders w.h.p.).
* :class:`ChurnSequence` — vertices leave and rejoin a fixed base
  topology (peer-to-peer churn); departed vertices keep their identity
  but appear with degree zero, and the active part is kept connected
  around a protected anchor (the infection source).

All three are deterministic functions of their seed (see the module
docstring of :mod:`repro.dynamics.sequence`).
"""

from __future__ import annotations

from array import array

import numpy as np

from ..graphs.graph import Graph, _ragged_arange
from ..graphs.validation import check_vertex_set, require_connected
from .sequence import MarkovGraphSequence
from .topology import MutableTopology

__all__ = [
    "EdgeMarkovianSequence",
    "RewiringSequence",
    "ChurnSequence",
    "try_swap_round",
    "advance_swap_state",
]


def _check_probability(value: float, label: str) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{label} must be a probability in [0, 1], got {value}")
    return value


def try_swap_round(
    edges: np.ndarray,
    keys: set,
    n: int,
    swaps: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, set, bool]:
    """One round of double-edge-swap attempts on copies of the state.

    The exact draw order of :class:`RewiringSequence` (shared with
    :class:`repro.adversary.AdversarialSequence`'s oblivious phase, so
    a budget-0 adversary replays the oblivious realisation
    bit-for-bit): ``swaps`` edge-index pairs first, then the mirror
    coins, then a sequential accept/reject loop rejecting self-loops,
    parallel edges and identity proposals.

    The loop reads the two endpoint columns as ``array("q")`` copies,
    so a Python int is made only for an entry it reads (about one in
    five at 10% of ``m`` swaps), and writes accepted rows back into
    them; the returned ``(m, 2)`` int64 edge array is built from their
    buffers.  The input arrays and key set are left untouched.
    """
    keys = set(keys)
    m = edges.shape[0]
    pairs = rng.integers(0, m, size=(swaps, 2))
    mirror = rng.random(swaps) < 0.5
    n = int(n)
    first = array("q", edges[:, 0].astype(np.int64).tobytes())
    second = array("q", edges[:, 1].astype(np.int64).tobytes())
    discard, add = keys.discard, keys.add
    changed = False
    for (i, j), flip in zip(pairs.tolist(), mirror.tolist()):
        if i == j:
            continue
        a, b = first[i], second[i]
        c, d = (second[j], first[j]) if flip else (first[j], second[j])
        if a == c or b == d:
            continue  # proposal creates a self-loop
        lo1, hi1 = (a, c) if a < c else (c, a)
        lo2, hi2 = (b, d) if b < d else (d, b)
        # MutableTopology.edge_key, inlined: this loop is the hot path.
        k1 = lo1 * n + hi1
        k2 = lo2 * n + hi2
        old1 = a * n + b if a < b else b * n + a
        old2 = c * n + d if c < d else d * n + c
        if (k1 == old1 and k2 == old2) or (k1 == old2 and k2 == old1):
            continue  # identity proposal (edges share a vertex)
        # Past the identity test neither new key is an old one.
        if k1 == k2 or k1 in keys or k2 in keys:
            continue  # proposal creates a parallel edge
        discard(old1)
        discard(old2)
        add(k1)
        add(k2)
        first[i], second[i] = lo1, hi1
        first[j], second[j] = lo2, hi2
        changed = True
    edges = np.column_stack(
        (np.frombuffer(first, dtype=np.int64), np.frombuffer(second, dtype=np.int64))
    )
    return edges, keys, changed


def advance_swap_state(owner, rng: np.random.Generator) -> bool:
    """One RewiringSequence-style round on ``owner``'s edge state.

    ``owner`` carries ``_edges`` / ``_keys`` plus the
    ``swaps_per_round`` / ``keep_connected`` / ``max_retries`` knobs —
    :class:`RewiringSequence` itself, and the oblivious phase of
    :class:`repro.adversary.AdversarialSequence`.  A round whose
    accepted swaps disconnect the graph is re-drawn from the same
    round stream (up to ``max_retries`` times, then the round leaves
    the topology unchanged).

    Each proposal is checked over all ``n`` vertices (churned-out ones
    included) by :meth:`MutableTopology.connected`, which sorts its
    edges into a CSR.  The accepted proposal's topology, CSR included,
    stays on the owner as ``_topology`` for the adversary phase and
    the snapshot (:meth:`MutableTopology.snapshot`).
    """
    if owner.swaps_per_round == 0:
        return False
    attempts = owner.max_retries + 1 if owner.keep_connected else 1
    for _ in range(attempts):
        edges, keys, changed = try_swap_round(
            owner._edges, owner._keys, owner.n, owner.swaps_per_round, rng
        )
        if not changed:
            return False
        topology = MutableTopology(owner.n, edges, keys, np.ones(owner.n, dtype=bool))
        if owner.keep_connected and not topology.connected():
            continue
        owner._edges = edges
        owner._keys = keys
        owner._topology = topology
        return True
    return False  # no connected proposal found; hold the topology


class EdgeMarkovianSequence(MarkovGraphSequence):
    """Each potential edge flips on/off with birth/death rates.

    State: one boolean per potential edge (all ``n(n-1)/2`` vertex
    pairs, so memory is quadratic in ``n`` — intended for the
    experiment sizes, up to a few thousand vertices).  An absent edge
    appears next round with probability ``birth``; a present edge
    disappears with probability ``death``.  The stationary edge density
    is ``birth / (birth + death)``; starting from ``base`` the chain
    mixes toward it at rate ``1 - birth - death`` per round.
    """

    def __init__(
        self,
        base: Graph,
        birth: float,
        death: float,
        seed: int | np.random.SeedSequence | None = None,
    ) -> None:
        if base.n < 2:
            raise ValueError("edge-Markovian dynamics need n >= 2")
        self.birth = _check_probability(birth, "birth")
        self.death = _check_probability(death, "death")
        super().__init__(base, f"edge-markovian-{base.name}", seed)
        iu, iv = np.triu_indices(base.n, k=1)
        self._iu = iu.astype(np.int64)
        self._iv = iv.astype(np.int64)
        # triu_indices enumerates pairs in ascending (u, v) order, so the
        # encoded keys are sorted and searchsorted gives the pair index.
        keys = self._iu * np.int64(base.n) + self._iv
        base_edges = base.edge_array()
        base_keys = base_edges[:, 0] * np.int64(base.n) + base_edges[:, 1]
        self._initial = np.zeros(keys.shape[0], dtype=bool)
        self._initial[np.searchsorted(keys, base_keys)] = True
        self._mask = self._initial.copy()

    def _reset_state(self) -> None:
        self._mask = self._initial.copy()

    def _advance_state(self, rng: np.random.Generator) -> bool:
        u = rng.random(self._mask.shape[0])
        nxt = np.where(self._mask, u >= self.death, u < self.birth)
        changed = bool(np.any(nxt != self._mask))
        self._mask = nxt
        return changed

    def _build_graph(self) -> Graph:
        edges = np.column_stack([self._iu[self._mask], self._iv[self._mask]])
        return Graph(self.n, edges, name=self.name)


class RewiringSequence(MarkovGraphSequence):
    """Degree-preserving double-edge swaps each round.

    Every round attempts ``swaps_per_round`` swaps: two edges
    ``{a, b}``, ``{c, d}`` are replaced by ``{a, c}``, ``{b, d}`` (or
    the mirrored pairing, chosen uniformly), rejecting proposals that
    would create a self-loop or a parallel edge.  Degrees — hence
    regularity — are invariant; the vertex set never changes.

    With ``keep_connected=True`` (default) a round whose accepted swaps
    disconnect the graph is re-drawn from the same round stream (up to
    ``max_retries`` times, then the round leaves the topology
    unchanged), so every snapshot stays connected.
    """

    def __init__(
        self,
        base: Graph,
        swaps_per_round: int,
        seed: int | np.random.SeedSequence | None = None,
        *,
        keep_connected: bool = True,
        max_retries: int = 20,
    ) -> None:
        if swaps_per_round < 0:
            raise ValueError("swaps_per_round must be >= 0")
        if base.m < 2 and swaps_per_round > 0:
            raise ValueError("rewiring needs at least two edges")
        if keep_connected:
            require_connected(base)
        self.swaps_per_round = int(swaps_per_round)
        self.keep_connected = bool(keep_connected)
        self.max_retries = int(max_retries)
        super().__init__(base, f"rewiring-{base.name}", seed)

    def _reset_state(self) -> None:
        self._edges = self.base.edge_array()
        self._keys = MutableTopology.edge_key_set(self._edges, self.n)
        self._topology = MutableTopology(self.n, self._edges, self._keys, np.ones(self.n, bool))

    def _advance_state(self, rng: np.random.Generator) -> bool:
        return advance_swap_state(self, rng)

    def _build_graph(self) -> Graph:
        return self._topology.snapshot(self.name)


class ChurnSequence(MarkovGraphSequence):
    """Vertices leave and rejoin a fixed base topology.

    Per round, each active unprotected vertex leaves with probability
    ``leave``; each inactive vertex attempts to rejoin with probability
    ``rejoin`` and succeeds if it has an active base-neighbour to
    attach to.  A snapshot is the subgraph of ``base`` induced by the
    active set; departed vertices remain in the vertex numbering with
    degree zero.

    Connectivity contract: protected vertices are never deactivated
    and the active subgraph always is a single connected component
    containing all of them — vertices a round would cut off from the
    anchor (``protected[0]``) are counted as churned out as well, and
    a departure wave that would isolate the anchor or sever any
    protected vertex from it is cancelled for that round.  This is the
    invariant the dynamic BIPS runner relies on: churn never
    disconnects the infected source.
    """

    def __init__(
        self,
        base: Graph,
        leave: float,
        rejoin: float,
        seed: int | np.random.SeedSequence | None = None,
        *,
        protected: tuple[int, ...] = (0,),
    ) -> None:
        require_connected(base)
        self.leave = _check_probability(leave, "leave")
        self.rejoin = _check_probability(rejoin, "rejoin")
        protected_arr = check_vertex_set(base, protected)
        super().__init__(base, f"churn-{base.name}", seed)
        self._protected = np.zeros(base.n, dtype=bool)
        self._protected[protected_arr] = True
        self.anchor = int(protected_arr[0])
        self._base_edges = base.edge_array()
        self._active = np.ones(base.n, dtype=bool)

    def _reset_state(self) -> None:
        self._active = np.ones(self.n, dtype=bool)

    def _anchor_component(self, active: np.ndarray) -> np.ndarray:
        """Boolean mask of the anchor's component in the induced subgraph."""
        base = self.base
        seen = np.zeros(self.n, dtype=bool)
        seen[self.anchor] = True
        frontier = np.array([self.anchor], dtype=np.int64)
        while frontier.size:
            starts = base.indptr[frontier]
            counts = base.degrees[frontier]
            flat = np.repeat(starts, counts) + _ragged_arange(counts)
            nxt = base.indices[flat]
            nxt = nxt[active[nxt] & ~seen[nxt]]
            if nxt.size == 0:
                break
            nxt = np.unique(nxt)
            seen[nxt] = True
            frontier = nxt
        return seen

    def _advance_state(self, rng: np.random.Generator) -> bool:
        previous = self._active
        leave_draw = rng.random(self.n)
        rejoin_draw = rng.random(self.n)

        departing = previous & ~self._protected & (leave_draw < self.leave)
        rejoining = ~previous & (rejoin_draw < self.rejoin)
        active = self._settle(previous & ~departing, rejoining)
        if active is None:
            # The wave would isolate the anchor or cut a protected
            # vertex off it: cancel this round's departures.  The
            # previous active set satisfies the invariant by induction,
            # so the fallback always settles.
            active = self._settle(previous, rejoining)
            if active is None:  # pragma: no cover - defensive
                active = previous.copy()

        changed = bool(np.any(active != previous))
        self._active = active
        return changed

    def _settle(
        self, kept: np.ndarray, rejoining: np.ndarray
    ) -> np.ndarray | None:
        """Attach rejoiners and prune to the anchor's component.

        Returns None when ``kept`` violates the connectivity contract
        (anchor left without a neighbour, or a protected vertex cut off
        from the anchor) — the caller then cancels the departure wave.
        """
        base = self.base
        if self.n > 1 and not np.any(kept[base.neighbors(self.anchor)]):
            return None
        if np.any(rejoining):
            # Rejoiners need an active base-neighbour to attach to.
            has_active_nbr = (
                np.add.reduceat(
                    kept[base.indices].astype(np.int64), base.indptr[:-1]
                )
                > 0
            )
            kept = kept | (rejoining & has_active_nbr)
        component = self._anchor_component(kept)
        if not np.all(component[self._protected]):
            return None
        # Vertices cut off from the anchor count as churned out.
        return kept & component

    def _build_graph(self) -> Graph:
        e = self._base_edges
        both = self._active[e[:, 0]] & self._active[e[:, 1]]
        return Graph(self.n, e[both], name=self.name)

    def active_at(self, t: int) -> np.ndarray:
        """Boolean mask of active vertices in the round-``t`` snapshot."""
        self.graph_at(t)  # leaves the chain at round t
        return self._active.copy()
