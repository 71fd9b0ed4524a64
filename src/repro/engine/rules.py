"""Spread rules: the per-round gather/scatter kernels of the engine.

A :class:`SpreadRule` advances ``R`` independent runs one round as a
vectorised index program over the CSR arrays (reusing
:meth:`repro.graphs.Graph.sample_neighbors` for every random neighbour
draw).  A round holds one block of work, not ``R·n``: :class:`CobraRule`
takes its movers window by window out of the flat ``r·n + v`` work
mask and handles them in blocks, and :class:`BipsRule` runs each
selection over row blocks, so their temporaries stay bounded however
many particles the round moves.  The engine layer owns the loop, the
visited set, hit times and completion; a rule owns only its state
array and one ``step``.

A round costs what its actors cost, not a pass over ``(R, n)`` per
bookkeeping step.  This is the one place the invariant is stated:

* finished runs are handled row by row, never by the column broadcast
  ``mask & alive[:, None]``: :func:`live_rows` clears their rows in a
  copy (and does nothing while every run is alive),
  :func:`freeze_rows` copies back only their rows, and the engine's
  visited update clears them in its own ``fresh`` array;
* an actor's row base ``r·n`` is ``actor // n * n`` (a floor-divide by
  a scalar), its vertex the actor minus that base, never ``actor % n``;
* a fixed policy's ``draw_counts`` is a read-only zero-stride view of
  ``b``, not ``k`` int64 copies; rules only read their counts, and
  :class:`CobraRule` sizes its blocks from one element of such a view,
  not a max over all ``k``.

Seed-for-seed contract
----------------------
The kernels here are the pre-refactor engines' inner loops moved
verbatim, so the thin wrappers in :mod:`repro.core` (whose
:class:`~repro.core.CobraProcess` and :class:`~repro.core.BipsProcess`
run on a static graph or a :mod:`repro.dynamics` sequence) and
:mod:`repro.baselines` reproduce the seed engines' samples bit-for-bit
under identical generators (the regression tests in
``tests/engine/test_seed_equivalence.py`` pin this).  In particular:

* ``CobraRule`` consumes randomness only for *alive* runs (finished
  rows are cleared from the work mask before any draw), matching the
  original batched COBRA loop; movers come out of
  ``np.flatnonzero`` (one window of the flat mask at a time) row by
  row in ascending vertex order, so at
  ``R = 1`` a round draws exactly what the historical set-based round
  over the sorted unique active set drew, and drawing block by block
  consumes the stream exactly as one whole-round draw did;
* ``BipsRule`` draws for *every* row and freezes finished rows
  afterwards, matching the original batched BIPS loop; each selection
  draws block after block of rows, then (lazy) its coins, which is the
  order of one whole-round draw; at
  ``R = 1`` and fixed ``b`` it also draws exactly what the original
  single-run round drew (with Bernoulli ``b = 1 + ρ`` the single-run
  round drew its second selections in another order);
* degree-zero vertices (churned-out peers in dynamic snapshots) are
  handled exactly as the original dynamic runners did: COBRA particles
  and walkers hold their position, BIPS restricts selections to
  present vertices.

Rules are deliberately policy-agnostic about branching: they duck-type
:class:`repro.core.branching.BranchingPolicy` through its
``draw_counts`` / ``fixed_selection_count`` /
``second_selection_probability`` methods, keeping this package free of
imports from :mod:`repro.core`.

Compiled kernels
----------------
The kernels in this module are the reference.  The numba kernels of
:mod:`repro.kernels` are **bit-identical** to :class:`CobraRule` and
:class:`BipsRule`: they pre-draw the same uniforms from the same
Generator in the same order and reproduce the numpy index arithmetic
exactly, so the engine swaps them in by itself
(:func:`repro.kernels.dispatch.resolve`, where numba is installed and
the graph is large): wall-clock changes, never a sample.  Every other
rule runs its own ``step``.
"""

from __future__ import annotations

import abc

import numpy as np

from ..graphs.graph import Graph
from .caps import process_round_cap, walk_round_cap

__all__ = [
    "SpreadRule",
    "CobraRule",
    "BipsRule",
    "PushRule",
    "PullRule",
    "PushPullRule",
    "WalkRule",
]


#: Actors per block of a COBRA round, and the most per row block of a
#: BIPS selection (at least one row): bounds their temporaries.  16K and
#: 64K measured equal on a 256-run ``rreg(16384, 8)`` COBRA shard, 128K
#: slower.
_BLOCK = 1 << 16


def live_rows(mask: np.ndarray, alive: np.ndarray) -> np.ndarray:
    """``mask`` itself while every run is alive, else a copy whose
    finished rows are zeroed."""
    if alive.all():
        return mask
    out = mask.copy()
    out[~alive] = False
    return out


def freeze_rows(nxt: np.ndarray, state: np.ndarray, alive: np.ndarray) -> np.ndarray:
    """``nxt`` with the finished runs' rows put back to ``state``, in place."""
    if not alive.all():
        dead = ~alive
        nxt[dead] = state[dead]
    return nxt


def select_targets(
    graph: Graph, actors: np.ndarray, rng: np.random.Generator, lazy: bool
) -> np.ndarray:
    """One uniform neighbour per actor; lazy selections keep the actor.

    The draw order (neighbour uniforms first, then the lazy coin) is
    part of the seed-for-seed contract — every engine in the repo has
    always consumed randomness in this order.
    """
    targets = graph.sample_neighbors(actors, rng)
    if lazy:
        stay = rng.random(actors.shape[0]) < 0.5
        targets = np.where(stay, actors, targets)
    return targets


class SpreadRule(abc.ABC):
    """One round of a spread process as a vectorised ``(R, n)`` kernel.

    Class attributes
    ----------------
    completion_basis:
        ``"visited"`` if completion is judged on the cumulative visited
        set (cover-type processes: COBRA, walks), ``"state"`` if on the
        instantaneous state (infection/broadcast-type: BIPS, push,
        pull, push–pull — for the monotone broadcasts the two
        coincide).
    state_arrays:
        How many ``(R, n)``-byte boolean-array equivalents the engine
        keeps live per run while stepping this rule; used by
        :func:`repro.parallel.plan_shards` to size shards under a
        memory cap.
    """

    completion_basis: str = "visited"
    state_arrays: int = 4

    @abc.abstractmethod
    def step(
        self,
        graph: Graph,
        state: np.ndarray,
        alive: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Advance every run one round on ``graph``; return the new state.

        ``state`` is the rule-specific per-run state (a boolean
        ``(R, n)`` mask for set processes, an int ``(R, k)`` position
        array for walks); ``alive`` flags runs that have not yet
        completed.  Implementations must not mutate ``state``.
        """

    @abc.abstractmethod
    def occupancy(self, state: np.ndarray, n: int) -> np.ndarray:
        """Return the ``(R, n)`` boolean mask of vertices occupied now."""

    @abc.abstractmethod
    def default_cap(self, graph: Graph) -> int:
        """Return this rule's generous round cap for ``graph``."""


class CobraRule(SpreadRule):
    """COBRA branching-choose-``b``: each active vertex picks ``b``
    random neighbours; the chosen vertices form the next active set
    (coalescing is implicit in the boolean scatter).

    Degree-zero active vertices (possible only on dynamic snapshots)
    hold their position for the round, per the
    :mod:`repro.dynamics` convention.

    A round draws every count first (``draw_counts`` is the only policy
    method it calls), then takes its movers window by window out of the
    flat work mask, and each block of at most ``_BLOCK`` actors draws
    its neighbours and scatters them; no array holds every mover.  A
    lazy round keeps its picks, one int64 per actor, and draws its coins
    in a second pass.  This is the
    reference COBRA kernel (the numba kernel reproduces it bit for bit);
    :func:`~repro.core.metrics.per_vertex_load` calls it one run at a
    time.
    """

    completion_basis = "visited"
    state_arrays = 4

    def __init__(self, policy, lazy: bool = False) -> None:
        self.policy = policy
        self.lazy = bool(lazy)

    def step(
        self,
        graph: Graph,
        state: np.ndarray,
        alive: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """One branching round; finished runs are dropped from the work.

        Raises :class:`ValueError` unless ``state`` is ``graph.n`` wide:
        the flat scatter would spill a particle into the next run.
        """
        n = graph.n
        if state.shape[1] != n:
            raise ValueError(f"COBRA state is {state.shape[1]} wide for {n} vertices")
        work = live_rows(state, alive)
        stranded = None
        if graph.dmin == 0:
            can_move = graph.degrees > 0
            stranded = work & ~can_move[None, :]
            work = work & can_move[None, :]
        total = int(np.count_nonzero(work))
        counts = self.policy.draw_counts(total, rng)
        # A fixed policy's counts are one value read k times (stride 0).
        top = counts[:1] if counts.strides == (0,) else counts
        per = max(1, _BLOCK // int(top.max(initial=1)))
        cells = work.reshape(-1)

        def blocks():
            """Each block's actors as (row bases r·n, vertices v).

            The movers ``r·n + v`` come out of one window of the flat
            work mask at a time, in the 2-D nonzero's order.  A window
            spans the cells expected to hold ``per`` of the movers still
            to come.  One that holds more yields whole blocks of ``per``,
            and the movers left over start the next window, so no block
            is cut short before the last window.
            """
            lo = done = 0
            while done < total:
                hi = lo - (-per * (cells.shape[0] - lo) // (total - done))
                movers = np.flatnonzero(cells[lo:hi])
                movers += lo
                keep = movers.shape[0]
                if keep > per:
                    keep -= keep % per
                lo = hi if keep == movers.shape[0] else int(movers[keep])
                for i in range(0, keep, per):
                    chunk = movers[i : i + per]
                    verts = np.repeat(chunk, counts[done : done + chunk.shape[0]])
                    done += chunk.shape[0]
                    base = verts // n  # a scalar floor-divide, several times faster than %
                    base *= n
                    verts -= base
                    yield base, verts

        # A lazy round's coins follow all of its neighbour uniforms.
        picks = [graph.sample_neighbors(v, rng) for _, v in blocks()] if self.lazy else None
        nxt = np.zeros(state.shape, dtype=bool)
        flat = nxt.reshape(-1)
        for i, (base, verts) in enumerate(blocks()):
            if self.lazy:
                base += np.where(rng.random(verts.shape[0]) < 0.5, verts, picks[i])
            else:
                base += graph.sample_neighbors(verts, rng)
            flat[base] = True
        if stranded is not None:
            nxt |= stranded
        return nxt

    def occupancy(self, state: np.ndarray, n: int) -> np.ndarray:
        """The active mask *is* the occupancy."""
        return state

    def default_cap(self, graph: Graph) -> int:
        """Theorem 1.1-shaped cap (see :func:`process_round_cap`)."""
        return process_round_cap(graph.n, graph.m, graph.dmax)


class BipsRule(SpreadRule):
    """BIPS pull: every vertex samples ``b`` neighbours and joins the
    next infected set iff some sample is currently infected; the
    persistent source is forced back in (SIS dynamics).

    Each selection runs over row blocks of at most ``_BLOCK`` actors
    (drawn for finished runs too, which are frozen afterwards) and
    gathers each pick's infection status from the flat ``r·n + v`` mask,
    so a round keeps one bool per actor and selection, not ``R·n`` int64
    picks.  A lazy selection keeps the neighbour's status for every
    block, then draws its coins and takes the actor's own status where a
    coin says stay.
    """

    completion_basis = "state"
    # Sizes plan_shards, so it stays 12, although a round now holds the
    # state, two (R, n) bool selections and one block: a smaller value
    # would change the shard plans, and with them the samples, for n
    # above about 21,800 vertices.
    state_arrays = 12

    def __init__(self, policy, source: int, lazy: bool = False) -> None:
        self.policy = policy
        self.source = int(source)
        self.lazy = bool(lazy)

    # -- kernel ---------------------------------------------------------
    def _next(
        self, graph: Graph, infected: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One round on an ``(R, n)`` mask (all rows drawn)."""
        runs, n = infected.shape
        live = None if graph.dmin >= 1 else np.flatnonzero(graph.degrees > 0)
        if live is not None and live.size == 0:
            nxt = np.zeros_like(infected)
            nxt[:, self.source] = True
            return nxt
        actors = np.arange(n, dtype=np.int64) if live is None else live
        k = actors.shape[0]
        per = max(1, _BLOCK // k)  # rows per block
        tiled = np.tile(actors, min(per, runs))
        flat = infected.reshape(-1)
        blocks = [(lo, min(lo + per, runs)) for lo in range(0, runs, per)]

        def select() -> np.ndarray:
            """One selection: the infection status of each actor's pick.

            Every block draws its neighbours, then (lazy) every block its
            coins: the order one whole-round draw of each had.
            """
            got = np.empty((runs, k), dtype=bool)
            for lo, hi in blocks:
                pick = graph.sample_neighbors(tiled[: (hi - lo) * k], rng).reshape(hi - lo, k)
                pick += np.arange(lo * n, hi * n, n, dtype=np.int64)[:, None]
                got[lo:hi] = flat[pick]
            if self.lazy:
                for lo, hi in blocks:
                    own = infected[lo:hi] if live is None else infected[lo:hi, live]
                    np.copyto(got[lo:hi], own, where=rng.random((hi - lo, k)) < 0.5)
            return got

        got = select()
        fixed_b = self.policy.fixed_selection_count()
        if fixed_b is not None:
            for _ in range(fixed_b - 1):
                got |= select()
        else:
            p2 = self.policy.second_selection_probability()
            if p2 > 0.0:
                picked = select()
                for lo, hi in blocks:
                    picked[lo:hi] &= rng.random((hi - lo, k)) < p2
                got |= picked
        if live is None:
            nxt = got
        else:
            nxt = np.zeros_like(infected)
            nxt[:, live] = got
        nxt[:, self.source] = True
        return nxt

    # -- SpreadRule API -------------------------------------------------
    def step(
        self,
        graph: Graph,
        state: np.ndarray,
        alive: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """One infection round; finished runs are frozen afterwards."""
        return freeze_rows(self._next(graph, state, rng), state, alive)

    def occupancy(self, state: np.ndarray, n: int) -> np.ndarray:
        """The infected mask *is* the occupancy."""
        return state

    def default_cap(self, graph: Graph) -> int:
        """Theorem 1.4-shaped cap (see :func:`process_round_cap`)."""
        return process_round_cap(graph.n, graph.m, graph.dmax)


class _BroadcastRule(SpreadRule):
    """Shared shape for the monotone gossip baselines (push/pull/both).

    State is the informed ``(R, n)`` mask; informed vertices never
    forget, so state and visited coincide and completion is judged on
    the state.  Degree-zero vertices neither send nor ask.
    """

    completion_basis = "state"
    state_arrays = 3

    def occupancy(self, state: np.ndarray, n: int) -> np.ndarray:
        """The informed mask *is* the occupancy."""
        return state

    def default_cap(self, graph: Graph) -> int:
        """Shared epidemic cap (see :func:`process_round_cap`)."""
        return process_round_cap(graph.n, graph.m, graph.dmax)

    @staticmethod
    def _acting(
        mask: np.ndarray, alive: np.ndarray, graph: Graph
    ) -> tuple[np.ndarray, np.ndarray]:
        """Row/vertex indices of degree-positive actors among ``mask``."""
        work = live_rows(mask, alive)
        if graph.dmin == 0:
            work = work & (graph.degrees > 0)[None, :]
        return np.nonzero(work)


class PushRule(_BroadcastRule):
    """Push gossip: every informed vertex pushes to ``fanout`` uniform
    random neighbours per round."""

    def __init__(self, fanout: int = 1) -> None:
        if fanout < 1:
            raise ValueError("fanout must be >= 1")
        self.fanout = int(fanout)

    def step(
        self,
        graph: Graph,
        state: np.ndarray,
        alive: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Informed vertices scatter the rumour to sampled neighbours."""
        rows, verts = self._acting(state, alive, graph)
        rows_rep = np.repeat(rows, self.fanout)
        senders = np.repeat(verts, self.fanout)
        targets = graph.sample_neighbors(senders, rng)
        nxt = state.copy()
        nxt[rows_rep, targets] = True
        return nxt


class PullRule(_BroadcastRule):
    """Pull gossip: every uninformed vertex asks one uniform random
    neighbour and learns the rumour if the neighbour knows it."""

    def step(
        self,
        graph: Graph,
        state: np.ndarray,
        alive: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Uninformed vertices gather from sampled neighbours."""
        rows, askers = self._acting(~state, alive, graph)
        answers = graph.sample_neighbors(askers, rng)
        learned = state[rows, answers]
        nxt = state.copy()
        nxt[rows[learned], askers[learned]] = True
        return nxt


class PushPullRule(_BroadcastRule):
    """Push–pull gossip: informed vertices push and uninformed vertices
    pull in the same round, both acting on the start-of-round state."""

    state_arrays = 4

    def step(
        self,
        graph: Graph,
        state: np.ndarray,
        alive: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Simultaneous push and pull halves (push draws first)."""
        rows_s, senders = self._acting(state, alive, graph)
        rows_a, askers = self._acting(~state, alive, graph)
        pushed = graph.sample_neighbors(senders, rng)
        answers = graph.sample_neighbors(askers, rng)
        nxt = state.copy()
        nxt[rows_s, pushed] = True
        learned = state[rows_a, answers]
        nxt[rows_a[learned], askers[learned]] = True
        return nxt


class WalkRule(SpreadRule):
    """``k`` independent random walkers per run, one step per round.

    State is an ``(R, k)`` int64 position array — the one rule whose
    state is not a boolean mask (a boolean encoding would coalesce
    co-located walkers and change the process).  Walkers stranded on a
    degree-zero vertex hold their position for the round.
    """

    completion_basis = "visited"
    state_arrays = 3

    def __init__(self, k: int, lazy: bool = False) -> None:
        if k < 1:
            raise ValueError("need at least one walker")
        self.k = int(k)
        self.lazy = bool(lazy)

    def step(
        self,
        graph: Graph,
        state: np.ndarray,
        alive: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Advance the walkers of every alive run by one step."""
        all_alive = bool(alive.all())
        positions = state.ravel() if all_alive else state[alive].ravel()
        if graph.dmin == 0:
            can_move = graph.degrees[positions] > 0
            movers = positions[can_move]
            moved = positions.copy()
            moved[can_move] = select_targets(graph, movers, rng, self.lazy)
        else:
            moved = select_targets(graph, positions, rng, self.lazy)
        if all_alive:
            return moved.reshape(state.shape)
        nxt = state.copy()
        nxt[alive] = moved.reshape(-1, self.k)
        return nxt

    def occupancy(self, state: np.ndarray, n: int) -> np.ndarray:
        """Scatter walker positions into an ``(R, n)`` boolean mask."""
        occ = np.zeros((state.shape[0], n), dtype=bool)
        occ[np.arange(state.shape[0])[:, None], state] = True
        return occ

    def touched(self, state: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Sparse occupancy: unique (run, vertex) pairs under the walkers.

        Walks touch only ``R·k`` vertices per round, so the engine
        updates its visited set from these coordinates instead of
        scanning a dense ``(R, n)`` mask — without this, a long walk
        pays O(R·n) per round for O(R·k) of actual work.
        """
        runs, k = state.shape
        if k == 1:
            return np.arange(runs, dtype=np.int64), state.ravel()
        rows = np.repeat(np.arange(runs, dtype=np.int64), k)
        flat = np.unique(rows * n + state.ravel())
        return flat // n, flat % n

    def default_cap(self, graph: Graph) -> int:
        """Walk-shaped cap (see :func:`walk_round_cap`)."""
        return walk_round_cap(graph.n, graph.dmax)
