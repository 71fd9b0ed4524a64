"""Bit-plane gossip: push/pull rules packed 8–64 runs per machine word.

:class:`~repro.engine.rules.FloodingRule` already advances ``R`` runs
8-per-byte by packing the informed sets into uint8 bitplanes.  This
module extends the trick to the *randomised* gossip baselines — push,
pull and push–pull — where it was blocked by the shared-draw subtlety:
a bit-parallel round cannot draw one neighbour per (run, vertex)
without unpacking, so the draws must be shared across the runs of a
word.

Equivalence class (the resolution of that subtlety)
---------------------------------------------------
Draws are made **per word**: each round, every acting vertex draws one
uniform neighbour per word of runs (a word is ``word_bits`` runs,
8–64), and all runs packed into that word share the draw.

* **Per run, the marginal law is exact.**  Within any single run, every
  informed vertex still pushes to (every uninformed vertex still pulls
  from) one independently-uniform neighbour per round, because the
  shared draw never depends on the state of any run.  Cover/broadcast
  time samples from a bit-plane rule are therefore distributed
  identically to the numpy rule's — pinned by the KS tests in
  ``tests/kernels/test_bitplane.py``.
* **Across runs, words correlate.**  Runs inside one word see the same
  neighbour choices, so they are *not* independent of each other (runs
  in different words are).  Estimator variance over ``R`` runs is that
  of ``R / word_bits`` independent blocks; use more words, or the
  numpy rules, when cross-run independence matters.
* **Not bit-identical.**  The draw stream differs from the numpy
  kernels by construction; only distribution-level comparisons are
  meaningful between a bit-plane rule and its numpy counterpart.

Finished runs freeze exactly as in the numpy rules: contributions and
newly-learned bits are masked by the packed ``alive`` vector, so a run
that met its completion criterion stops spreading even while its word
mates continue.

These are ordinary :class:`~repro.engine.rules.SpreadRule` objects,
used like :class:`~repro.engine.rules.FloodingRule`: build one for
``R`` runs, ``pack`` the ``(R, n)`` start mask, drive it with
:class:`~repro.engine.SpreadEngine`, and read the final state back
with ``occupancy``::

    rule = BitPushRule(64)
    result = SpreadEngine(rule, graph).run(rule.pack(start), rng)
    informed = rule.occupancy(result.final_state, graph.n)

Their state packs several runs per row, so
:func:`repro.parallel.run_sharded` rejects them, as it does flooding.
"""

from __future__ import annotations

import numpy as np

from ..engine.caps import process_round_cap
from ..engine.rules import SpreadRule

__all__ = ["BitPushRule", "BitPullRule", "BitPushPullRule", "WORD_BITS_CHOICES"]

#: Legal ``word_bits`` values: runs sharing one draw per acting vertex.
WORD_BITS_CHOICES = (8, 16, 32, 64)


class _BitGossipRule(SpreadRule):
    """Shared machinery for the bit-packed gossip rules.

    State is a ``(ceil(R / 8), n)`` uint8 array of informed bitplanes
    (run ``r`` lives in bit ``r % 8`` of plane ``r // 8``, the
    ``np.packbits(..., bitorder="little")`` layout FloodingRule uses).
    ``word_bits`` groups consecutive planes into draw-sharing words of
    8–64 runs; see the module docstring for the equivalence class.
    """

    completion_basis = "state"
    state_arrays = 1  # packed bits: n/4 bytes per run in state

    def __init__(self, runs: int = 1, *, word_bits: int = 64) -> None:
        if runs < 1:
            raise ValueError("need at least one run")
        if word_bits not in WORD_BITS_CHOICES:
            raise ValueError(
                f"word_bits must be one of {WORD_BITS_CHOICES}, got {word_bits}"
            )
        self.runs = int(runs)
        self.word_bits = int(word_bits)
        planes = (self.runs + 7) // 8
        per_word = self.word_bits // 8
        self._groups = [
            (lo, min(lo + per_word, planes)) for lo in range(0, planes, per_word)
        ]
        # Bits beyond `runs` in the last plane are permanent zeros; mask
        # them out of "who still asks" queries so phantom runs never
        # drive draws.
        mask = np.full(planes, 0xFF, dtype=np.uint8)
        if self.runs % 8:
            mask[-1] = (1 << (self.runs % 8)) - 1
        mask.setflags(write=False)
        self._run_mask = mask

    # -- packing --------------------------------------------------------
    def pack(self, mask: np.ndarray) -> np.ndarray:
        """Pack an ``(R, n)`` boolean informed mask into rule state."""
        if mask.shape[0] != self.runs:
            raise ValueError(f"mask must have {self.runs} rows")
        return np.packbits(mask, axis=0, bitorder="little")

    def runs_of(self, state: np.ndarray) -> int:
        """The run count is fixed at construction (bits hide ``R``)."""
        return self.runs

    def _gate(self, alive: np.ndarray) -> np.ndarray:
        """Pack the per-run alive flags into one byte per plane."""
        return np.packbits(alive, bitorder="little")

    # -- SpreadRule API -------------------------------------------------
    def occupancy(self, state: np.ndarray, n: int) -> np.ndarray:
        """Unpack the informed bitplanes into an ``(R, n)`` boolean mask."""
        return np.unpackbits(
            state, axis=0, count=self.runs, bitorder="little"
        ).view(bool)

    def finished(self, state: np.ndarray) -> np.ndarray:
        """All-vertices completion evaluated on the packed bitplanes."""
        cols = np.bitwise_and.reduce(state, axis=1)
        return np.unpackbits(cols, count=self.runs, bitorder="little").view(bool)

    def default_cap(self, graph) -> int:
        """Shared epidemic cap (see :func:`process_round_cap`)."""
        return process_round_cap(graph.n, graph.m, graph.dmax)

    # -- word-level halves ----------------------------------------------
    @staticmethod
    def _scatter_or(
        dst: np.ndarray,
        vals: np.ndarray,
        targets: np.ndarray,
    ) -> None:
        """OR the columns of ``vals`` into ``dst`` at (possibly
        duplicated) target columns.

        Sort-and-``reduceat``: duplicates are OR-combined per unique
        target before one vectorised scatter, avoiding the per-element
        ``ufunc.at`` path.
        """
        order = np.argsort(targets, kind="stable")
        ts = targets[order]
        vs = vals[:, order]
        starts = np.nonzero(np.concatenate([[True], ts[1:] != ts[:-1]]))[0]
        dst[:, ts[starts]] |= np.bitwise_or.reduceat(vs, starts, axis=1)

    def _push_word(
        self,
        graph,
        planes: np.ndarray,
        gate: np.ndarray,
        degpos: np.ndarray,
        nxt: np.ndarray,
        rng: np.random.Generator,
        fanout: int,
    ) -> None:
        """One push half for one word: alive informed bits scatter out."""
        vals = planes & gate[:, None]
        sources = np.nonzero(vals.any(axis=0) & degpos)[0]
        if sources.size == 0:
            return
        vals = vals[:, sources]
        for _ in range(fanout):
            targets = graph.sample_neighbors(sources, rng)
            self._scatter_or(nxt, vals, targets)

    def _pull_word(
        self,
        graph,
        planes: np.ndarray,
        gate: np.ndarray,
        run_mask: np.ndarray,
        degpos: np.ndarray,
        nxt: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """One pull half for one word: alive uninformed bits gather in."""
        asks = (~planes & run_mask[:, None]) & gate[:, None]
        askers = np.nonzero(asks.any(axis=0) & degpos)[0]
        if askers.size == 0:
            return
        answers = graph.sample_neighbors(askers, rng)
        nxt[:, askers] |= planes[:, answers] & gate[:, None]


class BitPushRule(_BitGossipRule):
    """Bit-packed push gossip: per word, every vertex holding an alive
    informed bit pushes all those bits to ``fanout`` shared uniform
    neighbours per round.

    Distribution-equivalent to :class:`~repro.engine.rules.PushRule`
    per run; runs within one ``word_bits`` word share draws (see the
    module docstring).
    """

    def __init__(
        self, runs: int = 1, *, fanout: int = 1, word_bits: int = 64
    ) -> None:
        super().__init__(runs, word_bits=word_bits)
        if fanout < 1:
            raise ValueError("fanout must be >= 1")
        self.fanout = int(fanout)

    def step(
        self,
        graph,
        state: np.ndarray,
        alive: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """One shared-draw push round over every word of runs."""
        nxt = state.copy()
        gate = self._gate(alive)
        degpos = graph.degrees > 0
        for lo, hi in self._groups:
            self._push_word(
                graph, state[lo:hi], gate[lo:hi], degpos, nxt[lo:hi], rng,
                self.fanout,
            )
        return nxt


class BitPullRule(_BitGossipRule):
    """Bit-packed pull gossip: per word, every vertex missing an alive
    informed bit asks one shared uniform neighbour and copies whatever
    informed bits the neighbour holds.

    Distribution-equivalent to :class:`~repro.engine.rules.PullRule`
    per run; runs within one ``word_bits`` word share draws (see the
    module docstring).
    """

    def step(
        self,
        graph,
        state: np.ndarray,
        alive: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """One shared-draw pull round over every word of runs."""
        nxt = state.copy()
        gate = self._gate(alive)
        degpos = graph.degrees > 0
        for lo, hi in self._groups:
            self._pull_word(
                graph, state[lo:hi], gate[lo:hi], self._run_mask[lo:hi],
                degpos, nxt[lo:hi], rng,
            )
        return nxt


class BitPushPullRule(_BitGossipRule):
    """Bit-packed push–pull gossip: per word, the push half draws first
    and the pull half second, both reading the start-of-round planes —
    mirroring :class:`~repro.engine.rules.PushPullRule`'s simultaneity.

    Distribution-equivalent to the numpy rule per run; runs within one
    ``word_bits`` word share draws (see the module docstring).
    """

    def step(
        self,
        graph,
        state: np.ndarray,
        alive: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """One shared-draw push + pull round over every word of runs."""
        nxt = state.copy()
        gate = self._gate(alive)
        degpos = graph.degrees > 0
        for lo, hi in self._groups:
            self._push_word(
                graph, state[lo:hi], gate[lo:hi], degpos, nxt[lo:hi], rng, 1
            )
            self._pull_word(
                graph, state[lo:hi], gate[lo:hi], self._run_mask[lo:hi],
                degpos, nxt[lo:hi], rng,
            )
        return nxt
