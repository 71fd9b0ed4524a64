"""The adaptive topology source: a graph sequence that fights back.

:class:`AdversarialSequence` is a drop-in
:class:`~repro.dynamics.GraphSequence` whose transitions have two
phases per round:

1. an **oblivious phase** — ``swaps_per_round`` degree-preserving
   double-edge swaps, drawn exactly as
   :class:`~repro.dynamics.RewiringSequence` draws them (shared
   machinery, shared round-seed discipline), and then
2. an **adversary phase** — the bound
   :class:`~repro.adversary.AdversaryPolicy` reacts to the engine's
   :class:`~repro.engine.FrontierObservation` for the round, under its
   per-round budget.

Because the adversary draws only *after* the oblivious phase consumed
its share of the round generator, a budget-0 adversary replays the
oblivious :class:`RewiringSequence` realisation **bit-for-bit** under
the same seed — the anchoring contract of experiment E17.

A round sorts its edges once: the policy mutates the accepted
proposal's :class:`~repro.adversary.MutableTopology`, CSR included,
and the snapshot wraps that CSR.  Churn drops it until the next query.

Determinism and replay: the sequence digests every observation into a
compact :class:`~repro.adversary.FrontierDigest` log.  Snapshots are
therefore a pure function of ``(seed, digest log)``, and the digest
log itself is a pure function of ``(rule, seeds, initial state)`` —
so seeking backwards replays the identical realisation, a pickled
copy resumes it, and a wire-shipped *replay spec* (constructor
parameters + master seed, see :mod:`repro.distributed.wire`)
regenerates it on another machine while the remote engine re-delivers
the same observations.  One sequence serves one engine invocation;
reusing it under a different process stream raises (use
:meth:`fresh_replay`).
"""

from __future__ import annotations

import numpy as np

from ..dynamics.providers import advance_swap_state
from ..dynamics.sequence import MarkovGraphSequence
from ..graphs.graph import Graph
from ..graphs.validation import require_connected
from .policies import AdversaryPolicy, FrontierDigest
from .state import MutableTopology

__all__ = ["AdversarialSequence"]


class AdversarialSequence(MarkovGraphSequence):
    """A rewiring sequence with a frontier-observing adversary on top.

    Parameters
    ----------
    base:
        Round-0 topology (shared vertex set for every snapshot).
    adversary:
        The :class:`~repro.adversary.AdversaryPolicy` reacting each
        round.  Budget 0 turns the policy off entirely.
    seed:
        Master seed of the topology stream (as
        :class:`~repro.dynamics.RewiringSequence`).
    swaps_per_round:
        Oblivious double-edge-swap attempts per round (0 = the base
        graph only changes through the adversary).
    keep_connected / max_retries:
        The oblivious phase's connectivity contract, exactly as in
        :class:`~repro.dynamics.RewiringSequence`.
    """

    observes_process = True

    def __init__(
        self,
        base: Graph,
        adversary: AdversaryPolicy,
        seed: int | np.random.SeedSequence | None = None,
        *,
        swaps_per_round: int = 0,
        keep_connected: bool = True,
        max_retries: int = 20,
    ) -> None:
        if swaps_per_round < 0:
            raise ValueError("swaps_per_round must be >= 0")
        if base.m < 2 and (swaps_per_round > 0 or adversary.budget > 0):
            raise ValueError("adversarial rewiring needs at least two edges")
        if keep_connected:
            require_connected(base)
        self.adversary = adversary
        self.swaps_per_round = int(swaps_per_round)
        self.keep_connected = bool(keep_connected)
        self.max_retries = int(max_retries)
        super().__init__(base, f"adversarial-{adversary.name}-{base.name}", seed)
        self._log: list[FrontierDigest] = []

    # -- bookkeeping ----------------------------------------------------
    def _mutable(self) -> MutableTopology:
        """The round's topology over the active mask.  A proposal was
        checked over all ``n`` vertices: with none churned out, its CSR
        and connectivity are the active subgraph's."""
        topo = self._topology
        if topo.active is not self._active:
            if self._active.all():
                topo.active = self._active
            else:
                topo = MutableTopology(self.n, self._edges, self._keys, self._active)
                self._topology = topo
        return topo

    # -- observation protocol -------------------------------------------
    def observe(self, observation) -> None:
        """Record one engine observation (contiguous round delivery).

        A redelivery of an already-logged round must match the logged
        digest exactly — a mismatch means two different engine runs are
        driving one sequence, which would silently corrupt the replay
        log, so it raises instead (see :meth:`fresh_replay`).
        """
        digest = FrontierDigest.from_observation(observation)
        t = digest.t
        if t < len(self._log):
            if not self._log[t].matches(digest):
                raise ValueError(
                    f"{self.name}: conflicting observation for round {t}; "
                    "an AdversarialSequence serves one engine invocation — "
                    "use fresh_replay() for a new run"
                )
            return
        if t != len(self._log):
            raise ValueError(
                f"{self.name}: observation gap — expected round "
                f"{len(self._log)}, got {t}"
            )
        self._log.append(digest)

    def fresh_replay(self) -> "AdversarialSequence":
        """An unused sequence replaying this seed from a pristine state.

        Same base, same parameters, a reset copy of the policy, and the
        master seed (which every sequence re-roots, spawn counter
        cleared) — the object the sharded and per-run samplers hand to
        each new engine invocation, and the exact semantics of the wire
        replay spec.
        """
        return AdversarialSequence(
            self.base,
            self.adversary.fresh(),
            self._master,
            swaps_per_round=self.swaps_per_round,
            keep_connected=self.keep_connected,
            max_retries=self.max_retries,
        )

    # -- MarkovGraphSequence hooks --------------------------------------
    def _reset_state(self) -> None:
        self._edges = self.base.edge_array()
        self._keys = MutableTopology.edge_key_set(self._edges, self.n)
        self._active = np.ones(self.n, dtype=bool)
        self._topology = MutableTopology(self.n, self._edges, self._keys, self._active)
        self.adversary.reset()
        self.adversary.initialize(self._topology)

    def _advance_state(self, rng: np.random.Generator) -> bool:
        into_round = self._state_t + 1
        # Phase 1: the oblivious swaps — identical draws, identical
        # accept/reject path as RewiringSequence (the budget-0 anchor).
        changed = advance_swap_state(self, rng)
        # Phase 2: the adversary, fed the digest of the state entering
        # the round it is rewiring against (absent digest = the round
        # is being realised without a driving engine: no reaction).
        digest = (
            self._log[into_round] if into_round < len(self._log) else None
        )
        if digest is not None and self.adversary.budget > 0:
            if self.adversary.adapt(self._mutable(), digest, rng):
                changed = True
        return changed

    def _build_graph(self) -> Graph:
        return self._mutable().snapshot(self.name)

    # -- introspection ---------------------------------------------------
    def active_at(self, t: int) -> np.ndarray:
        """Active-vertex mask of the round-``t`` snapshot (for audits)."""
        self.graph_at(t)  # leaves the chain at round t
        return self._active.copy()

    @property
    def observed_rounds(self) -> int:
        """Rounds the driving engine has delivered observations for."""
        return len(self._log)
