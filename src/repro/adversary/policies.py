"""Adversary policies: budgeted reactions to the observed frontier.

Each policy consumes one :class:`FrontierDigest` per round (the
compact record an :class:`~repro.adversary.AdversarialSequence` keeps
of an engine :class:`~repro.engine.FrontierObservation`) and mutates
the sequence's :class:`~repro.adversary.MutableTopology` under a
per-round **budget** — the number of edges it may rewire, or vertices
it may churn.  Budget 0 makes every policy a strict no-op that is
never even consulted, which is the bit-for-bit anchor against the
oblivious providers of :mod:`repro.dynamics`; constructors reject
configurations that would still need to act at budget 0 (e.g. an
``initially_out`` churn that could never be readmitted).

The catalogue:

* :class:`GreedyCutAdversary` — pairs frontier→uninformed boundary
  edges and double-swaps them into frontier–frontier plus
  uninformed–uninformed edges: each accepted swap removes two escape
  routes while preserving every degree (and, by per-swap check,
  connectivity).
* :class:`IsolatingChurnAdversary` — churns out the vertices with the
  highest degree into the observed frontier; churned vertices rejoin
  after ``downtime`` rounds, and a protected set (the source/anchor)
  is never removed nor cut off.
* :class:`MovingSourceAdversary` — relocates a persistent BIPS
  source's *useful* edges: source→uninformed edges are swapped so the
  source sits entirely inside the already-informed region, wasting its
  forced re-infection.
* :class:`AdaptiveRRIPolicy` — the frontier-driven re-randomization
  interval: an oblivious burst of double-edge swaps fired only on
  rounds whose observed frontier growth exceeds a threshold (the
  adaptive-RRI selection idea, driven by observations instead of a
  fixed per-round rate).

Replayability contract: a policy's internal state (churn clocks,
growth trackers) must be a pure function of the digests it has seen,
so ``reset()`` plus an identical digest stream reproduces identical
behaviour — the property the wire format relies on to ship adversarial
sequences as seeded replay specs.
"""

from __future__ import annotations

import abc
import copy
from dataclasses import dataclass

import numpy as np

from ..dynamics.providers import try_swap_round
from ..telemetry import get_telemetry
from .state import MutableTopology

__all__ = [
    "FrontierDigest",
    "AdversaryPolicy",
    "GreedyCutAdversary",
    "IsolatingChurnAdversary",
    "MovingSourceAdversary",
    "AdaptiveRRIPolicy",
    "make_adversary",
    "ADVERSARY_KINDS",
]


@dataclass(frozen=True)
class FrontierDigest:
    """Compact per-round record of a :class:`FrontierObservation`.

    Union masks over the *alive* runs only — finished runs no longer
    move, so they are not worth attacking.  Small by construction
    (two ``(n,)`` booleans plus two ints per round), which is what
    makes logging every round for deterministic replay affordable.
    """

    t: int
    occupied: np.ndarray  # (n,) union of occupancy over alive runs
    informed: np.ndarray  # (n,) union of cumulative knowledge (⊇ occupied)
    total_occupied: int  # occupancy mass summed over alive runs
    alive_runs: int

    @classmethod
    def from_observation(cls, observation) -> "FrontierDigest":
        """Digest an engine observation (copies what it keeps)."""
        occupied = observation.union_occupied()
        informed = observation.union_informed() | occupied
        alive = observation.alive
        total = int(observation.occupied[alive].sum()) if alive.any() else 0
        return cls(
            t=int(observation.t),
            occupied=occupied,
            informed=informed,
            total_occupied=total,
            alive_runs=int(alive.sum()),
        )

    def matches(self, other: "FrontierDigest") -> bool:
        """Field-for-field equality (replayed-delivery detection)."""
        return (
            self.t == other.t
            and self.total_occupied == other.total_occupied
            and self.alive_runs == other.alive_runs
            and np.array_equal(self.occupied, other.occupied)
            and np.array_equal(self.informed, other.informed)
        )


class AdversaryPolicy(abc.ABC):
    """One adaptive reaction per round, under a rewiring/churn budget.

    Attributes
    ----------
    name:
        Registry key (stable across the wire format).
    budget:
        Edges the policy may rewire (or vertices it may churn) per
        round.  A budget of 0 means the owning sequence never calls
        :meth:`adapt` at all — the oblivious anchor.
    """

    name: str = "adversary"
    budget: int = 0

    def reset(self) -> None:
        """Clear replay state (called when the sequence restarts)."""

    def initialize(self, topo: MutableTopology) -> None:
        """Adjust the round-0 topology state (e.g. initial churn)."""

    def fresh(self) -> "AdversaryPolicy":
        """An unused copy of this policy (same parameters, reset state)."""
        clone = copy.deepcopy(self)
        clone.reset()
        return clone

    @abc.abstractmethod
    def adapt(
        self,
        topo: MutableTopology,
        digest: FrontierDigest,
        rng: np.random.Generator,
    ) -> bool:
        """React to one digest; return True iff the topology changed.

        Draws (if any) come from the sequence's round generator *after*
        the oblivious phase consumed its share, so a zero-budget round
        never perturbs the oblivious stream.
        """


def _check_budget(budget: int) -> int:
    budget = int(budget)
    if budget < 0:
        raise ValueError(f"adversary budget must be >= 0, got {budget}")
    return budget


def _trace_adapt(policy: "AdversaryPolicy", t: int, spent: int, **fields) -> None:
    """Emit one per-round adaptation record (no-op when tracing is off).

    ``spent`` is the budget actually consumed this round (edges rewired
    or vertices churned); extra ``fields`` carry the policy-specific
    applied/rejected tallies.  Pure observation — policies never read
    telemetry state, so replay behaviour is untouched.
    """
    tel = get_telemetry()
    if not tel.enabled:
        return
    tel.event(
        "adversary.adapt",
        policy=policy.name,
        t=int(t),
        budget=int(policy.budget),
        spent=int(spent),
        **fields,
    )
    tel.observe(f"adversary.{policy.name}.spent", float(spent))


class GreedyCutAdversary(AdversaryPolicy):
    """Sever frontier→uninformed edges by pairing them into swaps.

    Boundary edges (one endpoint in the observed frontier, the other
    not yet informed) are shuffled and paired; each pair
    ``{h1, c1}, {h2, c2}`` is replaced by ``{h1, h2}, {c1, c2}`` —
    both replacement edges are *internal* to their side, so every
    accepted swap removes exactly two escape routes from the frontier
    while preserving all degrees.  ``budget`` counts rewired edges
    (two per swap).  With ``keep_connected`` each swap is checked and
    retracted if it would disconnect the active subgraph, by the
    exact local certificate of
    :meth:`MutableTopology.swap_keeps_connected` whenever the graph is
    known to be connected.
    """

    name = "greedy-cut"

    def __init__(self, budget: int, *, keep_connected: bool = True) -> None:
        self.budget = _check_budget(budget)
        self.keep_connected = bool(keep_connected)

    def adapt(
        self,
        topo: MutableTopology,
        digest: FrontierDigest,
        rng: np.random.Generator,
    ) -> bool:
        """Pair boundary edges into degree-preserving severing swaps."""
        hot = digest.occupied & topo.active
        cold = topo.active & ~digest.informed
        e = topo.edges
        u, v = e[:, 0], e[:, 1]
        act = topo.active[u] & topo.active[v]
        fwd = act & hot[u] & cold[v]
        bwd = act & hot[v] & cold[u]
        boundary = np.nonzero(fwd | bwd)[0]
        if boundary.size < 2:
            _trace_adapt(
                self, digest.t, 0, applied=0, rejected=0,
                boundary=int(boundary.size),
            )
            return False
        boundary = boundary[rng.permutation(boundary.size)]
        hot_end = np.where(fwd[boundary], u[boundary], v[boundary])
        cold_end = np.where(fwd[boundary], v[boundary], u[boundary])
        used = 0
        rejected = 0
        changed = False
        for k in range(0, boundary.size - 1, 2):
            if used + 2 > self.budget:
                break
            h1, c1 = int(hot_end[k]), int(cold_end[k])
            h2, c2 = int(hot_end[k + 1]), int(cold_end[k + 1])
            token = topo.replace_pair(
                int(boundary[k]), int(boundary[k + 1]), (h1, h2), (c1, c2)
            )
            if token is None:
                rejected += 1
                continue
            if self.keep_connected and not topo.swap_keeps_connected(token):
                topo.undo(token)
                rejected += 1
                continue
            used += 2
            changed = True
        _trace_adapt(
            self, digest.t, used, applied=used // 2, rejected=rejected,
            boundary=int(boundary.size),
        )
        return changed


class IsolatingChurnAdversary(AdversaryPolicy):
    """Churn out the vertices most exposed to the observed frontier.

    Per round, the ``budget`` active unprotected vertices with the
    highest degree into the frontier (ties broken by vertex id) are
    deactivated; vertices churned out ``downtime`` rounds ago rejoin
    first.  The protected set is never deactivated — not by the
    greedy wave, and not by the separation sweep below.  With
    ``keep_connected`` a wave that would strand the anchor
    (``protected[0]``) or cut a protected vertex off it is cancelled;
    *unprotected* active vertices separated from the anchor count as
    churned out, mirroring the :class:`~repro.dynamics.ChurnSequence`
    contract (a protected vertex separated by the oblivious phase
    simply stays active until rewiring reconnects it).

    ``initially_out`` vertices start churned out at round 0 — the
    "COBRA restarted from a churned-out vertex" scenario: particles on
    a departed start vertex hold position until it rejoins.
    """

    name = "isolating-churn"

    def __init__(
        self,
        budget: int,
        *,
        downtime: int = 8,
        protected: tuple = (0,),
        keep_connected: bool = True,
        initially_out: tuple = (),
    ) -> None:
        self.budget = _check_budget(budget)
        self.downtime = int(downtime)
        if self.downtime < 1:
            raise ValueError("downtime must be >= 1")
        self.protected = tuple(int(p) for p in protected)
        if not self.protected:
            raise ValueError("isolating churn needs a protected anchor")
        self.keep_connected = bool(keep_connected)
        self.initially_out = tuple(int(p) for p in initially_out)
        if set(self.initially_out) & set(self.protected):
            raise ValueError("initially_out vertices cannot be protected")
        if self.initially_out and self.budget == 0:
            # A budget-0 policy is never consulted after round 0, so
            # the initial churn could never be readmitted — and the
            # budget-0 oblivious anchor would silently break.
            raise ValueError("initially_out requires a positive budget")
        self._down: dict[int, int] = {}

    def reset(self) -> None:
        """Forget the churn clocks (fresh replay)."""
        self._down = {}

    def initialize(self, topo: MutableTopology) -> None:
        """Apply the initial churn (the ``initially_out`` vertices)."""
        if self.initially_out:
            topo.deactivate(self.initially_out)
            for vtx in self.initially_out:
                self._down[vtx] = 0

    def _protected_mask(self, n: int) -> np.ndarray:
        mask = np.zeros(n, dtype=bool)
        mask[list(self.protected)] = True
        return mask

    def adapt(
        self,
        topo: MutableTopology,
        digest: FrontierDigest,
        rng: np.random.Generator,
    ) -> bool:
        """Readmit elapsed departures, churn out the most exposed."""
        t = digest.t
        changed = False
        # Readmit vertices whose downtime elapsed.
        back = sorted(v for v, t0 in self._down.items() if t - t0 >= self.downtime)
        if back:
            topo.reactivate(back)
            for vtx in back:
                del self._down[vtx]
            changed = True
        # Greedy isolation: deactivate the highest frontier-degree
        # vertices (deterministic — no draws, so replay is exact).
        protected = self._protected_mask(topo.n)
        fdeg = topo.frontier_degrees(digest.occupied)
        idx = np.nonzero(topo.active & ~protected & (fdeg > 0))[0]
        victims: list[int] = []
        if idx.size:
            order = np.lexsort((idx, -fdeg[idx]))
            victims = [int(v) for v in idx[order][: self.budget]]
            topo.deactivate(victims)
        cancelled = False
        cut_out = 0
        if self.keep_connected:
            anchor = self.protected[0]
            comp = topo.component_of(anchor)
            if not comp[protected].all():
                # The wave strands the anchor or severs a protected
                # vertex: cancel this round's departures.  (The
                # oblivious phase checks full-graph connectivity only,
                # so a protected vertex can arrive here already
                # separated — cancelling is best-effort, never a
                # guarantee that comp covers the protected set.)
                topo.reactivate(victims)
                victims = []
                cancelled = True
                comp = topo.component_of(anchor)
            # Unprotected active vertices cut off from the anchor
            # churn out too; protected ones always stay active.
            cut = np.nonzero(topo.active & ~comp & ~protected)[0]
            if cut.size:
                topo.deactivate(cut)
                for vtx in cut:
                    self._down[int(vtx)] = t
                cut_out = int(cut.size)
                changed = True
        for vtx in victims:
            self._down[vtx] = t
        _trace_adapt(
            self, t, len(victims), churned=len(victims),
            readmitted=len(back), separated=cut_out, cancelled=cancelled,
        )
        return changed or bool(victims)


class MovingSourceAdversary(AdversaryPolicy):
    """Relocate a persistent source into the already-informed region.

    BIPS forces its source back into the infected set every round; the
    worst case for the process is a source whose entire neighbourhood
    is already informed, because its persistence then contributes
    nothing.  Whenever at least a ``trigger`` fraction of the source's
    active edges lead to uninformed vertices, those edges are swapped
    against informed–informed edges: ``{s, v}, {c, d}`` becomes
    ``{s, c}, {v, d}`` with ``c, d`` informed — the source's edge now
    points at old news.  Degrees are preserved and (with
    ``keep_connected``) each swap is retracted if it disconnects.
    """

    name = "moving-source"

    def __init__(
        self,
        source: int,
        budget: int,
        *,
        trigger: float = 0.0,
        keep_connected: bool = True,
    ) -> None:
        self.source = int(source)
        self.budget = _check_budget(budget)
        self.trigger = float(trigger)
        if not 0.0 <= self.trigger <= 1.0:
            raise ValueError("trigger must be a fraction in [0, 1]")
        self.keep_connected = bool(keep_connected)

    def adapt(
        self,
        topo: MutableTopology,
        digest: FrontierDigest,
        rng: np.random.Generator,
    ) -> bool:
        """Swap the source's uninformed edges into the informed region."""
        s = self.source
        if not topo.active[s]:
            return False
        e = topo.edges
        u, v = e[:, 0], e[:, 1]
        act = topo.active[u] & topo.active[v]
        inc = (u == s) | (v == s)
        other = np.where(u == s, v, u)
        cold_inc = np.nonzero(inc & act & ~digest.informed[other])[0]
        live_inc = int((inc & act).sum())
        if cold_inc.size == 0 or live_inc == 0:
            return False
        if cold_inc.size < self.trigger * live_inc:
            return False
        partners = np.nonzero(
            act & ~inc & digest.informed[u] & digest.informed[v]
        )[0]
        if partners.size == 0:
            return False
        cold_inc = cold_inc[rng.permutation(cold_inc.size)]
        partners = partners[rng.permutation(partners.size)]
        used = 0
        rejected = 0
        changed = False
        pi = 0
        for i in cold_inc:
            if used + 2 > self.budget or pi >= partners.size:
                break
            j = int(partners[pi])
            pi += 1
            vcold = int(other[i])
            c, d = int(e[j, 0]), int(e[j, 1])
            token = topo.replace_pair(int(i), j, (s, c), (vcold, d))
            if token is None:
                token = topo.replace_pair(int(i), j, (s, d), (vcold, c))
            if token is None:
                rejected += 1
                continue
            if self.keep_connected and not topo.swap_keeps_connected(token):
                topo.undo(token)
                rejected += 1
                continue
            used += 2
            changed = True
        _trace_adapt(
            self, digest.t, used, applied=used // 2, rejected=rejected,
            cold_edges=int(cold_inc.size),
        )
        return changed


class AdaptiveRRIPolicy(AdversaryPolicy):
    """Frontier-driven re-randomization bursts (adaptive RRI).

    Instead of a fixed per-round rewiring rate, the topology fires a
    burst of ``burst_swaps`` oblivious double-edge swaps only on
    rounds whose observed frontier mass grew by at least
    ``growth_threshold``× since the previous observation — the
    re-randomization interval shortens exactly when the process
    accelerates.  The burst uses the shared
    :func:`~repro.dynamics.try_swap_round` machinery, so a burst round
    is distributionally one :class:`~repro.dynamics.RewiringSequence`
    round.
    """

    name = "adaptive-rri"

    def __init__(
        self,
        burst_swaps: int,
        *,
        growth_threshold: float = 1.5,
        keep_connected: bool = True,
        max_retries: int = 20,
    ) -> None:
        self.budget = _check_budget(burst_swaps)
        self.growth_threshold = float(growth_threshold)
        if self.growth_threshold <= 0:
            raise ValueError("growth_threshold must be positive")
        self.keep_connected = bool(keep_connected)
        self.max_retries = int(max_retries)
        self._prev: int | None = None

    @property
    def burst_swaps(self) -> int:
        """Swap attempts per triggered burst (alias of ``budget``)."""
        return self.budget

    def reset(self) -> None:
        """Forget the previous frontier mass (fresh replay)."""
        self._prev = None

    def adapt(
        self,
        topo: MutableTopology,
        digest: FrontierDigest,
        rng: np.random.Generator,
    ) -> bool:
        """Fire an oblivious swap burst when frontier growth triggers."""
        total = digest.total_occupied
        prev, self._prev = self._prev, total
        if prev is None or prev <= 0:
            return False
        if total < self.growth_threshold * prev:
            return False
        attempts = self.max_retries + 1 if self.keep_connected else 1
        for attempt in range(attempts):
            edges, keys, changed = try_swap_round(
                topo.edges, topo.keys, topo.n, self.budget, rng
            )
            if not changed:
                _trace_adapt(self, digest.t, 0, fired=False, rejected=attempt)
                return False
            if self.keep_connected:
                probe = MutableTopology(topo.n, edges, keys, topo.active)
                if not probe.connected():
                    continue
            topo.commit_edges(edges, keys)
            _trace_adapt(
                self, digest.t, self.budget, fired=True, rejected=attempt
            )
            return True
        _trace_adapt(self, digest.t, 0, fired=False, rejected=attempts)
        return False


#: Registry of adversary kinds (CLI spellings and wire format keys).
ADVERSARY_KINDS = (
    "greedy-cut",
    "isolating-churn",
    "moving-source",
    "adaptive-rri",
)


def make_adversary(
    kind: str,
    budget: int,
    *,
    source: int = 0,
    keep_connected: bool = True,
) -> AdversaryPolicy:
    """Build a catalogue policy from its registry name.

    The convenience constructor used by the CLI and the experiment
    sweeps; policies needing richer parameters (churn downtimes,
    initial churn, RRI thresholds) are constructed directly.
    ``source`` seeds both the moving-source target and the churn
    adversary's protected anchor.
    """
    if kind == "greedy-cut":
        return GreedyCutAdversary(budget, keep_connected=keep_connected)
    if kind == "isolating-churn":
        return IsolatingChurnAdversary(
            budget, protected=(source,), keep_connected=keep_connected
        )
    if kind == "moving-source":
        return MovingSourceAdversary(
            source, budget, keep_connected=keep_connected
        )
    if kind == "adaptive-rri":
        return AdaptiveRRIPolicy(budget, keep_connected=keep_connected)
    raise ValueError(
        f"unknown adversary kind {kind!r}: expected one of {ADVERSARY_KINDS}"
    )
