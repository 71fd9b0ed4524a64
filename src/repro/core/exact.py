"""Exact finite-state analysis of COBRA and BIPS on tiny graphs.

Both processes are Markov chains on subsets of ``V``:

* **BIPS** — states are infected sets containing the source.  Given
  ``A_t``, every non-source vertex is independently infected next round
  with probability ``p_u(A_t)`` (eqs. (32)/(33)), so each transition row
  is a *product measure* which we materialise by iterated doubling in
  ``O(2^k)`` per state (``k = n − 1`` non-source vertices).

* **COBRA** — states are active sets.  The next state is the union of
  each active vertex's ``b`` selections, so each row is the
  *union-convolution* of per-source selection measures over bitmask
  subsets.

These engines make the duality theorem (Theorem 1.3) *exactly*
checkable — the headline correctness test of this reproduction — and
provide ground-truth hit/cover/infection distributions against which
the Monte-Carlo engines are validated.

Scale limits: BIPS is practical to ``n ≈ 12``; COBRA hit-time to
``n ≈ 9``; COBRA cover-time (joint active × visited state) to
``n ≈ 7``.  Limits are enforced with clear errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..graphs.graph import Graph
from ..graphs.validation import check_vertex, check_vertex_set, require_connected
from .branching import BernoulliBranching, BranchingPolicy, FixedBranching, make_policy

__all__ = [
    "BipsExact",
    "bips_exact",
    "cobra_hit_survival_exact",
    "cobra_cover_survival_exact",
    "exact_cover_expectation",
    "expected_time_from_survival",
]

_MAX_BIPS_N = 13
_MAX_COBRA_N = 10
_MAX_COVER_N = 8


def _infection_probabilities(
    graph: Graph,
    infected: np.ndarray,
    policy: BranchingPolicy,
    lazy: bool,
) -> np.ndarray:
    """Per-vertex probability of being infected next round given mask ``A``."""
    counts = np.add.reduceat(
        infected[graph.indices].astype(np.float64), graph.indptr[:-1]
    )
    p = counts / graph.degrees
    if lazy:
        p = 0.5 * p + 0.5 * infected.astype(np.float64)
    if isinstance(policy, FixedBranching):
        return 1.0 - (1.0 - p) ** policy.b
    assert isinstance(policy, BernoulliBranching)
    return 1.0 - (1.0 - p) * (1.0 - policy.rho * p)


@dataclass(frozen=True)
class BipsExact:
    """Exact BIPS distribution over infected sets, round by round.

    ``others`` lists the non-source vertices; state mask bit ``i``
    corresponds to ``others[i]`` being infected.  ``dists[t]`` is the
    distribution over the ``2^k`` states at round ``t``; the full set is
    the all-ones mask.
    """

    graph: Graph
    source: int
    others: np.ndarray
    dists: np.ndarray  # (t_max + 1, 2^k)

    @property
    def t_max(self) -> int:
        """Largest round with a stored distribution."""
        return self.dists.shape[0] - 1

    def survival(self) -> np.ndarray:
        """``P(infec(v) > t)`` for ``t = 0 .. t_max``.

        The full state is absorbing, so this equals one minus the mass
        on the all-ones mask.
        """
        full = self.dists.shape[1] - 1
        return 1.0 - self.dists[:, full]

    def prob_uninfected(self, subset, t: int) -> float:
        """``P(A_t ∩ C = ∅)`` — the right-hand side of Theorem 1.3."""
        c = check_vertex_set(self.graph, subset)
        if self.source in set(c.tolist()):
            return 0.0  # the source is always infected
        pos = {int(v): i for i, v in enumerate(self.others)}
        cmask = 0
        for v in c.tolist():
            cmask |= 1 << pos[v]
        states = np.arange(self.dists.shape[1])
        keep = (states & cmask) == 0
        return float(self.dists[t, keep].sum())

    def expected_size(self, t: int) -> float:
        """``E|A_t|`` (including the always-infected source)."""
        k = self.others.shape[0]
        states = np.arange(self.dists.shape[1])
        pop = np.zeros_like(states)
        for i in range(k):
            pop += (states >> i) & 1
        return 1.0 + float(np.dot(self.dists[t], pop))


def bips_exact(
    graph: Graph,
    source: int,
    *,
    branching: BranchingPolicy | int | float = 2,
    lazy: bool = False,
    t_max: int = 64,
) -> BipsExact:
    """Propagate the exact BIPS state distribution for ``t_max`` rounds."""
    require_connected(graph)
    source = check_vertex(graph, source)
    if graph.n > _MAX_BIPS_N:
        raise ValueError(
            f"exact BIPS limited to n <= {_MAX_BIPS_N} (got n = {graph.n})"
        )
    policy = make_policy(branching)
    others = np.array(
        [u for u in range(graph.n) if u != source], dtype=np.int64
    )
    k = others.shape[0]
    size = 1 << k

    # Transition rows, built lazily and cached per state.
    @lru_cache(maxsize=None)
    def row(state: int) -> np.ndarray:
        infected = np.zeros(graph.n, dtype=bool)
        infected[source] = True
        for i in range(k):
            if state >> i & 1:
                infected[others[i]] = True
        p = _infection_probabilities(graph, infected, policy, lazy)[others]
        r = np.ones(1, dtype=np.float64)
        for i in range(k):
            r = np.concatenate([r * (1.0 - p[i]), r * p[i]])
        return r

    dists = np.zeros((t_max + 1, size), dtype=np.float64)
    dists[0, 0] = 1.0
    for t in range(t_max):
        cur = dists[t]
        nxt = dists[t + 1]
        for state in np.nonzero(cur > 0)[0]:
            nxt += cur[state] * row(int(state))
    return BipsExact(graph=graph, source=source, others=others, dists=dists)


# ----------------------------------------------------------------------
# COBRA exact machinery
# ----------------------------------------------------------------------
def _single_pick_measure(
    graph: Graph, u: int, lazy: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Sparse measure of one selection by ``u``: (masks, probabilities)."""
    nbrs = graph.neighbors(u)
    d = nbrs.shape[0]
    masks = (np.int64(1) << nbrs.astype(np.int64)).astype(np.int64)
    probs = np.full(d, 1.0 / d, dtype=np.float64)
    if lazy:
        probs *= 0.5
        masks = np.concatenate([masks, np.array([1 << u], dtype=np.int64)])
        probs = np.concatenate([probs, np.array([0.5])])
    return masks, probs


def _union_convolve(
    masks_a: np.ndarray,
    probs_a: np.ndarray,
    masks_b: np.ndarray,
    probs_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Distribution of ``M_a | M_b`` for independent mask-valued variables."""
    union = masks_a[:, None] | masks_b[None, :]
    prob = probs_a[:, None] * probs_b[None, :]
    flat_masks = union.ravel()
    flat_probs = prob.ravel()
    uniq, inv = np.unique(flat_masks, return_inverse=True)
    out = np.zeros(uniq.shape[0], dtype=np.float64)
    np.add.at(out, inv, flat_probs)
    return uniq, out


def _source_measure(
    graph: Graph, u: int, policy: BranchingPolicy, lazy: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Distribution over the mask of vertices chosen by active vertex ``u``."""
    m1, p1 = _single_pick_measure(graph, u, lazy)
    if isinstance(policy, FixedBranching):
        masks, probs = m1, p1
        for _ in range(policy.b - 1):
            masks, probs = _union_convolve(masks, probs, m1, p1)
        return masks, probs
    assert isinstance(policy, BernoulliBranching)
    m2, p2 = _union_convolve(m1, p1, m1, p1)
    rho = policy.rho
    masks = np.concatenate([m1, m2])
    probs = np.concatenate([(1.0 - rho) * p1, rho * p2])
    uniq, inv = np.unique(masks, return_inverse=True)
    out = np.zeros(uniq.shape[0], dtype=np.float64)
    np.add.at(out, inv, probs)
    return uniq, out


class _CobraKernel:
    """Cached transition rows of the COBRA set-chain on a tiny graph."""

    def __init__(self, graph: Graph, policy: BranchingPolicy, lazy: bool) -> None:
        self.graph = graph
        self.policy = policy
        self.lazy = lazy
        self._per_source = [
            _source_measure(graph, u, policy, lazy) for u in range(graph.n)
        ]
        self._rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def row(self, state: int) -> tuple[np.ndarray, np.ndarray]:
        """Sparse next-state distribution from active-set mask ``state``."""
        cached = self._rows.get(state)
        if cached is not None:
            return cached
        masks = np.zeros(1, dtype=np.int64)
        probs = np.ones(1, dtype=np.float64)
        s = state
        while s:
            u = (s & -s).bit_length() - 1
            s &= s - 1
            mu, pu = self._per_source[u]
            masks, probs = _union_convolve(masks, probs, mu, pu)
        self._rows[state] = (masks, probs)
        return masks, probs


def cobra_hit_survival_exact(
    graph: Graph,
    start,
    target: int,
    *,
    branching: BranchingPolicy | int | float = 2,
    lazy: bool = False,
    t_max: int = 64,
) -> np.ndarray:
    """Exact ``P(Hit(target) > T | C_0 = start)`` for ``T = 0 .. t_max``.

    This is the left-hand side of the duality theorem.  The target is
    made absorbing: mass reaching any state containing it is dropped,
    and the survival at ``T`` is the mass still circulating.
    """
    require_connected(graph)
    if graph.n > _MAX_COBRA_N:
        raise ValueError(
            f"exact COBRA limited to n <= {_MAX_COBRA_N} (got n = {graph.n})"
        )
    target = check_vertex(graph, target)
    if np.ndim(start) == 0:
        start_set = np.array([check_vertex(graph, start)], dtype=np.int64)
    else:
        start_set = check_vertex_set(graph, start)
    policy = make_policy(branching)
    kernel = _CobraKernel(graph, policy, lazy)
    tbit = np.int64(1) << target

    start_mask = 0
    for u in start_set.tolist():
        start_mask |= 1 << u
    survival = np.zeros(t_max + 1, dtype=np.float64)
    if start_mask & tbit:
        return survival  # hit at round 0: survival identically 0
    dist: dict[int, float] = {start_mask: 1.0}
    survival[0] = 1.0
    for t in range(1, t_max + 1):
        nxt: dict[int, float] = {}
        for state, w in dist.items():
            masks, probs = kernel.row(state)
            alive = (masks & tbit) == 0
            for mk, pk in zip(masks[alive].tolist(), probs[alive].tolist()):
                nxt[mk] = nxt.get(mk, 0.0) + w * pk
        dist = nxt
        survival[t] = sum(dist.values())
    return survival


def cobra_cover_survival_exact(
    graph: Graph,
    start: int,
    *,
    branching: BranchingPolicy | int | float = 2,
    lazy: bool = False,
    t_max: int = 128,
) -> np.ndarray:
    """Exact ``P(cover(start) > T)`` for ``T = 0 .. t_max``.

    Tracks the joint (active set, visited set) chain; states with
    ``visited = V`` are absorbing, and the survival is the mass still
    uncovered.  Exponential in ``n`` twice over — enforced ``n <= 8``.
    """
    require_connected(graph)
    if graph.n > _MAX_COVER_N:
        raise ValueError(
            f"exact COBRA cover limited to n <= {_MAX_COVER_N} (got n = {graph.n})"
        )
    start = check_vertex(graph, start)
    policy = make_policy(branching)
    kernel = _CobraKernel(graph, policy, lazy)
    full = (1 << graph.n) - 1

    start_mask = 1 << start
    survival = np.zeros(t_max + 1, dtype=np.float64)
    if start_mask == full:
        return survival
    dist: dict[tuple[int, int], float] = {(start_mask, start_mask): 1.0}
    survival[0] = 1.0
    for t in range(1, t_max + 1):
        nxt: dict[tuple[int, int], float] = {}
        for (state, visited), w in dist.items():
            masks, probs = kernel.row(state)
            for mk, pk in zip(masks.tolist(), probs.tolist()):
                vis = visited | mk
                if vis == full:
                    continue  # covered: absorb
                key = (mk, vis)
                nxt[key] = nxt.get(key, 0.0) + w * pk
        dist = nxt
        survival[t] = sum(dist.values())
        if not dist:
            break
    return survival


def exact_cover_expectation(
    graph: Graph,
    start: int,
    *,
    branching: BranchingPolicy | int | float = 2,
    lazy: bool = False,
    t_max: int = 400,
) -> float:
    """Exact ``COVER(start) = E[cover(start)]`` on a tiny graph."""
    surv = cobra_cover_survival_exact(
        graph, start, branching=branching, lazy=lazy, t_max=t_max
    )
    return expected_time_from_survival(surv)


def expected_time_from_survival(
    survival: np.ndarray, *, tail_tolerance: float = 1e-9
) -> float:
    """``E[T] = Σ_{t≥0} P(T > t)`` from a truncated survival sequence.

    Raises if the truncated tail mass exceeds ``tail_tolerance`` —
    callers should extend ``t_max`` rather than accept a biased mean.
    """
    survival = np.asarray(survival, dtype=np.float64)
    if survival.size == 0:
        raise ValueError("empty survival sequence")
    if survival[-1] > tail_tolerance:
        raise ValueError(
            f"survival tail {survival[-1]:.3g} exceeds tolerance "
            f"{tail_tolerance:.3g}; increase t_max"
        )
    return float(survival.sum())
