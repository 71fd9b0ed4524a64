"""Completion criteria: when is a run of the batched engine finished?

A criterion maps the engine's ``(R, n)`` boolean *basis* array (the
cumulative visited set for cover-type rules, the instantaneous state
for infection-type rules — see
:attr:`repro.engine.rules.SpreadRule.completion_basis`) to a length-
``R`` boolean "done" vector.  Criteria also see the snapshot in force,
which is what makes churn-aware completion possible: under vertex
churn, "all ``n`` vertices at once" is unreachable at moderate leave
rates, but "every currently-present vertex" is a meaningful target.

The three built-ins:

* :class:`AllVertices` (``"all-vertices"``) — every vertex of the fixed
  vertex set;
* :class:`AllActive` (``"all-active"``) — every vertex present in the
  current snapshot (degree > 0); departed vertices are excused;
* :class:`TargetHit` — a designated vertex has been reached (the
  hitting-time criterion used by duality audits).
"""

from __future__ import annotations

import abc

import numpy as np

from ..graphs.graph import Graph

__all__ = [
    "CompletionCriterion",
    "AllVertices",
    "AllActive",
    "TargetHit",
    "make_completion",
]


class CompletionCriterion(abc.ABC):
    """Abstract completion test evaluated once per engine round."""

    @abc.abstractmethod
    def done(
        self,
        basis: np.ndarray,
        graph: Graph,
        remaining: np.ndarray | None = None,
    ) -> np.ndarray:
        """Return a ``(R,)`` boolean vector of finished runs.

        ``basis`` is the ``(R, n)`` boolean array the owning rule
        declared as its completion basis; ``graph`` is the snapshot in
        force during the round just executed; ``remaining`` (when the
        engine maintains it) counts not-yet-visited vertices per run
        and enables an O(R) fast path for monotone bases.
        """


class AllVertices(CompletionCriterion):
    """Done when every vertex of the fixed vertex set is covered."""

    def done(
        self,
        basis: np.ndarray,
        graph: Graph,
        remaining: np.ndarray | None = None,
    ) -> np.ndarray:
        """``basis`` rows must be all-True (O(R) when ``remaining`` given)."""
        if remaining is not None:
            return remaining == 0
        return basis.all(axis=1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "AllVertices()"


class AllActive(CompletionCriterion):
    """Done when every *currently-present* vertex is covered.

    A vertex is present iff it has positive degree in the round's
    snapshot — the convention of :mod:`repro.dynamics`, whose churn
    provider models departed peers as degree-zero vertices.  On a
    static connected graph this degenerates to :class:`AllVertices`.
    """

    def done(
        self,
        basis: np.ndarray,
        graph: Graph,
        remaining: np.ndarray | None = None,
    ) -> np.ndarray:
        """All degree-positive vertices of ``graph`` must be covered."""
        present = graph.degrees > 0
        if not present.any():
            # An empty snapshot excuses everyone.
            return np.ones(basis.shape[0], dtype=bool)
        return basis[:, present].all(axis=1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "AllActive()"


class TargetHit(CompletionCriterion):
    """Done when the designated target vertex is covered."""

    def __init__(self, target: int) -> None:
        self.target = int(target)

    def done(
        self,
        basis: np.ndarray,
        graph: Graph,
        remaining: np.ndarray | None = None,
    ) -> np.ndarray:
        """The target's basis column decides completion directly."""
        return basis[:, self.target].copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TargetHit({self.target})"


def make_completion(spec: "CompletionCriterion | str") -> CompletionCriterion:
    """Coerce a completion spec into a :class:`CompletionCriterion`.

    Accepts a criterion instance (e.g. ``TargetHit(v)``), or one of the
    strings ``"all-vertices"`` and ``"all-active"``.
    """
    if isinstance(spec, CompletionCriterion):
        return spec
    if spec == "all-vertices":
        return AllVertices()
    if spec == "all-active":
        return AllActive()
    raise ValueError(
        f"unknown completion spec {spec!r}: expected 'all-vertices', "
        "'all-active', or a CompletionCriterion"
    )
