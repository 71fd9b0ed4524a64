"""Branching-factor policies for COBRA and BIPS.

The paper studies three regimes, all expressible as "how many uniform
neighbour selections does an acting vertex make this round":

* **Fixed integer** ``b >= 1`` — the main object of study is ``b = 2``;
  ``b = 1`` degenerates to a simple random walk.
* **Bernoulli** ``b = 1 + ρ`` for constant ``0 < ρ <= 1`` (Section 6):
  a vertex makes two selections with probability ρ and one otherwise.
* Either of the above in a **lazy** variant where each individual
  selection returns the vertex itself with probability 1/2 (the fix the
  paper proposes for bipartite graphs before Theorem 1.2).

A policy is a small frozen object; engines call
:meth:`BranchingPolicy.draw_counts` once per round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BranchingPolicy",
    "FixedBranching",
    "BernoulliBranching",
    "make_policy",
]


@dataclass(frozen=True)
class BranchingPolicy:
    """Base class: number of neighbour selections per acting vertex."""

    def draw_counts(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """Return an int64 array of length ``k`` of selection counts.

        Callers only read it: a fixed policy returns a read-only
        zero-stride view of its one count, not ``k`` copies of it.
        """
        raise NotImplementedError

    @property
    def expected_branching(self) -> float:
        """The expected number of selections, ``b`` in the paper."""
        raise NotImplementedError

    @property
    def max_branching(self) -> int:
        """The maximum possible number of selections in one round."""
        raise NotImplementedError

    def fixed_selection_count(self) -> int | None:
        """``b`` if every vertex makes exactly ``b`` selections, else None.

        The engine kernels in :mod:`repro.engine.rules` dispatch on
        this instead of ``isinstance`` checks, so the engine package
        stays import-free of :mod:`repro.core`.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class FixedBranching(BranchingPolicy):
    """Every acting vertex makes exactly ``b`` selections per round."""

    b: int = 2

    def __post_init__(self) -> None:
        if self.b < 1:
            raise ValueError(f"branching factor must be >= 1, got {self.b}")

    def draw_counts(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """``b`` selections per acting vertex, as a read-only zero-stride view.

        One int64 read ``k`` times, on the read-only buffer of a numpy
        scalar: no ``k``-long array, and at small ``k`` as cheap as
        ``np.full`` (``np.broadcast_to`` costs about 5x more there).
        """
        return np.ndarray((k,), dtype=np.int64, buffer=np.int64(self.b), strides=(0,))

    @property
    def expected_branching(self) -> float:
        return float(self.b)

    @property
    def max_branching(self) -> int:
        return self.b

    def second_selection_probability(self) -> float:
        """P(a vertex makes a 2nd selection); 1.0 for b >= 2 (used by BIPS)."""
        return 1.0 if self.b >= 2 else 0.0

    def fixed_selection_count(self) -> int | None:
        """Always exactly ``b`` selections."""
        return self.b

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"b={self.b}"


@dataclass(frozen=True)
class BernoulliBranching(BranchingPolicy):
    """The Section-6 policy: two selections w.p. ρ, one w.p. 1 − ρ.

    Expected branching factor ``b = 1 + ρ``.  The paper's bounds for
    this regime are the ``b = 2`` bounds multiplied by ``1/ρ²``.
    """

    rho: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.rho <= 1.0:
            raise ValueError(f"rho must be in (0, 1], got {self.rho}")

    def draw_counts(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """One selection, plus a second independently w.p. ρ, per vertex."""
        return 1 + (rng.random(k) < self.rho).astype(np.int64)

    @property
    def expected_branching(self) -> float:
        return 1.0 + self.rho

    @property
    def max_branching(self) -> int:
        return 2

    def second_selection_probability(self) -> float:
        """P(a vertex makes a 2nd selection) = ρ."""
        return self.rho

    def fixed_selection_count(self) -> int | None:
        """The selection count is random, so None."""
        return None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"b=1+{self.rho:g}"


def make_policy(branching: "BranchingPolicy | int | float") -> BranchingPolicy:
    """Coerce a user argument into a policy.

    Integers become :class:`FixedBranching`; floats in ``(1, 2)`` become
    :class:`BernoulliBranching` with ``ρ = b − 1``; policies pass
    through unchanged.
    """
    if isinstance(branching, BranchingPolicy):
        return branching
    if isinstance(branching, (int, np.integer)):
        return FixedBranching(int(branching))
    if isinstance(branching, float):
        if branching.is_integer():
            return FixedBranching(int(branching))
        if 1.0 < branching < 2.0:
            return BernoulliBranching(branching - 1.0)
        raise ValueError(
            f"fractional branching factor must lie in (1, 2), got {branching}"
        )
    raise TypeError(f"cannot interpret branching spec {branching!r}")
