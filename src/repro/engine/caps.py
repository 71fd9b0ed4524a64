"""Centralised round-cap derivation for every spread engine.

Before the engine layer existed, each module hand-rolled its own
"generous upper bound on how long this process could possibly take":
:func:`repro.core.cobra.default_round_cap` used the Theorem 1.1 form
``64·(m + dmax²·ln n) + 1000`` while ``baselines/push.py`` and
``baselines/pull.py`` used an inconsistent ``64·(n + dmax·ln n)``-style
formula that was *smaller* than the coupon-collector worst case on
stars.  All cap derivation now lives here; the per-rule choice is made
by :meth:`repro.engine.rules.SpreadRule.default_cap`.

Hitting a cap signals a bug or a genuinely pathological
parameterisation (e.g. an ``all-vertices`` completion target under
heavy churn) rather than bad luck: every formula is a ``64×`` multiple
of a proven w.h.p. bound plus a constant floor.
"""

from __future__ import annotations

import math

__all__ = ["process_round_cap", "walk_round_cap"]


def process_round_cap(n: int, m: int, dmax: int) -> int:
    """Cap for epidemic-style rounds (COBRA, BIPS, push, pull, push-pull).

    ``64 · (m + dmax² · max(1, ln n)) + 1000`` — the Theorem 1.1 /
    Theorem 1.4 bound shape with a 64× safety factor.  For the gossip
    baselines this dominates their coupon-collector worst cases (e.g.
    push on a star needs ``Θ(n log n)`` rounds; here ``m + dmax² ln n =
    Θ(n² log n)``), so one formula safely serves every per-vertex
    selection process.
    """
    bound = m + dmax**2 * max(1.0, math.log(n))
    return int(64 * bound + 1000)


def walk_round_cap(n: int, dmax: int) -> int:
    """Cap for fixed-population walk rounds (single and multi walks).

    ``64 · n · max(1, ln n) · dmax + 1000`` — the classical
    ``O(n·m)``-flavoured cover-time bound with the same 64× factor.
    Walks have no branching, so the epidemic cap shape does not apply.
    """
    return int(64 * n * max(1.0, math.log(n)) * dmax + 1000)
