"""Unified batched engine: spread rule × topology source × completion.

One vectorised ``(R, n)`` state machine advances ``R`` independent runs
of any spread process over any topology source.  The three axes are
independent and freely composable:

* **Spread rule** (:mod:`~repro.engine.rules`) — COBRA
  branching-choose-``b``, BIPS pull, push, pull, push–pull and ``k``
  independent walks, each a small gather/scatter kernel over the CSR
  arrays with one state row per run;
* **Topology source** (a :class:`~repro.graphs.Graph`, whose
  ``graph_at(t)`` is itself, or any :class:`repro.dynamics.GraphSequence`,
  which serves the snapshot of the round it is at) — static and
  time-evolving graphs share one step loop;
* **Completion criterion** (:mod:`~repro.engine.completion`) —
  ``all-vertices``, churn-aware ``all-active``, or ``TargetHit(v)``.

:mod:`repro.core`, :mod:`repro.baselines` (all but flooding, which is
a BFS) and :mod:`repro.dynamics` are thin wrappers over this layer;
round caps are centralised in :mod:`~repro.engine.caps` and per-rule
memory footprints feed :func:`repro.parallel.plan_shards`.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "engine": ["SpreadEngine", "SpreadResult", "as_topology"],
        # observation protocol
        "observation": ["FrontierObservation"],
        "rules": [
            "SpreadRule",
            "CobraRule",
            "BipsRule",
            "PushRule",
            "PullRule",
            "PushPullRule",
            "WalkRule",
        ],
        "completion": [
            "CompletionCriterion",
            "AllVertices",
            "AllActive",
            "TargetHit",
            "make_completion",
        ],
        "caps": ["process_round_cap", "walk_round_cap"],
    },
)
