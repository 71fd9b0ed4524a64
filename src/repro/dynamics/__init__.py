"""Time-evolving graphs: sequences of snapshots and dynamic COBRA/BIPS.

The subsystem splits into a topology layer and a process layer:

* :class:`GraphSequence` — deterministic random-access snapshot
  sequences, with :class:`FrozenSequence` (static limit),
  :class:`SnapshotSchedule` (replay, eager or lazy), and the stochastic
  providers :class:`EdgeMarkovianSequence`, :class:`RewiringSequence`,
  :class:`ChurnSequence`;
* samplers (:func:`dynamic_cover_time_samples`,
  :func:`dynamic_infection_time_batch`, ...) that run
  :class:`repro.core.CobraProcess` / :class:`repro.core.BipsProcess` —
  which accept a sequence wherever they accept a graph — over the
  per-round snapshots, with one seed stream for topology and one for
  the process.  Each comes as a one-realisation-per-run sampler and a
  shared-realisation batch sampler, with churn-aware completion
  criteria (``"all-active"``).
"""

from .process import (
    batch_seed_pair,
    dynamic_cover_time_batch,
    dynamic_cover_time_samples,
    dynamic_infection_time_batch,
    dynamic_infection_time_samples,
    run_seed_pairs,
)
from .providers import ChurnSequence, EdgeMarkovianSequence, RewiringSequence
from .sequence import (
    FrozenSequence,
    GraphSequence,
    MarkovGraphSequence,
    SnapshotSchedule,
)

__all__ = [
    "GraphSequence",
    "MarkovGraphSequence",
    "FrozenSequence",
    "SnapshotSchedule",
    "EdgeMarkovianSequence",
    "RewiringSequence",
    "ChurnSequence",
    "dynamic_cover_time_samples",
    "dynamic_infection_time_samples",
    "dynamic_cover_time_batch",
    "dynamic_infection_time_batch",
    "run_seed_pairs",
    "batch_seed_pair",
]
