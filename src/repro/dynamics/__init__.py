"""Time-evolving graphs: sequences of snapshots and dynamic COBRA/BIPS.

The subsystem splits into a topology layer and a process layer:

* :class:`GraphSequence` — deterministic random-access snapshot
  sequences, each serving the snapshot of the round it is at, with
  :class:`FrozenSequence` (static limit) and the stochastic providers
  :class:`EdgeMarkovianSequence`, :class:`RewiringSequence`,
  :class:`ChurnSequence`;
* samplers (:func:`dynamic_cover_time_samples`,
  :func:`dynamic_infection_time_samples`) that run COBRA and BIPS
  (:class:`repro.core.CobraProcess` / :class:`repro.core.BipsProcess`
  accept a sequence wherever they accept a graph) over the per-round
  snapshots, with one seed stream for topology and one for the
  process.  The ``sequence`` argument picks the estimator: a
  :class:`GraphSequence` is one realisation every run replays
  (quenched, on the sharded stream of the static samplers), a factory
  ``topology_seed -> GraphSequence`` draws one per run (annealed).
  Both take churn-aware completion criteria (``"all-active"``).
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "sequence": ["GraphSequence", "MarkovGraphSequence", "FrozenSequence"],
        "providers": ["EdgeMarkovianSequence", "RewiringSequence", "ChurnSequence"],
        "process": ["dynamic_cover_time_samples", "dynamic_infection_time_samples"],
    },
)
