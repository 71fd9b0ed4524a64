"""repro — reproduction of *Improved Cover Time Bounds for the
Coalescing-Branching Random Walk on Graphs* (Cooper, Radzik, Rivera;
SPAA 2017).

Public API highlights:

* :class:`repro.graphs.Graph` and the family generators — the CSR graph
  substrate;
* :class:`repro.core.CobraProcess` / :class:`repro.core.BipsProcess` —
  the paper's two processes, with single-run and batched engines, on a
  static graph or a :mod:`repro.dynamics` sequence;
* :func:`repro.core.verify_duality_exact` — Theorem 1.3 checked to
  machine precision on tiny graphs;
* :mod:`repro.theory` — the paper's bound formulas the experiments
  evaluate, and the earlier regular-graph bounds Theorem 1.2 improves
  on;
* :mod:`repro.dynamics` — the same processes on time-evolving graphs
  (edge-Markovian, degree-preserving rewiring, vertex churn);
* :mod:`repro.experiments` — the E1..E17 reproduction suite (list it
  with ``repro list``; registered in :mod:`repro.experiments.registry`).

Quickstart::

    import numpy as np
    from repro import hypercube_graph, cover_time_samples

    g = hypercube_graph(7)
    times = cover_time_samples(g, start=0, runs=100, lazy=True,
                               rng=np.random.default_rng(1))
    print(times.mean())
"""

from ._lazy import attach
from ._version import __version__ as __version__

# Each name's submodule loads on first use (see repro._lazy).
# ``__version__`` is bound above and listed for ``__all__``; the
# subpackages with empty lists are reachable as attributes
# (``repro.engine``) but re-export nothing here.
__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "_version": ["__version__"],
        "core": [
            "BernoulliBranching",
            "BipsProcess",
            "CobraProcess",
            "FixedBranching",
            "bips_exact",
            "cover_time",
            "cover_time_samples",
            "infection_time",
            "infection_time_samples",
            "verify_duality_exact",
            "verify_duality_monte_carlo",
        ],
        "dynamics": [
            "ChurnSequence",
            "EdgeMarkovianSequence",
            "FrozenSequence",
            "GraphSequence",
            "RewiringSequence",
            "dynamic_cover_time_samples",
            "dynamic_infection_time_samples",
        ],
        "experiments": ["ExperimentConfig", "run_experiment"],
        "graphs": [
            "Graph",
            "barbell_graph",
            "complete_graph",
            "cycle_graph",
            "eigenvalue_gap",
            "erdos_renyi_graph",
            "grid_graph",
            "hypercube_graph",
            "margulis_expander",
            "path_graph",
            "random_regular_graph",
            "second_eigenvalue",
            "star_graph",
            "torus_graph",
        ],
        "theory": [
            "bound_spaa17_general",
            "bound_spaa17_regular",
            "hypercube_ladder",
            "lower_bound_cover",
        ],
        "adversary": [],
        "analysis": [],
        "baselines": [],
        "distributed": [],
        "engine": [],
        "kernels": [],
        "parallel": [],
        "resilience": [],
        "stats": [],
        "telemetry": [],
    },
)
