"""State-aware adversarial dynamics: topology sources that fight back.

The oblivious providers of :mod:`repro.dynamics` evolve blind to the
process; this subsystem supplies the other regime of worst-case
dynamic cover — an **adaptive adversary** rewiring against the
observed frontier through the engine's observation protocol
(:mod:`repro.engine.observation`):

* :class:`AdversarialSequence` — a drop-in
  :class:`~repro.dynamics.GraphSequence` combining an oblivious
  rewiring phase (draw-for-draw the
  :class:`~repro.dynamics.RewiringSequence` machinery, so budget 0
  anchors bit-for-bit against the oblivious baseline) with a budgeted
  adversary reaction per round;
* the policy catalogue — :class:`GreedyCutAdversary` (sever
  frontier→uninformed edges, degree- and connectivity-preserving),
  :class:`IsolatingChurnAdversary` (churn out the vertices most
  exposed to the frontier), :class:`MovingSourceAdversary` (waste a
  persistent BIPS source inside the informed region), and
  :class:`AdaptiveRRIPolicy` (re-randomization bursts fired by
  observed frontier growth);
* :class:`MutableTopology` / :class:`FrontierDigest` — the exact
  integer state policies mutate and the compact per-round record they
  react to.

Everything stays deterministic from ``(topo_seed, proc_seed)``:
sequences are shard-locally realizable (:meth:`GraphSequence.
fresh_replay`) and wire-encodable as seeded replay specs, so serial,
sharded and distributed execution agree bit-for-bit.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "sequence": ["AdversarialSequence"],
        "policies": [
            "AdversaryPolicy",
            "GreedyCutAdversary",
            "IsolatingChurnAdversary",
            "MovingSourceAdversary",
            "AdaptiveRRIPolicy",
            "FrontierDigest",
            "make_adversary",
            "ADVERSARY_KINDS",
        ],
        "state": ["MutableTopology"],
    },
)
