"""Swap-driven sequences: one sort per round, pinned redraws.

A rewiring round checks each swap proposal's connectivity with
``MutableTopology.connected``, which sorts the proposal's edges into a
CSR once; the adversary phase patches that CSR, and ``_build_graph``
wraps it as the snapshot when ``graph_at`` moves the chain to a round
whose topology changed.  Only round 0, and a state whose CSR was
dropped (churn, a wholesale edge commit), build a validated ``Graph``.
The pins below are the edge arrays of rounds 1–12 on an odd cycle,
where most rounds' first proposals disconnect the graph and are
re-drawn from the round stream, so they hold the redraw path's draws
and decisions.
"""

import hashlib

import numpy as np
import pytest

from repro.adversary import (
    ADVERSARY_KINDS,
    AdversarialSequence,
    GreedyCutAdversary,
    make_adversary,
)
from repro.adversary.state import MutableTopology
from repro.core.branching import make_policy
from repro.dynamics import GraphSequence, RewiringSequence, dynamic_cover_time_samples
from repro.dynamics.topology import MutableTopology as DynamicsTopology
from repro.engine import CobraRule, SpreadEngine
from repro.graphs import Graph, cycle_graph, erdos_renyi_graph, random_regular_graph


def _counting(monkeypatch, owner, name):
    """Count calls of ``owner.name`` from here on."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _drive(seq, runs=8, proc_seed=100, max_rounds=None):
    """Run COBRA b=2 from vertex 0 on ``seq``, delivering observations."""
    state = np.zeros((runs, seq.n), dtype=bool)
    state[:, 0] = True
    engine = SpreadEngine(CobraRule(make_policy(2)), seq)
    kwargs = {} if max_rounds is None else {"max_rounds": max_rounds}
    return engine.run(state, np.random.default_rng(proc_seed), **kwargs)


def _rounds_digest(seq) -> str:
    h = hashlib.sha256()
    for t in range(1, 13):
        edges = seq.graph_at(t).edge_array()
        h.update(np.ascontiguousarray(edges, dtype="<i8").tobytes())
    return h.hexdigest()[:16]


def test_adversary_state_reexports_the_dynamics_class():
    assert MutableTopology is DynamicsTopology


class TestOneBuildPerSnapshot:
    def test_rewiring_rounds_with_redraws(self, monkeypatch):
        seq = RewiringSequence(cycle_graph(31), 8, seed=0)
        builds = _counting(monkeypatch, Graph, "__init__")
        checks = _counting(monkeypatch, MutableTopology, "connected")
        for t in range(21):
            seq.graph_at(t)
        assert len(builds) <= seq.cache_info["misses"]
        assert len(checks) > 20  # proposals were re-drawn

    def test_engine_driven_greedy_cut(self, monkeypatch):
        base = random_regular_graph(128, 3, rng=3)
        seq = AdversarialSequence(
            base, GreedyCutAdversary(6), 5, swaps_per_round=6
        )
        adapts = _counting(monkeypatch, GreedyCutAdversary, "adapt")
        builds = _counting(monkeypatch, Graph, "__init__")
        result = _drive(seq, max_rounds=20)
        assert result.rounds_run == 20
        assert adapts  # the adversary was consulted
        assert len(builds) <= seq.cache_info["misses"]

    def test_adversary_rewire_small_cell(self, monkeypatch):
        # perfbench's adversary-rewire cell at --size small --seed 1.
        # Each run's sequence is asked for round 0 three times (the
        # round cap, the opening completion check, the first round) and
        # for every later round once, in order: one miss, two hits,
        # then a miss per round.  Round 0 is the one validated build of
        # a run; every later snapshot wraps its round's CSR.
        base = random_regular_graph(256, 4, rng=1)
        driven = {}
        graph_at = GraphSequence.graph_at

        def remembered(seq, t):
            driven.setdefault(id(seq), seq)
            return graph_at(seq, t)

        monkeypatch.setattr(GraphSequence, "graph_at", remembered)
        builds = _counting(monkeypatch, Graph, "__init__")
        dynamic_cover_time_samples(
            lambda topology_seed: AdversarialSequence(
                base,
                make_adversary("greedy-cut", 8),
                topology_seed,
                swaps_per_round=round(0.1 * base.m),
            ),
            4,
            seed=1,
        )
        assert len(driven) == 4
        misses = sum(seq.cache_info["misses"] for seq in driven.values())
        hits = sum(seq.cache_info["hits"] for seq in driven.values())
        assert (misses, hits, len(builds)) == (86, 8, 4)


_TRUST_BASES = {
    "rreg-64": random_regular_graph(64, 4, rng=2),
    "gnp-48": erdos_renyi_graph(48, 0.12, rng=4),  # connected, irregular
}


@pytest.mark.parametrize("base", list(_TRUST_BASES))
@pytest.mark.parametrize(
    "kind, swaps", [("rewiring", 6), *((kind, 6) for kind in ADVERSARY_KINDS), ("greedy-cut", 0)]
)
def test_trusted_snapshots_equal_validated_builds(kind, swaps, base):
    # A snapshot wraps its round's CSR (patched by the adversary, its
    # patched rows re-sorted) without Graph's sort and checks; it must
    # be the graph a validated build of its edges gives when it is
    # served, and stay so while later rounds patch the CSR (with no
    # oblivious swaps, greedy-cut patches one topology every round).
    base = _TRUST_BASES[base]
    if kind == "rewiring":
        seq = RewiringSequence(base, swaps, seed=7)
    else:
        seq = AdversarialSequence(base, make_adversary(kind, 6), 7, swaps_per_round=swaps)
    served = []
    graph_at = seq.graph_at

    def recorded(t):
        graph = graph_at(t)
        served.append((graph, Graph(graph.n, graph.edge_array())))
        return graph

    seq.graph_at = recorded
    state = np.zeros((4, seq.n), dtype=bool)
    state[:, 0] = True
    engine = SpreadEngine(CobraRule(make_policy(2), lazy=True), seq)
    assert engine.run(state, np.random.default_rng(5), max_rounds=16).rounds_run == 16
    assert len({id(graph) for graph, _ in served}) > 4  # the topology kept changing
    for graph, built in served:
        assert np.array_equal(graph.indptr, built.indptr)
        assert np.array_equal(graph.indices, built.indices)
        assert np.array_equal(graph.degrees, built.degrees)
        assert graph.digest == built.digest


_REWIRING_PINS = {
    0: "035690e4a2a49b21",
    1: "095ef0b23b4b47dd",
    2: "f0dfa366e66a4edb",
    3: "9bfdb65517ddf178",
    4: "0f7765b5698cce1a",
}

_GREEDY_CUT_PINS = {
    0: "596baf5c81c1d0c3",
    1: "3ac7a2cd3831ac2b",
    2: "aeaf346aabfaaf43",
    3: "6274539f260c0c7a",
    4: "54f9d7e5da127060",
}


@pytest.mark.parametrize("seed", sorted(_REWIRING_PINS))
def test_rewiring_redraw_path_is_pinned(seed):
    seq = RewiringSequence(cycle_graph(31), 8, seed=seed)
    assert _rounds_digest(seq) == _REWIRING_PINS[seed]


@pytest.mark.parametrize("budget", [0, 4])
@pytest.mark.parametrize("seed", sorted(_GREEDY_CUT_PINS))
def test_adversarial_redraw_path_is_pinned(seed, budget):
    seq = AdversarialSequence(
        cycle_graph(31), GreedyCutAdversary(budget), seed, swaps_per_round=8
    )
    _drive(seq, proc_seed=100 + seed)
    assert seq.observed_rounds > 12
    # Budget 0 replays the oblivious realisation (the anchor).
    pins = _GREEDY_CUT_PINS if budget else _REWIRING_PINS
    assert _rounds_digest(seq) == pins[seed]
