"""One seed stream: every sampler draws the sharded stream.

A sampler's samples depend only on the seed, the run count and the
shard cap, never on the tier that ran them.  ``CASES`` has one row per
sampler: the call on its default, in-process tier, and the reference it
must equal on two worker processes.  That is the sampler itself with
``workers=2`` where it takes ``workers``, else
``SpreadEngine(rule, topology, completion).run_sharded(state, seed,
workers=2)`` on the rule, start state and completion the sampler
builds.  The dynamic samplers take a realised sequence (one
realisation every run replays); on a frozen one they equal the static
samplers, and a ``SeedSequence`` seed equals its integer, however
often the one object is reused.  ``RUNS`` sits above the 256-run shard
cap, so the plan has two shards and the pool really runs.
"""

import numpy as np
import pytest

from repro.adversary import AdversarialSequence, make_adversary
from repro.baselines import (
    multi_walk_cover_samples,
    pull_broadcast_samples,
    push_broadcast_samples,
    push_pull_broadcast_samples,
    random_walk_cover_samples,
)
from repro.core import (
    cover_time_samples,
    hit_time_samples,
    infection_time_samples,
    make_policy,
)
from repro.dynamics import (
    FrozenSequence,
    RewiringSequence,
    dynamic_cover_time_samples,
    dynamic_infection_time_samples,
)
from repro.engine import (
    CobraRule,
    PullRule,
    PushPullRule,
    PushRule,
    SpreadEngine,
    TargetHit,
    WalkRule,
)
from repro.graphs import petersen_graph

RUNS = 300
SEED = 11
START, TARGET = 0, 7
GRAPH = petersen_graph()
REWIRING = RewiringSequence(GRAPH, 2, seed=SEED)
ADVERSARY = AdversarialSequence(
    GRAPH, make_adversary("greedy-cut", 2), SEED, swaps_per_round=2
)


def _informed():
    state = np.zeros((RUNS, GRAPH.n), dtype=bool)
    state[:, START] = True
    return state


def _walkers(k):
    return np.full((RUNS, k), START, dtype=np.int64)


def _pooled(rule, state, completion="all-vertices"):
    return SpreadEngine(rule, GRAPH, completion).run_sharded(
        state, SEED, workers=2
    )


#: sampler name -> (default-tier call, the same stream on two processes)
CASES = {
    "cover": (
        lambda: cover_time_samples(GRAPH, START, RUNS, rng=SEED, branching=3),
        lambda: cover_time_samples(
            GRAPH, START, RUNS, rng=SEED, branching=3, workers=2
        ),
    ),
    "infection": (
        lambda: infection_time_samples(GRAPH, START, RUNS, rng=SEED, branching=1.5),
        lambda: infection_time_samples(
            GRAPH, START, RUNS, rng=SEED, branching=1.5, workers=2
        ),
    ),
    "hit": (
        lambda: hit_time_samples(GRAPH, START, TARGET, RUNS, rng=SEED),
        lambda: _pooled(
            CobraRule(make_policy(2)), _informed(), TargetHit(TARGET)
        ).finish_times,
    ),
    "push": (
        lambda: push_broadcast_samples(GRAPH, START, RUNS, rng=SEED, fanout=2),
        lambda: _pooled(PushRule(2), _informed()).finish_times,
    ),
    "pull": (
        lambda: pull_broadcast_samples(GRAPH, START, RUNS, rng=SEED),
        lambda: _pooled(PullRule(), _informed()).finish_times,
    ),
    "push-pull": (
        lambda: push_pull_broadcast_samples(GRAPH, START, RUNS, rng=SEED),
        lambda: _pooled(PushPullRule(), _informed()).finish_times,
    ),
    "random-walk": (
        lambda: random_walk_cover_samples(GRAPH, START, RUNS, rng=SEED, lazy=True),
        lambda: _pooled(WalkRule(1, lazy=True), _walkers(1)).finish_times,
    ),
    "multi-walk": (
        lambda: multi_walk_cover_samples(GRAPH, 3, START, RUNS, rng=SEED),
        lambda: _pooled(WalkRule(3), _walkers(3)).finish_times,
    ),
    "dynamic-cover": (
        lambda: dynamic_cover_time_samples(REWIRING, RUNS, seed=SEED),
        lambda: dynamic_cover_time_samples(REWIRING, RUNS, seed=SEED, workers=2),
    ),
    "dynamic-infection": (
        lambda: dynamic_infection_time_samples(ADVERSARY, RUNS, seed=SEED),
        lambda: dynamic_infection_time_samples(
            ADVERSARY, RUNS, seed=SEED, workers=2
        ),
    ),
    "frozen-cover": (
        lambda: dynamic_cover_time_samples(
            FrozenSequence(GRAPH), RUNS, start=START, seed=SEED, branching=3
        ),
        lambda: cover_time_samples(
            GRAPH, START, RUNS, rng=SEED, branching=3, workers=2
        ),
    ),
    "frozen-infection": (
        lambda: dynamic_infection_time_samples(
            FrozenSequence(GRAPH), RUNS, source=START, seed=SEED, branching=1.5
        ),
        lambda: infection_time_samples(
            GRAPH, START, RUNS, rng=SEED, branching=1.5, workers=2
        ),
    ),
    "seed-sequence": (
        lambda: dynamic_cover_time_samples(
            REWIRING, RUNS, seed=np.random.SeedSequence(SEED)
        ),
        lambda: dynamic_cover_time_samples(REWIRING, RUNS, seed=SEED, workers=2),
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_sampler_draws_the_sharded_stream(name):
    sample, on_two_processes = CASES[name]
    got = sample()
    assert got.dtype == np.int64 and got.shape == (RUNS,)
    assert np.array_equal(got, on_two_processes())


def test_a_reused_seed_sequence_draws_the_same_samples():
    seed = np.random.SeedSequence(5)
    first = cover_time_samples(GRAPH, START, RUNS, rng=seed)
    assert np.array_equal(cover_time_samples(GRAPH, START, RUNS, rng=seed), first)
    assert np.array_equal(cover_time_samples(GRAPH, START, RUNS, rng=5), first)


def test_sequences_on_one_seed_sequence_realise_the_same_topology():
    seed = np.random.SeedSequence(5)
    first, second = RewiringSequence(GRAPH, 10, seed), RewiringSequence(GRAPH, 10, seed)
    later = second.graph_at(3)  # read before the first sequence is
    assert np.array_equal(first.graph_at(3).edge_array(), later.edge_array())
    assert np.array_equal(
        RewiringSequence(GRAPH, 10, 5).graph_at(3).edge_array(), later.edge_array()
    )
