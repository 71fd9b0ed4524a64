"""Property-based tests on the process engines (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BipsProcess, CobraProcess, candidate_set, fixed_set, make_policy
from repro.core.duality import verify_duality_exact
from repro.engine import BipsRule, CobraRule
from repro.graphs import Graph

ALIVE = np.ones(1, dtype=bool)


@st.composite
def connected_graphs(draw, min_n: int = 2, max_n: int = 8):
    """Random connected graphs: a random spanning tree plus extra edges."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    # Random spanning tree via random parent attachment.
    edges = set()
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        edges.add((parent, v))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.lists(st.sampled_from(possible), max_size=10))
    edges.update(extra)
    return Graph(n, sorted(edges))


@given(connected_graphs(), st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=60, deadline=None)
def test_cobra_step_stays_in_neighborhood(g, seed):
    rng = np.random.default_rng(seed)
    rule = CobraRule(make_policy(2))
    state = np.zeros((1, g.n), dtype=bool)
    state[0, seed % g.n] = True
    for _ in range(4):
        nxt = rule.step(g, state, ALIVE, rng)
        assert nxt.any()
        active = np.flatnonzero(state[0]).tolist()
        for v in np.flatnonzero(nxt[0]).tolist():
            assert any(g.has_edge(u, v) for u in active)
        state = nxt


@given(connected_graphs(), st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=50, deadline=None)
def test_cobra_covers_and_hits_consistent(g, seed):
    rng = np.random.default_rng(seed)
    res = CobraProcess(g).run(seed % g.n, rng)
    assert res.covered
    assert int(res.hit_times.max()) == res.cover_time
    assert res.hit_times[seed % g.n] == 0


@given(connected_graphs(), st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=50, deadline=None)
def test_bips_source_persistence_and_completion(g, seed):
    rng = np.random.default_rng(seed)
    source = seed % g.n
    res = BipsProcess(g, source).run(rng)
    assert res.infected_all
    assert res.sizes[0] == 1
    assert np.all(res.sizes >= 1)  # the source is always infected


@given(connected_graphs(), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_fixed_and_candidate_partition(g, seed):
    """B_fix and C are disjoint; C subset of N(A) u {v}; C nonempty pre-completion."""
    rng = np.random.default_rng(seed)
    source = seed % g.n
    infected = np.zeros(g.n, dtype=bool)
    infected[source] = True
    rule = BipsRule(make_policy(2), source)
    for _ in range(3):
        if infected.all():
            break
        bfix = fixed_set(g, infected)
        cand = candidate_set(g, infected, source)
        assert not np.any(bfix & cand)
        assert cand.sum() >= 1
        # Candidates lie in N(A) u {v}.
        in_nbhd = np.zeros(g.n, dtype=bool)
        for u in np.nonzero(infected)[0]:
            in_nbhd[g.neighbors(u)] = True
        in_nbhd[source] = True
        assert np.all(~cand | in_nbhd)
        infected = rule.step(g, infected[None, :], ALIVE, rng)[0]


@given(connected_graphs(max_n=6), st.data())
@settings(max_examples=25, deadline=None)
def test_duality_identity_random_graphs(g, data):
    """Theorem 1.3 holds exactly on random tiny graphs with random (v, C)."""
    source = data.draw(st.integers(min_value=0, max_value=g.n - 1))
    start = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=g.n - 1),
            min_size=1,
            max_size=g.n,
            unique=True,
        )
    )
    report = verify_duality_exact(g, source, start, t_max=8)
    assert report.max_abs_diff < 1e-9
