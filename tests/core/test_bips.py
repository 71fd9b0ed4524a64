"""BIPS engine tests: step semantics, candidate sets, batch consistency."""

import numpy as np
import pytest

from repro.core import (
    BipsProcess,
    candidate_set,
    fixed_set,
    infection_time,
    infection_time_samples,
    make_policy,
)
from repro.engine import BipsRule, SpreadEngine
from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    star_graph,
)


def _mask(n, members):
    m = np.zeros(n, dtype=bool)
    m[list(members)] = True
    return m


def _step(graph, infected, rng, source):
    """One BIPS round (b = 2): the rule's kernel at ``R = 1``."""
    rule = BipsRule(make_policy(2), source)
    return rule.step(graph, infected[None, :], np.ones(1, dtype=bool), rng)[0]


def _brute_force_sets(graph, infected, source):
    """``B_fix`` and ``C`` straight from their definitions.

    A degree-0 vertex makes no selection and is never infected, so it
    is not in ``B_fix`` even though its empty neighbourhood lies in A.
    """
    n = graph.n
    bfix = np.array(
        [graph.degree(u) > 0 and bool(infected[graph.neighbors(u)].all()) for u in range(n)]
    )
    reach = np.zeros(n, dtype=bool)
    for u in np.flatnonzero(infected):
        reach[graph.neighbors(u)] = True
    reach[source] = True
    return bfix, reach & ~bfix


class TestFixedAndCandidateSets:
    def test_fixed_set_definition(self, path5):
        # A = {0, 1, 2}: N(0) = {1} and N(1) = {0, 2} lie inside A, so
        # B_fix = {0, 1}; N(2) = {1, 3} does not.
        infected = _mask(5, [0, 1, 2])
        bfix = fixed_set(path5, infected)
        assert bfix.tolist() == [True, True, False, False, False]

    def test_fixed_set_all_infected(self, k5):
        infected = _mask(5, range(5))
        assert fixed_set(k5, infected).all()

    def test_candidate_set_definition(self, path5):
        # A = {0, 1, 2}, source 0.  N(A) = {0, 1, 2, 3}; B_fix = {0, 1};
        # C = (N(A) u {0}) \ B_fix = {2, 3}.
        infected = _mask(5, [0, 1, 2])
        c = candidate_set(path5, infected, source=0)
        assert c.tolist() == [False, False, True, True, False]

    def test_candidate_set_never_empty_before_completion(self, rng):
        # Paper (Section 3): C_t is never empty while A != V.
        for g in (path_graph(6), star_graph(6), cycle_graph(7), petersen_graph()):
            infected = _mask(g.n, [0])
            for _ in range(60):
                if infected.all():
                    break
                assert candidate_set(g, infected, 0).sum() >= 1
                infected = _step(g, infected, rng, 0)

    def test_candidate_includes_source_when_not_fixed(self, path5):
        infected = _mask(5, [0])
        c = candidate_set(path5, infected, source=0)
        assert c[0]  # N(0) = {1} not within A, so source is a candidate

    def test_source_in_bfix_case(self):
        # Star with source = centre and all its neighbours infected:
        # the source's whole neighbourhood is in A so source is in B_fix.
        g = star_graph(4)
        infected = _mask(4, [0, 1, 2, 3])
        bfix = fixed_set(g, infected)
        assert bfix[0]

    @pytest.mark.parametrize(
        "edges,n",
        [
            ([(0, 1), (1, 4), (0, 4)], 5),  # isolated vertices 2, 3 in the middle
            ([(0, 1), (1, 2), (0, 2)], 4),  # isolated last vertex
            ([(1, 2), (2, 3)], 5),  # isolated first and last vertices
            ([(0, 1), (1, 2), (2, 3), (3, 4)], 5),  # connected: a path
            ([(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)], 4),  # connected, irregular
        ],
    )
    def test_sets_match_definition_on_every_subset(self, edges, n):
        g = Graph(n, edges)
        for bits in range(1, 2**n):
            infected = np.array([(bits >> u) & 1 for u in range(n)], dtype=bool)
            for source in np.flatnonzero(infected):
                bfix, cand = _brute_force_sets(g, infected, source)
                assert np.array_equal(fixed_set(g, infected), bfix), (bits, source)
                assert np.array_equal(candidate_set(g, infected, source), cand)

    def test_isolated_vertices_are_not_candidates(self):
        g = Graph(5, [(0, 1), (1, 4), (0, 4)])
        c = candidate_set(g, _mask(5, [0]), source=0)
        assert c.tolist() == [True, True, False, False, True]


class TestStepSemantics:
    def test_source_always_infected(self, petersen, rng):
        infected = _mask(10, [4])
        for _ in range(20):
            infected = _step(petersen, infected, rng, 4)
            assert infected[4]

    def test_infection_only_from_neighbors(self, rng):
        # With only the source infected, one round can infect only its
        # neighbours (plus the source itself).
        g = star_graph(8)
        infected = _mask(8, [1])  # the source is a leaf
        nxt = _step(g, infected, rng, 1)
        allowed = {1, 0}  # source + its unique neighbour (the hub)
        assert set(np.nonzero(nxt)[0].tolist()) <= allowed

    def test_b2_vertex_with_infected_neighbors_gets_infected_often(self, rng):
        # Complete graph, all-but-one infected: the remaining vertex has
        # p = 1 - (1/(n-1))^2 chance... with all neighbours infected it
        # is deterministic.
        g = complete_graph(6)
        infected = _mask(6, range(5))
        count = 0
        for _ in range(30):
            nxt = _step(g, infected, rng, 0)
            count += int(nxt[5])
        assert count == 30  # every neighbour infected => always infected

    def test_sis_vertices_can_lose_infection(self, rng):
        # On a path, an infected non-source vertex with no infected
        # neighbours must drop out.
        g = path_graph(5)
        infected = _mask(5, [0, 4])
        nxt = _step(g, infected, rng, 0)
        assert not nxt[4]  # neighbour 3 was not infected

    def test_mask_shape_validated(self, petersen, rng):
        with pytest.raises(ValueError):
            BipsProcess(petersen, 0).run(rng, initial=np.zeros(5, dtype=bool))


class TestRun:
    def test_infects_everything(self, rng):
        res = BipsProcess(complete_graph(10), 0).run(rng)
        assert res.infected_all
        assert res.infection_time >= 1
        assert res.sizes[0] == 1
        assert res.sizes[-1] == 10

    def test_recorded_degrees(self, rng):
        g = star_graph(8)
        res = BipsProcess(g, 0).run(rng, record_degrees=True)
        assert res.degree_sizes.shape[0] == res.rounds_run + 1
        assert res.degree_sizes[0] == g.degree(0)
        assert res.degree_sizes[-1] == g.total_degree()

    def test_recorded_candidates(self, rng):
        res = BipsProcess(cycle_graph(9), 0).run(rng, record_candidates=True)
        assert res.candidate_sizes.shape[0] == res.rounds_run
        assert np.all(res.candidate_sizes >= 1)

    def test_initial_override(self, rng):
        g = path_graph(6)
        initial = _mask(6, [0, 1, 2, 3, 4, 5])
        res = BipsProcess(g, 0).run(rng, initial=initial)
        assert res.infection_time == 0

    def test_initial_must_contain_source(self, rng):
        g = path_graph(4)
        with pytest.raises(ValueError, match="source"):
            BipsProcess(g, 0).run(rng, initial=_mask(4, [1]))

    def test_cap(self, rng):
        res = BipsProcess(cycle_graph(64), 0).run(rng, max_rounds=2)
        assert not res.infected_all
        assert res.infection_time == -1


def _sources(graph, runs, source=0):
    """``runs`` rows infected at ``source`` only."""
    state = np.zeros((runs, graph.n), dtype=bool)
    state[:, source] = True
    return state


class TestBatch:
    def test_batch_times_positive(self, rng):
        g = complete_graph(8)
        res = SpreadEngine(BipsProcess(g, 0).rule, g).run(_sources(g, 16), rng)
        assert res.all_finished
        assert np.all(res.finish_times >= 1)

    def test_run_records_sizes(self, rng):
        g = cycle_graph(9)
        res = SpreadEngine(BipsProcess(g, 0).rule, g).run(
            _sources(g, 6), rng, record_sizes=True
        )
        assert res.sizes is not None
        assert res.sizes.shape[0] == 6
        assert np.all(res.sizes[:, 0] == 1)

    def test_batch_matches_single_distribution(self):
        g = cycle_graph(11)
        single = np.array(
            [
                BipsProcess(g, 0).run(np.random.default_rng(500 + i)).infection_time
                for i in range(150)
            ]
        )
        batch = infection_time_samples(g, 0, 150, rng=9)
        se = np.sqrt(single.var(ddof=1) / 150 + batch.var(ddof=1) / 150)
        assert abs(single.mean() - batch.mean()) < 4 * se


class TestConvenience:
    def test_infection_time_deterministic_seed(self):
        a = infection_time(petersen_graph(), 0, rng=3)
        b = infection_time(petersen_graph(), 0, rng=3)
        assert a == b

    def test_infection_time_cap_raises(self):
        with pytest.raises(RuntimeError, match="did not infect"):
            infection_time(cycle_graph(64), 0, rng=1, max_rounds=2)

    def test_samples_batched(self):
        s = infection_time_samples(complete_graph(8), runs=25, rng=4)
        assert s.shape == (25,)


class TestBranchingVariants:
    def test_b1_is_slower_than_b2(self):
        g = cycle_graph(15)
        t1 = infection_time_samples(g, runs=40, branching=1, rng=1).mean()
        t2 = infection_time_samples(g, runs=40, branching=2, rng=2).mean()
        assert t2 < t1

    def test_bernoulli_between(self):
        g = cycle_graph(15)
        t_half = infection_time_samples(g, runs=60, branching=1.5, rng=3).mean()
        t2 = infection_time_samples(g, runs=60, branching=2, rng=4).mean()
        t1 = infection_time_samples(g, runs=60, branching=1, rng=5).mean()
        assert t2 < t_half < t1

    def test_lazy_works_on_bipartite(self, rng):
        res = BipsProcess(cycle_graph(8), 0, lazy=True).run(rng)
        assert res.infected_all
