"""Dynamic COBRA/BIPS runners: static regression, determinism, churn."""

import numpy as np
import pytest

from repro.adversary import AdversarialSequence, make_adversary
from repro.core import (
    BipsProcess,
    CobraProcess,
    cover_time_samples,
    infection_time_samples,
    make_policy,
)
from repro.dynamics import (
    ChurnSequence,
    EdgeMarkovianSequence,
    FrozenSequence,
    RewiringSequence,
    dynamic_cover_time_samples,
    dynamic_infection_time_samples,
)
from repro.engine import BipsRule, CobraRule
from repro.graphs import Graph, cycle_graph, random_regular_graph
from repro.stats import spawn_seeds

ALIVE = np.ones(1, dtype=bool)


@pytest.fixture(scope="module")
def expander():
    return random_regular_graph(48, 4, rng=11)


class TestFrozenMatchesStatic:
    """The rate-0 regression contract: frozen dynamic == static, exactly."""

    def test_cobra_run_exact(self, expander):
        frozen = FrozenSequence(expander)
        for seed in range(6):
            dynamic = CobraProcess(frozen).run(
                0, np.random.default_rng(seed)
            )
            static = CobraProcess(expander).run(0, np.random.default_rng(seed))
            assert dynamic.cover_time == static.cover_time
            assert np.array_equal(dynamic.hit_times, static.hit_times)

    def test_cobra_lazy_and_bernoulli_branching(self, expander):
        frozen = FrozenSequence(expander)
        for branching, lazy in ((2, True), (1.5, False), (3, False)):
            dynamic = CobraProcess(frozen, branching, lazy=lazy).run(
                0, np.random.default_rng(7)
            )
            static = CobraProcess(expander, branching, lazy=lazy).run(
                0, np.random.default_rng(7)
            )
            assert dynamic.cover_time == static.cover_time

    def test_bips_run_exact(self, expander):
        frozen = FrozenSequence(expander)
        for seed in range(6):
            dynamic = BipsProcess(frozen, 0).run(np.random.default_rng(seed))
            static = BipsProcess(expander, 0).run(np.random.default_rng(seed))
            assert dynamic.infection_time == static.infection_time
            assert np.array_equal(dynamic.sizes, static.sizes)

    def test_shared_sequence_samples_equal_static_samplers(self, expander):
        frozen = FrozenSequence(expander)
        cover = dynamic_cover_time_samples(frozen, 12, seed=99)
        assert np.array_equal(cover, cover_time_samples(expander, 0, 12, rng=99))
        infec = dynamic_infection_time_samples(frozen, 12, seed=99, branching=1.5)
        assert np.array_equal(
            infec, infection_time_samples(expander, 0, 12, rng=99, branching=1.5)
        )

    def test_factory_samples_equal_per_run_loop(self, expander):
        # Run i: child i of the seed, split into (topology, process) seeds.
        frozen = FrozenSequence(expander)
        dynamic = dynamic_cover_time_samples(lambda topo: frozen, 12, seed=99)
        proc = CobraProcess(expander)
        static = np.array(
            [
                proc.run(0, np.random.default_rng(child.spawn(2)[1])).cover_time
                for child in spawn_seeds(99, 12)
            ]
        )
        assert np.array_equal(dynamic, static)


def test_factory_refuses_a_fleet():
    # A factory realises one sequence per run, in this process.
    base = random_regular_graph(24, 4, rng=11)

    def factory(topology_seed):
        return AdversarialSequence(
            base, make_adversary("greedy-cut", 4), topology_seed, swaps_per_round=2
        )

    with pytest.raises(ValueError, match="factory"):
        dynamic_infection_time_samples(factory, 40, seed=3, workers=2)


class TestDeterminism:
    def test_same_seeds_identical_cover_samples(self, expander):
        factory = lambda topo: RewiringSequence(expander, 8, seed=topo)  # noqa: E731
        a = dynamic_cover_time_samples(factory, 10, seed=42)
        b = dynamic_cover_time_samples(factory, 10, seed=42)
        assert np.array_equal(a, b)

    def test_same_seeds_identical_infection_samples(self, expander):
        factory = lambda topo: EdgeMarkovianSequence(  # noqa: E731
            expander, 0.02, 0.2, seed=topo
        )
        a = dynamic_infection_time_samples(factory, 6, seed=5)
        b = dynamic_infection_time_samples(factory, 6, seed=5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, expander):
        factory = lambda topo: RewiringSequence(expander, 8, seed=topo)  # noqa: E731
        a = dynamic_cover_time_samples(factory, 10, seed=42)
        b = dynamic_cover_time_samples(factory, 10, seed=43)
        assert not np.array_equal(a, b)

    def test_topology_and_process_streams_separate(self, expander):
        """A shared sequence replays identically for both samplers."""
        shared = RewiringSequence(expander, 8, seed=3)
        a = dynamic_cover_time_samples(shared, 5, seed=1)
        snapshots = [shared.graph_at(t) for t in range(5)]
        b = dynamic_cover_time_samples(shared, 5, seed=1)
        assert np.array_equal(a, b)
        assert all(shared.graph_at(t) == snapshots[t] for t in range(5))


class TestChurnAndIsolation:
    def test_cobra_particles_survive_churn(self):
        base = random_regular_graph(32, 3, rng=2)
        seq = ChurnSequence(base, leave=0.2, rejoin=0.5, seed=5)
        result = CobraProcess(seq).run(0, np.random.default_rng(0))
        assert result.covered
        assert result.cover_time >= 1

    def test_bips_source_persists_under_churn(self):
        base = random_regular_graph(32, 3, rng=2)
        seq = ChurnSequence(base, leave=0.1, rejoin=0.6, seed=5)
        rule = BipsRule(make_policy(2), 0)
        rng = np.random.default_rng(1)
        infected = np.zeros((1, 32), dtype=bool)
        infected[0, 0] = True
        for t in range(40):
            infected = rule.step(seq.graph_at(t), infected, ALIVE, rng)
            assert infected[0, 0]

    def test_isolated_vertices_cannot_be_infected(self):
        # Star minus the hub: all leaves isolated.
        hubless = Graph(4, [(0, 1)], name="pair-plus-isolated")
        rule = BipsRule(make_policy(2), 0)
        infected = np.zeros((1, 4), dtype=bool)
        infected[0, 0] = True
        nxt = rule.step(hubless, infected, ALIVE, np.random.default_rng(0))[0]
        assert not nxt[2] and not nxt[3]

    def test_stranded_cobra_particle_stays_put(self):
        stranded = Graph(3, [(0, 1)], name="stranded")
        active = np.array([[False, False, True]])
        nxt = CobraRule(make_policy(2)).step(
            stranded, active, ALIVE, np.random.default_rng(0)
        )
        assert np.array_equal(nxt, active)

    def test_cap_reported_not_raised_on_run(self):
        stranded = Graph(3, [(0, 1)], name="stranded")
        result = CobraProcess(FrozenSequence(stranded)).run(
            0, np.random.default_rng(0), max_rounds=5
        )
        assert not result.covered
        assert result.cover_time == -1

    def test_sampler_raises_on_cap(self):
        stranded = Graph(3, [(0, 1)], name="stranded")
        with pytest.raises(RuntimeError, match="round cap"):
            dynamic_cover_time_samples(
                FrozenSequence(stranded), 2, seed=0, max_rounds=5
            )


class TestSequenceSkipsConnectivity:
    """A static graph must be connected; a sequence's snapshots need not be."""

    def test_cobra_sequence_allows_disconnected(self):
        disconnected = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            CobraProcess(disconnected)
        res = CobraProcess(FrozenSequence(disconnected)).run(
            0, np.random.default_rng(0), max_rounds=5, record=True
        )
        assert not res.covered
        assert res.visited_counts[-1] == 2  # {0, 1}: the other edge is unreachable

    def test_bips_sequence_allows_disconnected(self):
        disconnected = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            BipsProcess(disconnected, 0)
        res = BipsProcess(FrozenSequence(disconnected), 0).run(
            np.random.default_rng(0), max_rounds=5
        )
        assert not res.infected_all
        assert res.final_infected[0] and not res.final_infected[2:].any()

    def test_bips_candidates_recorded_on_churn(self):
        # From round 1 on, about 25 of the 32 vertices are churned out,
        # the last one included: its CSR row is empty.
        seq = ChurnSequence(random_regular_graph(32, 3, rng=2), 0.3, 0.5, seed=5)
        res = BipsProcess(seq, 0).run(
            np.random.default_rng(1), max_rounds=30, record_candidates=True
        )
        assert res.candidate_sizes.shape == (res.rounds_run,)
        # Round 0 is the full cubic graph: the source and its 3 neighbours.
        assert res.candidate_sizes[0] == 4
        assert np.all(res.candidate_sizes <= res.sizes[:-1] * 4)


class TestRewiredCycleSpeedup:
    def test_scattered_frontier_covers_faster(self):
        cycle = cycle_graph(65)
        static = dynamic_cover_time_samples(FrozenSequence(cycle), 12, seed=1)
        factory = lambda topo: RewiringSequence(cycle, 32, seed=topo)  # noqa: E731
        rewired = dynamic_cover_time_samples(factory, 12, seed=1)
        assert rewired.mean() < static.mean()
