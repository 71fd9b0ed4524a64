"""Completion criteria: unit semantics, property tests, churn behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BipsProcess, CobraProcess
from repro.core.branching import FixedBranching
from repro.dynamics import (
    ChurnSequence,
    FrozenSequence,
    dynamic_infection_time_samples,
)
from repro.engine import (
    AllActive,
    AllVertices,
    CobraRule,
    SpreadEngine,
    TargetHit,
    make_completion,
)
from repro.graphs import Graph, complete_graph, path_graph, random_regular_graph


def _graph_with_isolated(n, present):
    """A path over the ``present`` vertices; the rest have degree zero."""
    edges = list(zip(present[:-1], present[1:]))
    return Graph(n, edges)


class TestMakeCompletion:
    def test_strings(self):
        assert isinstance(make_completion("all-vertices"), AllVertices)
        assert isinstance(make_completion("all-active"), AllActive)

    def test_passthrough(self):
        for crit in (AllActive(), TargetHit(3)):
            assert make_completion(crit) is crit

    def test_target_hit_is_a_criterion_not_a_string(self):
        with pytest.raises(ValueError, match="unknown completion"):
            make_completion("target-hit")

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown completion"):
            make_completion("some-vertices")


@st.composite
def _basis_and_present(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    runs = draw(st.integers(min_value=1, max_value=5))
    basis = np.array(
        draw(
            st.lists(
                st.lists(st.booleans(), min_size=n, max_size=n),
                min_size=runs,
                max_size=runs,
            )
        ),
        dtype=bool,
    )
    present = draw(
        st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True)
    )
    return basis, sorted(present), n


class TestCriteriaProperties:
    @given(_basis_and_present())
    @settings(max_examples=60, deadline=None)
    def test_all_vertices_is_row_all(self, case):
        basis, present, n = case
        g = _graph_with_isolated(n, present)
        done = AllVertices().done(basis, g)
        assert np.array_equal(done, basis.all(axis=1))
        # The remaining fast path agrees with the direct evaluation.
        remaining = n - basis.sum(axis=1)
        assert np.array_equal(AllVertices().done(basis, g, remaining), done)

    @given(_basis_and_present())
    @settings(max_examples=60, deadline=None)
    def test_all_active_ignores_departed(self, case):
        basis, present, n = case
        g = _graph_with_isolated(n, present)
        done = AllActive().done(basis, g)
        expected = np.array(
            [all(row[v] for v in present) for row in basis], dtype=bool
        )
        assert np.array_equal(done, expected)

    @given(_basis_and_present())
    @settings(max_examples=60, deadline=None)
    def test_all_vertices_implies_all_active(self, case):
        basis, present, n = case
        g = _graph_with_isolated(n, present)
        av = AllVertices().done(basis, g)
        aa = AllActive().done(basis, g)
        assert np.all(aa[av])  # all-vertices done => all-active done

    @given(_basis_and_present(), st.integers(0, 11))
    @settings(max_examples=60, deadline=None)
    def test_target_hit_is_column(self, case, target_raw):
        basis, present, n = case
        target = target_raw % n
        g = _graph_with_isolated(n, present)
        done = TargetHit(target).done(basis, g)
        assert np.array_equal(done, basis[:, target])

    def test_all_active_empty_snapshot(self):
        g = Graph(4, [])  # every vertex departed
        basis = np.zeros((3, 4), dtype=bool)
        assert AllActive().done(basis, g).all()


class TestEngineTargetHit:
    def test_finish_equals_hit_time(self):
        g = path_graph(6)
        engine = SpreadEngine(CobraRule(FixedBranching(2)), g, TargetHit(5))
        state = np.zeros((4, 6), dtype=bool)
        state[:, 0] = True
        res = engine.run(state, np.random.default_rng(0), track_hits=True)
        assert res.all_finished
        assert np.array_equal(res.finish_times, res.hit_times[:, 5])
        assert np.all(res.finish_times >= 5)  # distance lower bound

    def test_target_at_start_is_zero(self):
        g = path_graph(4)
        engine = SpreadEngine(CobraRule(FixedBranching(2)), g, TargetHit(2))
        state = np.zeros((2, 4), dtype=bool)
        state[:, 2] = True
        res = engine.run(state, np.random.default_rng(0))
        assert np.array_equal(res.finish_times, [0, 0])

    def test_processes_take_a_criterion(self):
        g = path_graph(6)
        proc = CobraProcess(g)
        res = proc.run(0, np.random.default_rng(0), completion=TargetHit(5))
        assert res.covered and res.cover_time == res.hit_times[5] >= 5
        state = np.zeros((3, g.n), dtype=bool)
        state[:, 0] = True
        batch = SpreadEngine(proc.rule, g, TargetHit(5)).run(
            state, np.random.default_rng(0), track_hits=True
        )
        assert np.array_equal(batch.finish_times, batch.hit_times[:, 5])
        bips = BipsProcess(g, 0).run(
            np.random.default_rng(0), completion=TargetHit(5)
        )
        assert bips.infected_all and bips.final_infected[5]


class TestChurnAwareCompletion:
    """ROADMAP satellite: under churn, all-active is the reachable target."""

    def test_bips_all_active_completes_where_all_vertices_cannot(self):
        base = complete_graph(24)
        # Stationary presence ~ rejoin/(leave+rejoin) = 0.25: all 24
        # present at once is astronomically unlikely, so the
        # all-vertices target is unreachable within the cap while the
        # all-active target completes quickly.
        seq = ChurnSequence(base, leave=0.6, rejoin=0.2, seed=3)
        proc = BipsProcess(seq, 0)
        res_active = proc.run(
            np.random.default_rng(1), max_rounds=400, completion="all-active"
        )
        assert res_active.infected_all
        assert res_active.infection_time >= 0

        seq2 = ChurnSequence(base, leave=0.6, rejoin=0.2, seed=3)
        proc2 = BipsProcess(seq2, 0)
        res_all = proc2.run(
            np.random.default_rng(1), max_rounds=400, completion="all-vertices"
        )
        assert not res_all.infected_all

    def test_cobra_all_active_no_later_than_all_vertices(self):
        base = random_regular_graph(32, 4, rng=7)
        for seed in range(3):
            seq_a = ChurnSequence(base, leave=0.2, rejoin=0.5, seed=9)
            seq_b = ChurnSequence(base, leave=0.2, rejoin=0.5, seed=9)
            t_active = CobraProcess(seq_a).run(
                0, np.random.default_rng(seed), completion="all-active"
            )
            t_all = CobraProcess(seq_b).run(
                0, np.random.default_rng(seed), completion="all-vertices"
            )
            assert t_active.covered and t_all.covered
            # Identical trajectories until the earlier stop: all-active
            # can only finish earlier or at the same round.
            assert t_active.cover_time <= t_all.cover_time

    def test_all_active_equals_all_vertices_on_static(self):
        g = random_regular_graph(24, 3, rng=1)
        frozen_a, frozen_b = FrozenSequence(g), FrozenSequence(g)
        a = CobraProcess(frozen_a).run(
            0, np.random.default_rng(4), completion="all-active"
        )
        b = CobraProcess(frozen_b).run(
            0, np.random.default_rng(4), completion="all-vertices"
        )
        assert a.cover_time == b.cover_time

    def test_batched_all_active_sampler(self):
        base = complete_graph(16)
        seq = ChurnSequence(base, leave=0.5, rejoin=0.25, seed=11)
        times = dynamic_infection_time_samples(
            seq, 6, seed=11, max_rounds=500, completion="all-active"
        )
        assert times.shape == (6,)
        assert np.all(times >= 0)
