"""Seed-for-seed regression: engine wrappers vs the pre-engine loops.

Each ``_legacy_*`` function below is the pre-refactor implementation
(PR 1 state) reduced to its essentials.  Every refactored wrapper must
reproduce its legacy counterpart bit-for-bit under identical
generators — the engine kernels are the historical inner loops, so any
drift here means the refactor changed the process.  The set-based
COBRA round (``_legacy_cobra_step``, ``np.unique`` over vertex ids) is
kept only here, as the reference for the rule kernel and for
``per_vertex_load``, which used to inline it.  So is the whole-round
batched COBRA kernel (``_legacy_batch_cobra_step``), the reference for
the blocked round at ``R > 1``, and the batched loop the two
Monte-Carlo hit estimators run shard by shard.

The single intentional exception: the legacy random-walk cover time
drew its uniforms in blocks of 4096 (an implementation detail, not
process semantics); its reference here is the equivalent per-step
``sample_neighbors`` loop, which is what the engine preserves.

The baseline references are compared with the engine at ``R = 1`` on
the same Generator.  The samplers themselves draw from the sharded
stream (``tests/test_one_stream.py``).
"""

import numpy as np
import pytest

from repro.baselines.flooding import flooding_broadcast_time
from repro.core import BipsProcess, CobraProcess, cobra_hit_survival_mc
from repro.core.branching import FixedBranching, make_policy
from repro.core.cobra import default_round_cap
from repro.core.duality import verify_duality_monte_carlo
from repro.core.metrics import per_vertex_load
from repro.dynamics import ChurnSequence, RewiringSequence
from repro.engine import (
    CobraRule,
    PullRule,
    PushPullRule,
    PushRule,
    SpreadEngine,
    WalkRule,
    rules,
)
from repro.graphs import (
    Graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    random_regular_graph,
    star_graph,
)
from repro.graphs.properties import eccentricity
from repro.parallel import plan_shards
from repro.stats.rng import seed_sequence_from, spawn_seeds
from repro.stats.survival import empirical_survival


@pytest.fixture(scope="module")
def expander():
    return random_regular_graph(48, 4, rng=17)


def _legacy_select(graph, actors, rng, lazy):
    targets = graph.sample_neighbors(actors, rng)
    if lazy:
        stay = rng.random(actors.shape[0]) < 0.5
        targets = np.where(stay, actors, targets)
    return targets


# ----------------------------------------------------------------------
# Legacy COBRA
# ----------------------------------------------------------------------
def _legacy_cobra_step(graph, policy, lazy, active, rng):
    """The set-based COBRA round: the sorted unique next active set.

    ``active`` holds the particles' vertex ids; duplicate ids act as
    separate particles, and coalescing is the ``np.unique``.
    """
    counts = policy.draw_counts(active.shape[0], rng)
    actors = np.repeat(active, counts)
    return np.unique(_legacy_select(graph, actors, rng, lazy))


def _legacy_cobra_run(graph, policy, lazy, start, rng, cap):
    active = np.array([start], dtype=np.int64)
    hit = np.full(graph.n, -1, dtype=np.int64)
    hit[active] = 0
    uncovered = graph.n - 1
    t = 0
    while uncovered > 0 and t < cap:
        t += 1
        active = _legacy_cobra_step(graph, policy, lazy, active, rng)
        fresh = active[hit[active] < 0]
        hit[fresh] = t
        uncovered -= fresh.shape[0]
    return (t if uncovered == 0 else -1), hit


def _legacy_cobra_run_batch(graph, policy, lazy, starts, rng, cap):
    runs = starts.shape[0]
    active = np.zeros((runs, graph.n), dtype=bool)
    active[np.arange(runs), starts] = True
    visited = active.copy()
    remaining = np.full(runs, graph.n - 1, dtype=np.int64)
    cover_times = np.full(runs, -1, dtype=np.int64)
    cover_times[remaining == 0] = 0
    next_active = np.zeros_like(active)
    t = 0
    while np.any(cover_times < 0) and t < cap:
        t += 1
        alive = cover_times < 0
        work = active & alive[:, None]
        rows, verts = np.nonzero(work)
        counts = policy.draw_counts(verts.shape[0], rng)
        rows_rep = np.repeat(rows, counts)
        actors = np.repeat(verts, counts)
        targets = _legacy_select(graph, actors, rng, lazy)
        next_active[:] = False
        next_active[rows_rep, targets] = True
        fresh = next_active & ~visited
        visited |= fresh
        remaining -= fresh.sum(axis=1)
        cover_times[alive & (remaining == 0)] = t
        active, next_active = next_active, active
    return cover_times


def _legacy_batch_cobra_step(rule, graph, state, alive, rng):
    """The whole-round ``CobraRule.step``: one 2-D nonzero, one scatter."""
    work = state & alive[:, None]
    if graph.dmin == 0:
        can_move = graph.degrees > 0
        movers = work & can_move[None, :]
        stranded = work & ~can_move[None, :]
    else:
        movers, stranded = work, None
    rows, verts = np.nonzero(movers)
    counts = rule.policy.draw_counts(verts.shape[0], rng)
    rows_rep = np.repeat(rows, counts)
    actors = np.repeat(verts, counts)
    targets = _legacy_select(graph, actors, rng, rule.lazy)
    nxt = np.zeros_like(state)
    nxt[rows_rep, targets] = True
    if stranded is not None:
        nxt |= stranded
    return nxt


#: Regular, star, path, and a snapshot whose vertices 4 and 9 are isolated.
BLOCK_GRAPHS = {
    "rreg-60-4": random_regular_graph(60, 4, rng=1),
    "star-30": star_graph(30),
    "path-25": path_graph(25),
    "churned-12": Graph(
        12, [(0, 1), (1, 2), (2, 3), (5, 6), (6, 7), (7, 8), (8, 5), (10, 11)]
    ),
}


class TestBlockedCobraRound:
    """The blocked round draws and scatters what the whole round did."""

    @pytest.mark.parametrize("block", [2, 6, 64, rules._BLOCK])
    @pytest.mark.parametrize("branching", [2, 3, 1.5])
    @pytest.mark.parametrize("lazy", [False, True])
    def test_matches_whole_round(self, monkeypatch, block, branching, lazy):
        monkeypatch.setattr(rules, "_BLOCK", block)
        rule = CobraRule(make_policy(branching), lazy=lazy)
        for name, graph in BLOCK_GRAPHS.items():
            for runs in (0, 1, 7):
                plain = np.random.default_rng(runs).random((runs, graph.n)) < 0.3
                stranded = plain.copy()
                stranded[:, graph.degrees == 0] = True  # in live and finished rows
                alive = np.ones(runs, dtype=bool)
                if runs == 7:
                    alive[[1, 4]] = False  # finished runs draw nothing
                for label, start in (("plain", plain), ("stranded", stranded)):
                    ref, new = start, start
                    ref_rng, new_rng = np.random.default_rng(9), np.random.default_rng(9)
                    for t in range(4):
                        ref = _legacy_batch_cobra_step(rule, graph, ref, alive, ref_rng)
                        new = rule.step(graph, new, alive, new_rng)
                        case = f"{name}, R={runs}, {label} start, round {t + 1}"
                        assert np.array_equal(new, ref), case
                        assert new_rng.bit_generator.state == ref_rng.bit_generator.state, case

    def test_step_leaves_its_input_alone(self):
        graph = BLOCK_GRAPHS["churned-12"]
        state = np.ones((3, graph.n), dtype=bool)
        for alive in (np.ones(3, dtype=bool), np.array([True, False, True])):
            CobraRule(make_policy(2)).step(graph, state, alive, np.random.default_rng(0))
            assert state.all()

    def test_state_width_must_match_the_graph(self):
        state = np.zeros((2, 6), dtype=bool)
        state[0, 0] = True
        with pytest.raises(ValueError, match="6 wide for 8 vertices"):
            CobraRule(make_policy(2)).step(
                cycle_graph(8), state, np.ones(2, dtype=bool), np.random.default_rng(0)
            )


class TestCobraEquivalence:
    @pytest.mark.parametrize("branching,lazy", [(2, False), (3, True), (1.5, False)])
    def test_run(self, expander, branching, lazy):
        policy = make_policy(branching)
        for seed in range(4):
            t_ref, hit_ref = _legacy_cobra_run(
                expander, policy, lazy, 0, np.random.default_rng(seed), 10_000
            )
            res = CobraProcess(expander, branching, lazy=lazy).run(
                0, np.random.default_rng(seed)
            )
            assert res.cover_time == t_ref
            assert np.array_equal(res.hit_times, hit_ref)

    @pytest.mark.parametrize("branching,lazy", [(2, False), (1.5, True)])
    def test_run_batch(self, expander, branching, lazy):
        policy = make_policy(branching)
        starts = np.arange(9, dtype=np.int64)
        ref = _legacy_cobra_run_batch(
            expander, policy, lazy, starts, np.random.default_rng(5), 10_000
        )
        state = np.zeros((9, expander.n), dtype=bool)
        state[np.arange(9), starts] = True
        rule = CobraProcess(expander, branching, lazy=lazy).rule
        res = SpreadEngine(rule, expander).run(state, np.random.default_rng(5))
        assert np.array_equal(res.finish_times, ref)


# ----------------------------------------------------------------------
# Legacy BIPS
# ----------------------------------------------------------------------
def _legacy_bips_step(graph, policy, lazy, source, infected, rng):
    n = graph.n
    all_vertices = np.arange(n, dtype=np.int64)
    pick = _legacy_select(graph, all_vertices, rng, lazy)
    nxt = infected[pick]
    if isinstance(policy, FixedBranching) and policy.b >= 2:
        for _ in range(policy.b - 1):
            pick = _legacy_select(graph, all_vertices, rng, lazy)
            nxt |= infected[pick]
    else:
        p2 = policy.second_selection_probability()
        if p2 > 0.0:
            second = rng.random(n) < p2
            actors = all_vertices[second]
            pick2 = _legacy_select(graph, actors, rng, lazy)
            nxt[actors] |= infected[pick2]
    nxt[source] = True
    return nxt


def _legacy_bips_run(graph, policy, lazy, source, rng, cap):
    infected = np.zeros(graph.n, dtype=bool)
    infected[source] = True
    sizes = [1]
    t = 0
    while not infected.all() and t < cap:
        t += 1
        infected = _legacy_bips_step(graph, policy, lazy, source, infected, rng)
        sizes.append(int(infected.sum()))
    return (t if infected.all() else -1), np.asarray(sizes, dtype=np.int64)


def _legacy_bips_step_batch(graph, policy, lazy, source, infected, rng):
    """One batched round on an ``(R, n)`` mask, every row drawn."""
    runs, n = infected.shape
    verts_tile = np.tile(np.arange(n, dtype=np.int64), runs)
    pick = _legacy_select(graph, verts_tile, rng, lazy).reshape(runs, n)
    nxt = np.take_along_axis(infected, pick, axis=1)
    if isinstance(policy, FixedBranching):
        for _ in range(policy.b - 1):
            pick = _legacy_select(graph, verts_tile, rng, lazy).reshape(runs, n)
            nxt |= np.take_along_axis(infected, pick, axis=1)
    else:
        p2 = policy.second_selection_probability()
        if p2 > 0.0:
            pick = _legacy_select(graph, verts_tile, rng, lazy).reshape(runs, n)
            second = rng.random((runs, n)) < p2
            nxt |= np.take_along_axis(infected, pick, axis=1) & second
    nxt[:, source] = True
    return nxt


def _legacy_bips_run_batch(graph, policy, lazy, source, runs, rng, cap):
    infected = np.zeros((runs, graph.n), dtype=bool)
    infected[:, source] = True
    times = np.full(runs, -1, dtype=np.int64)
    t = 0
    while np.any(times < 0) and t < cap:
        t += 1
        alive = times < 0
        nxt = _legacy_bips_step_batch(graph, policy, lazy, source, infected, rng)
        infected = np.where(alive[:, None], nxt, infected)
        times[alive & infected.all(axis=1)] = t
    return times


class TestBipsEquivalence:
    @pytest.mark.parametrize("branching,lazy", [(2, False), (3, False)])
    def test_run(self, expander, branching, lazy):
        policy = make_policy(branching)
        for seed in range(4):
            t_ref, sizes_ref = _legacy_bips_run(
                expander, policy, lazy, 0, np.random.default_rng(seed), 10_000
            )
            res = BipsProcess(expander, 0, branching, lazy=lazy).run(
                np.random.default_rng(seed)
            )
            assert res.infection_time == t_ref
            assert np.array_equal(res.sizes, sizes_ref)

    @pytest.mark.parametrize("branching,lazy", [(2, False), (1, False), (1.5, True)])
    def test_run_batch(self, expander, branching, lazy):
        policy = make_policy(branching)
        ref = _legacy_bips_run_batch(
            expander, policy, lazy, 0, 7, np.random.default_rng(9), 10_000
        )
        state = np.zeros((7, expander.n), dtype=bool)
        state[:, 0] = True
        rule = BipsProcess(expander, 0, branching, lazy=lazy).rule
        res = SpreadEngine(rule, expander).run(state, np.random.default_rng(9))
        assert np.array_equal(res.finish_times, ref)


# ----------------------------------------------------------------------
# Legacy gossip baselines (single runs; the samplers are now batched)
# ----------------------------------------------------------------------
def _legacy_push_time(graph, start, rng, fanout, cap):
    informed = np.zeros(graph.n, dtype=bool)
    informed[start] = True
    t = 0
    while int(informed.sum()) < graph.n and t < cap:
        t += 1
        senders = np.repeat(np.nonzero(informed)[0], fanout)
        informed[graph.sample_neighbors(senders, rng)] = True
    return t


def _legacy_pull_time(graph, start, rng, cap):
    informed = np.zeros(graph.n, dtype=bool)
    informed[start] = True
    t = 0
    while int(informed.sum()) < graph.n and t < cap:
        t += 1
        askers = np.nonzero(~informed)[0]
        answers = graph.sample_neighbors(askers, rng)
        informed[askers] |= informed[answers]
    return t


def _legacy_push_pull_time(graph, start, rng, cap):
    informed = np.zeros(graph.n, dtype=bool)
    informed[start] = True
    t = 0
    while int(informed.sum()) < graph.n and t < cap:
        t += 1
        before = informed.copy()
        senders = np.nonzero(before)[0]
        askers = np.nonzero(~before)[0]
        pushed = graph.sample_neighbors(senders, rng)
        answers = graph.sample_neighbors(askers, rng)
        informed[pushed] = True
        informed[askers] |= before[answers]
    return t


def _legacy_multi_walk_time(graph, k, start, rng, lazy, cap):
    positions = np.full(k, start, dtype=np.int64)
    seen = np.zeros(graph.n, dtype=bool)
    seen[positions] = True
    remaining = graph.n - int(seen.sum())
    t = 0
    while remaining > 0 and t < cap:
        t += 1
        nxt = graph.sample_neighbors(positions, rng)
        if lazy:
            stay = rng.random(k) < 0.5
            nxt = np.where(stay, positions, nxt)
        positions = nxt
        seen[positions] = True
        remaining = graph.n - int(seen.sum())
    return t


def _engine_time(rule, graph, start_row, seed):
    """One engine run (``R = 1``) from ``start_row`` on ``default_rng(seed)``."""
    res = SpreadEngine(rule, graph).run(start_row[None, :], np.random.default_rng(seed))
    return int(res.finish_times[0])


def _mask(graph, v):
    row = np.zeros(graph.n, dtype=bool)
    row[v] = True
    return row


class TestBaselineEquivalence:
    def test_push(self, expander):
        for seed, fanout in ((0, 1), (1, 2), (2, 1)):
            ref = _legacy_push_time(expander, 3, np.random.default_rng(seed), fanout, 10_000)
            new = _engine_time(PushRule(fanout), expander, _mask(expander, 3), seed)
            assert new == ref

    def test_pull(self, expander):
        for seed in range(3):
            ref = _legacy_pull_time(expander, 1, np.random.default_rng(seed), 10_000)
            assert _engine_time(PullRule(), expander, _mask(expander, 1), seed) == ref

    def test_push_pull(self, expander):
        for seed in range(3):
            ref = _legacy_push_pull_time(expander, 2, np.random.default_rng(seed), 10_000)
            new = _engine_time(PushPullRule(), expander, _mask(expander, 2), seed)
            assert new == ref

    def test_multi_walk(self, expander):
        for seed, k, lazy in ((0, 4, False), (1, 7, True), (2, 1, False)):
            ref = _legacy_multi_walk_time(
                expander, k, 0, np.random.default_rng(seed), lazy, 100_000
            )
            positions = np.zeros(k, dtype=np.int64)
            assert _engine_time(WalkRule(k, lazy=lazy), expander, positions, seed) == ref

    def test_random_walk_matches_per_step_reference(self):
        # Reference: one sample_neighbors draw per step (the engine's
        # stream; the historical block-drawing loop is not preserved).
        g = petersen_graph()
        for seed in range(3):
            ref = _legacy_multi_walk_time(
                g, 1, 0, np.random.default_rng(seed), False, 100_000
            )
            positions = np.zeros(1, dtype=np.int64)
            assert _engine_time(WalkRule(1), g, positions, seed) == ref

    def test_flooding_equals_eccentricity(self, expander):
        for start in (0, 7, 23):
            assert flooding_broadcast_time(expander, start) == eccentricity(
                expander, start
            )


# ----------------------------------------------------------------------
# Legacy dynamic runners
# ----------------------------------------------------------------------
def _legacy_dynamic_cobra_run(sequence, start, rng, cap):
    """The PR 1 dynamic COBRA loop built on the set-based static round."""
    n = sequence.n
    policy = FixedBranching(2)
    active = np.array([start], dtype=np.int64)
    hit = np.full(n, -1, dtype=np.int64)
    hit[active] = 0
    uncovered = n - 1
    t = 0
    while uncovered > 0 and t < cap:
        graph = sequence.graph_at(t)
        stranded = graph.degrees[active] == 0
        if not stranded.any():
            active = _legacy_cobra_step(graph, policy, False, active, rng)
        else:
            movers = active[~stranded]
            if movers.size == 0:
                active = active.copy()
            else:
                moved = _legacy_cobra_step(graph, policy, False, movers, rng)
                active = np.union1d(moved, active[stranded])
        t += 1
        fresh = active[hit[active] < 0]
        hit[fresh] = t
        uncovered -= fresh.shape[0]
    return (t if uncovered == 0 else -1), hit


def _legacy_dynamic_bips_step(graph, policy, source, infected, rng):
    """The PR 1 isolated-vertex fallback round (b = 2, non-lazy)."""
    if graph.dmin >= 1:
        return _legacy_bips_step(graph, policy, False, source, infected, rng)
    live = np.nonzero(graph.degrees > 0)[0]
    nxt = np.zeros(graph.n, dtype=bool)
    if live.size:
        pick = _legacy_select(graph, live, rng, False)
        nxt[live] = infected[pick]
        for _ in range(policy.b - 1):
            pick = _legacy_select(graph, live, rng, False)
            nxt[live] |= infected[pick]
    nxt[source] = True
    return nxt


def _legacy_dynamic_bips_run(sequence, source, rng, cap):
    n = sequence.n
    policy = FixedBranching(2)
    infected = np.zeros(n, dtype=bool)
    infected[source] = True
    t = 0
    while not infected.all() and t < cap:
        graph = sequence.graph_at(t)
        infected = _legacy_dynamic_bips_step(graph, policy, source, infected, rng)
        t += 1
    return (t if infected.all() else -1), infected


class TestDynamicEquivalence:
    def test_dynamic_cobra_rewiring(self, expander):
        for seed in range(3):
            seq_a = RewiringSequence(expander, 6, seed=31)
            seq_b = RewiringSequence(expander, 6, seed=31)
            t_ref, hit_ref = _legacy_dynamic_cobra_run(
                seq_a, 0, np.random.default_rng(seed), 10_000
            )
            res = CobraProcess(seq_b).run(0, np.random.default_rng(seed))
            assert res.cover_time == t_ref
            assert np.array_equal(res.hit_times, hit_ref)

    def test_dynamic_bips_churn(self, expander):
        # Churn snapshots contain isolated vertices: exercises the
        # degree-restricted kernel path.
        for seed in range(3):
            seq_a = ChurnSequence(expander, 0.15, 0.5, seed=41)
            seq_b = ChurnSequence(expander, 0.15, 0.5, seed=41)
            t_ref, infected_ref = _legacy_dynamic_bips_run(
                seq_a, 0, np.random.default_rng(seed), 500
            )
            res = BipsProcess(seq_b, 0).run(
                np.random.default_rng(seed), max_rounds=500
            )
            assert res.infection_time == t_ref
            # The final masks agree even when the cap is hit: the whole
            # 500-round trajectory is stream-identical.
            assert np.array_equal(res.final_infected, infected_ref)

    def test_dynamic_cycle(self):
        cycle = cycle_graph(21)
        seq_a = RewiringSequence(cycle, 4, seed=5)
        seq_b = RewiringSequence(cycle, 4, seed=5)
        t_ref, _ = _legacy_dynamic_cobra_run(
            seq_a, 3, np.random.default_rng(11), 10_000
        )
        res = CobraProcess(seq_b).run(3, np.random.default_rng(11))
        assert res.cover_time == t_ref


# ----------------------------------------------------------------------
# Legacy Monte-Carlo estimators (hit-time survival, Theorem 1.3)
# ----------------------------------------------------------------------
def _legacy_cobra_hit_batch(graph, policy, lazy, start, target, runs, horizon, rng):
    """First hit rounds (-1: none by ``horizon``), drawn shard by shard.

    The sharded stream's seeding — one root drawn from ``rng``, one
    spawned seed per planned shard — around the whole-round batched
    COBRA loop of :func:`_legacy_cobra_run_batch`, stopped per run at
    its hit of ``target``.
    """
    rule = CobraRule(policy, lazy=lazy)
    sizes = plan_shards(rule, runs, graph.n)
    seeds = spawn_seeds(seed_sequence_from(rng), len(sizes))
    hits = []
    for size, seed in zip(sizes, seeds):
        gen = np.random.default_rng(seed)
        active = np.zeros((size, graph.n), dtype=bool)
        active[:, start] = True
        times = np.where(active[:, target], 0, -1)
        t = 0
        while np.any(times < 0) and t < horizon:
            t += 1
            alive = times < 0
            rows, verts = np.nonzero(active & alive[:, None])
            counts = policy.draw_counts(verts.shape[0], gen)
            targets = _legacy_select(graph, np.repeat(verts, counts), gen, lazy)
            active = np.zeros_like(active)
            active[np.repeat(rows, counts), targets] = True
            times[alive & active[:, target]] = t
        hits.append(times)
    return np.concatenate(hits)


def _legacy_duality_sides(graph, policy, lazy, source, start, horizons, runs, rng):
    """Both sides of the Monte-Carlo duality check, COBRA side first."""
    t_top = int(horizons.max())
    hits = _legacy_cobra_hit_batch(
        graph, policy, lazy, start, source, runs, t_top, rng
    )
    cobra = np.array([np.sum((hits < 0) | (hits > h)) for h in horizons]) / runs
    infected = np.zeros((runs, graph.n), dtype=bool)
    infected[:, source] = True
    misses = {0: 0 if source in start else runs}
    for t in range(1, t_top + 1):
        infected = _legacy_bips_step_batch(graph, policy, lazy, source, infected, rng)
        misses[t] = int(np.sum(~infected[:, start].any(axis=1)))
    bips = np.array([misses[int(h)] for h in horizons]) / runs
    return cobra, bips


class TestEstimatorEquivalence:
    """Both estimators reproduce the batched loop, shard by shard, bit for bit."""

    @pytest.mark.parametrize("branching", [1, 1.5, 2])
    @pytest.mark.parametrize("lazy", [False, True])
    @pytest.mark.parametrize("start", [0, [2, 5], [1, 4, 8]])
    def test_hit_survival_and_duality_match_batched_loop(self, branching, lazy, start):
        # Target 8 lies in the last start set: those runs hit at round 0.
        # 300 runs is more than one shard, so the spawned seeds matter.
        g, target, runs = cycle_graph(9), 8, 300
        policy = make_policy(branching)
        start_arr = np.unique(np.atleast_1d(start)).astype(np.int64)

        hits = _legacy_cobra_hit_batch(
            g, policy, lazy, start_arr, target, runs, 30, np.random.default_rng(3)
        )
        curve = cobra_hit_survival_mc(
            g, start, target, branching=branching, lazy=lazy, runs=runs,
            horizon=30, rng=np.random.default_rng(3),
        )
        ref = empirical_survival(hits, horizon=30)
        assert np.array_equal(curve.probabilities, ref.probabilities)

        horizons = np.array([0, 1, 2, 3, 5, 8, 13, 21])
        cobra_ref, bips_ref = _legacy_duality_sides(
            g, policy, lazy, target, start_arr, horizons, runs,
            np.random.default_rng(4),
        )
        report = verify_duality_monte_carlo(
            g, target, start_arr, branching=branching, lazy=lazy,
            horizons=horizons, runs=runs, rng=np.random.default_rng(4),
        )
        assert np.array_equal(report.cobra_side, cobra_ref)
        assert np.array_equal(report.bips_side, bips_ref)


# ----------------------------------------------------------------------
# Legacy per-vertex transmission load
# ----------------------------------------------------------------------
def _legacy_per_vertex_load(graph, policy, lazy, start, rng):
    """The set-based load loop: selections made by each vertex to coverage."""
    load = np.zeros(graph.n, dtype=np.int64)
    active = np.array([start], dtype=np.int64)
    visited = np.zeros(graph.n, dtype=bool)
    visited[start] = True
    cap, t = default_round_cap(graph), 0
    while not visited.all() and t < cap:
        t += 1
        counts = policy.draw_counts(active.shape[0], rng)
        np.add.at(load, active, counts)
        actors = np.repeat(active, counts)
        active = np.unique(_legacy_select(graph, actors, rng, lazy))
        visited[active] = True
    return load


class TestPerVertexLoadEquivalence:
    @pytest.mark.parametrize("branching", [1, 1.5, 2])
    @pytest.mark.parametrize("lazy", [False, True])
    def test_matches_set_loop(self, expander, branching, lazy):
        policy = make_policy(branching)
        for g, start in ((expander, 5), (cycle_graph(9), 0)):
            for seed in range(3):
                ref = _legacy_per_vertex_load(
                    g, policy, lazy, start, np.random.default_rng(seed)
                )
                load = per_vertex_load(
                    g, start, branching=branching, lazy=lazy,
                    rng=np.random.default_rng(seed),
                )
                assert np.array_equal(load, ref)
