"""Engine microbenchmarks: per-round throughput of the hot paths.

These measure the vectorised kernels the experiment suite is built on —
one COBRA round, one BIPS round (one run and 64 runs), neighbour
sampling, the unified ``(R, n)`` engine's rule kernels, and the
spectral solve — so performance regressions in the substrate are
caught independently of the experiment pipelines.
"""

import numpy as np
import pytest

from repro.baselines import flooding_broadcast_times
from repro.core import BipsProcess, CobraProcess
from repro.core.branching import FixedBranching
from repro.dynamics import RewiringSequence
from repro.engine import (
    CobraRule,
    PullRule,
    PushRule,
    SpreadEngine,
    WalkRule,
)
from repro.graphs import hypercube_graph, random_regular_graph, second_eigenvalue


@pytest.fixture(scope="module")
def expander():
    return random_regular_graph(4096, 8, rng=1)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(2)


def test_bench_neighbor_sampling(benchmark, expander, rng):
    verts = rng.integers(0, expander.n, size=100_000)
    benchmark(expander.sample_neighbors, verts, rng)


def test_bench_cobra_round_large_front(benchmark, expander, rng):
    proc = CobraProcess(expander)
    active = np.zeros((1, expander.n), dtype=bool)
    active[0, rng.integers(0, expander.n, size=expander.n // 2)] = True
    benchmark(proc.rule.step, expander, active, np.ones(1, dtype=bool), rng)


def test_bench_bips_round(benchmark, expander, rng):
    proc = BipsProcess(expander, 0)
    infected = rng.random((1, expander.n)) < 0.3
    infected[0, 0] = True
    benchmark(proc.rule.step, expander, infected, np.ones(1, dtype=bool), rng)


def test_bench_bips_batch_round(benchmark, expander, rng):
    proc = BipsProcess(expander, 0)
    infected = rng.random((64, expander.n)) < 0.3
    infected[:, 0] = True
    benchmark(proc.rule.step, expander, infected, np.ones(64, dtype=bool), rng)


def test_bench_cobra_full_cover(benchmark, rng):
    g = hypercube_graph(10)
    proc = CobraProcess(g, lazy=True)

    def run():
        return proc.run(0, rng).cover_time

    t = benchmark(run)
    assert t >= 10  # log2(1024)


def test_bench_spectral_gap(benchmark):
    g = random_regular_graph(1024, 8, rng=3)
    lam = benchmark(second_eigenvalue, g)
    assert 0.0 < lam < 1.0


# ----------------------------------------------------------------------
# Unified (R, n) engine: one step of each rule kernel, and full batches
# ----------------------------------------------------------------------
def _informed_state(rng, runs, n, fill):
    state = rng.random((runs, n)) < fill
    state[:, 0] = True
    return state


def test_bench_engine_cobra_step(benchmark, expander, rng):
    rule = CobraRule(FixedBranching(2))
    state = _informed_state(rng, 64, expander.n, 0.3)
    alive = np.ones(64, dtype=bool)
    benchmark(rule.step, expander, state, alive, rng)


def test_bench_engine_push_step(benchmark, expander, rng):
    rule = PushRule()
    state = _informed_state(rng, 64, expander.n, 0.3)
    alive = np.ones(64, dtype=bool)
    benchmark(rule.step, expander, state, alive, rng)


def test_bench_engine_pull_step(benchmark, expander, rng):
    rule = PullRule()
    state = _informed_state(rng, 64, expander.n, 0.3)
    alive = np.ones(64, dtype=bool)
    benchmark(rule.step, expander, state, alive, rng)


def test_bench_engine_walk_step(benchmark, expander, rng):
    rule = WalkRule(8)
    state = rng.integers(0, expander.n, size=(64, 8))
    alive = np.ones(64, dtype=bool)
    benchmark(rule.step, expander, state, alive, rng)


def test_bench_engine_flooding_batch(benchmark, expander):
    times = benchmark(flooding_broadcast_times, expander, np.arange(256))
    assert times.max() >= 3


def test_bench_engine_dynamic_batch(benchmark):
    base = random_regular_graph(512, 4, rng=5)
    rule = CobraRule(FixedBranching(2))

    def run():
        seq = RewiringSequence(base, 16, seed=9)
        engine = SpreadEngine(rule, seq)
        state = np.zeros((64, base.n), dtype=bool)
        state[:, 0] = True
        return engine.run(state, np.random.default_rng(1)).all_finished

    assert benchmark(run)
