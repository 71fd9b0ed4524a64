"""Dynamics microbenchmarks: per-round cost of the evolving-graph layer.

Companions to ``bench_engines.py``: these time one topology transition
per provider (edge-Markovian resampling, rewiring swap round, churn
wave) and one COBRA round on a sequence's snapshot, so regressions in
the sequence substrate are caught independently of the E16 pipeline.
"""

import numpy as np
import pytest

from repro.core import CobraProcess
from repro.dynamics import (
    ChurnSequence,
    EdgeMarkovianSequence,
    FrozenSequence,
    RewiringSequence,
)
from repro.graphs import random_regular_graph

ALIVE = np.ones(1, dtype=bool)


@pytest.fixture(scope="module")
def base():
    return random_regular_graph(1024, 8, rng=1)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(2)


def _advance_round(sequence):
    """Time one fresh transition (monotonically increasing round)."""
    state = {"t": 0}

    def step():
        state["t"] += 1
        return sequence.graph_at(state["t"])

    return step


def test_bench_edge_markovian_round(benchmark, base):
    seq = EdgeMarkovianSequence(base, birth=0.001, death=0.05, seed=3)
    benchmark(_advance_round(seq))


def test_bench_rewiring_round(benchmark, base):
    seq = RewiringSequence(base, swaps_per_round=64, seed=3)
    benchmark(_advance_round(seq))


def test_bench_churn_round(benchmark, base):
    seq = ChurnSequence(base, leave=0.05, rejoin=0.3, seed=3)
    benchmark(_advance_round(seq))


def _half_front(base, rng):
    active = np.zeros((1, base.n), dtype=bool)
    active[0, rng.integers(0, base.n, size=base.n // 2)] = True
    return active


def test_bench_dynamic_cobra_step_frozen(benchmark, base, rng):
    """Snapshot lookup plus one rule round (the snapshot is cached)."""
    seq = FrozenSequence(base)
    rule = CobraProcess(seq).rule
    active = _half_front(base, rng)
    benchmark(lambda: rule.step(seq.graph_at(0), active, ALIVE, rng))


def test_bench_dynamic_cobra_step_rewiring(benchmark, base, rng):
    seq = RewiringSequence(base, swaps_per_round=64, seed=3)
    rule = CobraProcess(seq).rule
    active = _half_front(base, rng)
    state = {"t": 0}

    def step():
        state["t"] += 1
        return rule.step(seq.graph_at(state["t"]), active, ALIVE, rng)

    benchmark(step)


def test_bench_dynamic_cobra_full_cover(benchmark, base):
    seq = RewiringSequence(base, swaps_per_round=32, seed=5)
    proc = CobraProcess(seq)

    def run():
        return proc.run(0, np.random.default_rng(7)).cover_time

    t = benchmark(run)
    assert t >= 3
