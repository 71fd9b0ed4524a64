"""Numba kernel bit-identity: the fused kernels ARE the numpy kernels.

Each case drives the same engine cell twice from the same seed — numba
switched off, then on — and requires every scientific field to match
bit-for-bit, because the fused kernels consume the identical Generator
draw stream (see ``repro/kernels/numba_backend.py``).  The switch is
``numba_backend.AVAILABLE`` plus ``dispatch.AUTO_NUMBA_MIN_N``, which
the engine reads on every run.  Without numba installed ``_njit`` is a
no-op, so every machine checks the kernel logic as plain Python; where
numba is installed the same cases run compiled.
"""

import numpy as np
import pytest

from repro.core.branching import BernoulliBranching, FixedBranching
from repro.engine import BipsRule, CobraRule, SpreadEngine
from repro.graphs import random_regular_graph, star_graph
from repro.kernels import dispatch, numba_backend
from repro.telemetry import get_telemetry


def one_hot(runs: int, n: int) -> np.ndarray:
    mask = np.zeros((runs, n), dtype=bool)
    mask[:, 0] = True
    return mask


@pytest.fixture(scope="module")
def graph():
    return random_regular_graph(96, 4, rng=np.random.default_rng(1))


@pytest.fixture()
def kernels(monkeypatch):
    """``kernels(numba)`` switches the numba kernels off or on; ``min_n``
    is the vertex count from which dispatch picks them (0: always)."""

    def use(numba: bool, min_n: int = 0) -> None:
        monkeypatch.setattr(numba_backend, "AVAILABLE", numba)
        monkeypatch.setattr(dispatch, "AUTO_NUMBA_MIN_N", min_n)

    return use


def numba_dispatches() -> float:
    return get_telemetry().counters().get("kernel.dispatch.numba", 0)


def assert_same_samples(ref, got, *, hits=True):
    assert np.array_equal(ref.finish_times, got.finish_times)
    assert np.array_equal(ref.final_state, got.final_state)
    assert ref.rounds_run == got.rounds_run
    if hits:
        assert np.array_equal(ref.hit_times, got.hit_times)


def assert_bit_identical(engine, state, seed, kernels):
    kernels(numba=False)
    ref = engine.run(state, np.random.default_rng(seed), track_hits=True)
    kernels(numba=True)
    before = numba_dispatches()
    got = engine.run(state, np.random.default_rng(seed), track_hits=True)
    assert numba_dispatches() == before + 1
    assert_same_samples(ref, got)


@pytest.mark.parametrize("lazy", [False, True])
@pytest.mark.parametrize(
    "policy", [FixedBranching(2), FixedBranching(3), BernoulliBranching(0.7)]
)
def test_cobra_bit_identity(graph, kernels, policy, lazy):
    engine = SpreadEngine(CobraRule(policy, lazy=lazy), graph)
    assert_bit_identical(engine, one_hot(12, graph.n), 11, kernels)


@pytest.mark.parametrize("lazy", [False, True])
@pytest.mark.parametrize(
    "policy", [FixedBranching(2), BernoulliBranching(0.6)]
)
def test_bips_batch_bit_identity(graph, kernels, policy, lazy):
    engine = SpreadEngine(
        BipsRule(policy, 0, lazy=lazy), graph, completion="all-active"
    )
    assert_bit_identical(engine, one_hot(12, graph.n), 13, kernels)


def test_cobra_star_graph(kernels):
    """Hub-and-spoke degrees exercise the CSR walk's ragged extremes."""
    g = star_graph(33)
    engine = SpreadEngine(CobraRule(FixedBranching(2)), g)
    assert_bit_identical(engine, one_hot(8, g.n), 17, kernels)


def test_auto_resolves_numba_and_stays_bit_identical(kernels):
    """At the default threshold a large graph gets numba; samples must
    not move.  One run: as plain Python this cell is the slowest."""
    default_min_n = dispatch.AUTO_NUMBA_MIN_N
    g = random_regular_graph(5000, 4, rng=np.random.default_rng(2))
    assert g.n >= default_min_n
    engine = SpreadEngine(CobraRule(FixedBranching(2)), g)
    state = one_hot(1, g.n)
    kernels(numba=False)
    ref = engine.run(state, np.random.default_rng(23))
    kernels(numba=True, min_n=default_min_n)
    before = numba_dispatches()
    got = engine.run(state, np.random.default_rng(23))
    assert numba_dispatches() == before + 1
    assert_same_samples(ref, got, hits=False)


def test_sharded_numba_matches_serial_numpy(graph, kernels):
    """Each shard picks its own kernel; the merged sample does not move."""
    engine = SpreadEngine(CobraRule(FixedBranching(2)), graph)
    state = one_hot(24, graph.n)
    kernels(numba=False)
    ref = engine.run_sharded(state, 41, workers=1, max_shard=8)
    kernels(numba=True)
    before = numba_dispatches()
    got = engine.run_sharded(state, 41, workers=1, max_shard=8)
    assert numba_dispatches() == before + 3
    assert_same_samples(ref, got, hits=False)
