"""Kernel dispatch: which step the engine drives for a rule.

:func:`repro.kernels.dispatch.resolve` picks numba's fused stepper for
COBRA and batch BIPS when numba is installed, ``n >= AUTO_NUMBA_MIN_N``
and ``runs >= 1``, and the rule's own ``step`` otherwise; no caller
sets it.  ``numba_backend.AVAILABLE`` is patched here, so the choice is
checked on machines without numba too (the steppers are built, not
run; ``test_numba_parity.py`` runs them).
"""

import dataclasses
import inspect

import numpy as np
import pytest

from repro.core.branching import FixedBranching
from repro.engine import (
    BipsRule,
    CobraRule,
    PullRule,
    PushPullRule,
    PushRule,
    SpreadEngine,
    WalkRule,
)
from repro.graphs import random_regular_graph
from repro.kernels import AUTO_NUMBA_MIN_N, dispatch, numba_backend, resolve
from repro.parallel import ShardTask, run_sharded
from repro.telemetry import MemorySink, configure, get_telemetry

#: Rules numba accelerates, by name.
NUMBA_RULES = {
    "cobra": lambda: CobraRule(FixedBranching(2)),
    "cobra-lazy": lambda: CobraRule(FixedBranching(3), lazy=True),
    "bips": lambda: BipsRule(FixedBranching(2), 0),
}
#: Rules that always run their own step.
NUMPY_RULES = {
    "push": PushRule,
    "pull": PullRule,
    "push-pull": PushPullRule,
    "walk": lambda: WalkRule(2),
}


@pytest.fixture()
def numba_on(monkeypatch):
    """Resolve as on a machine with numba installed."""
    monkeypatch.setattr(numba_backend, "AVAILABLE", True)


class TestResolve:
    @pytest.mark.parametrize("key", sorted(NUMBA_RULES))
    def test_numba_for_cobra_and_bips(self, numba_on, key):
        rule = NUMBA_RULES[key]()
        binding = resolve(rule, n=AUTO_NUMBA_MIN_N, runs=1)
        assert binding.backend == "numba"
        assert binding.step != rule.step

    @pytest.mark.parametrize("key", sorted(NUMPY_RULES))
    def test_other_rules_keep_their_step(self, numba_on, key):
        rule = NUMPY_RULES[key]()
        binding = resolve(rule, n=1 << 20, runs=64)
        assert binding.backend == "numpy"
        assert binding.step == rule.step

    @pytest.mark.parametrize(
        "n,runs", [(AUTO_NUMBA_MIN_N - 1, 8), (AUTO_NUMBA_MIN_N, 0)]
    )
    def test_small_graph_or_no_runs_keeps_the_rule_step(self, numba_on, n, runs):
        rule = CobraRule(FixedBranching(2))
        binding = resolve(rule, n=n, runs=runs)
        assert binding.backend == "numpy"
        assert binding.step == rule.step

    @pytest.mark.parametrize("key", sorted(NUMBA_RULES))
    def test_without_numba_every_rule_keeps_its_step(self, monkeypatch, key):
        monkeypatch.setattr(numba_backend, "AVAILABLE", False)
        rule = NUMBA_RULES[key]()
        assert resolve(rule, n=1 << 20, runs=8).step == rule.step

    def test_threshold_is_read_on_every_call(self, numba_on, monkeypatch):
        monkeypatch.setattr(dispatch, "AUTO_NUMBA_MIN_N", 0)
        assert resolve(CobraRule(FixedBranching(2)), n=8, runs=1).backend == "numba"

    def test_dispatch_counters_increment(self, numba_on):
        tel = get_telemetry()
        before = tel.counters()
        resolve(CobraRule(FixedBranching(2)), n=64, runs=4)
        resolve(CobraRule(FixedBranching(2)), n=AUTO_NUMBA_MIN_N, runs=4)
        after = tel.counters()
        for key, added in (
            ("kernel.dispatch", 2),
            ("kernel.dispatch.numpy", 1),
            ("kernel.dispatch.numba", 1),
        ):
            assert after[key] == before.get(key, 0) + added, key


class TestEngine:
    @pytest.fixture()
    def graph(self):
        return random_regular_graph(128, 4, rng=np.random.default_rng(0))

    def test_default_run_leaves_meta_none(self, graph):
        engine = SpreadEngine(CobraRule(FixedBranching(2)), graph)
        state = np.zeros((4, graph.n), dtype=bool)
        state[:, 0] = True
        assert engine.run(state, np.random.default_rng(0)).meta is None

    @pytest.mark.parametrize("numba", [False, True])
    def test_engine_run_span_names_the_kernel(self, graph, monkeypatch, numba):
        monkeypatch.setattr(numba_backend, "AVAILABLE", numba)
        monkeypatch.setattr(dispatch, "AUTO_NUMBA_MIN_N", 0)
        sink = MemorySink()
        configure(sink)
        try:
            engine = SpreadEngine(CobraRule(FixedBranching(2)), graph)
            state = np.zeros((2, graph.n), dtype=bool)
            state[:, 0] = True
            engine.run(state, np.random.default_rng(0), max_rounds=2)
        finally:
            configure(None)
        (start,) = [
            r for r in sink.records
            if r["kind"] == "span-start" and r["name"] == "engine.run"
        ]
        assert start["fields"]["backend"] == ("numba" if numba else "numpy")

    def test_no_caller_chooses_the_kernel(self):
        for fn in (SpreadEngine.run, SpreadEngine.run_sharded, run_sharded):
            assert "backend" not in inspect.signature(fn).parameters, fn
        assert "backend" not in {f.name for f in dataclasses.fields(ShardTask)}
