"""One differential oracle: every execution tier returns the reference result.

A :class:`Case` is one engine invocation (graph, rule, topology,
completion, run count, shard cap, round cap, recording flags, seed).
Every test runs the *reference*, ``run_sharded(workers=1)``; the
*definitional* tier, each ``plan_shards`` shard through
``SpreadEngine.run`` on its ``spawn_seeds`` generator, merged by
``merge_shard_results`` (the one tier outside ``run_sharded``); and one
tier more: the pool, tracing, numba's kernels, the result cache, or a
broker fleet under a client fault plan.  Each must equal the reference
on every field but ``meta`` (``tiers.assert_same_result``).  The exact
leg checks the reference against :mod:`repro.core.exact`.

Each tier has a test over its pinned cases (``test_pool_case[static-cobra]``)
and a derandomized drawn test that calls it (``test_pool_tier``), so a
failing draw replays as ``PYTHONPATH=src:tests python -c "import test_oracle
as o; o.test_pool_case(o.Case(rule='bips', runs=9), 2)"``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import AdversarialSequence, make_adversary
from repro.core import (
    bips_exact,
    cobra_cover_survival_exact,
    cobra_hit_survival_exact,
    cover_time_samples,
    exact_cover_expectation,
    infection_time_samples,
    make_policy,
    random_walk_hitting_time,
    verify_duality_exact,
)
from repro.distributed import Broker, ResultCache, broker_status
from repro.dynamics import (
    ChurnSequence,
    EdgeMarkovianSequence,
    FrozenSequence,
    RewiringSequence,
    dynamic_infection_time_samples,
)
from repro.engine import (
    BipsRule,
    CobraRule,
    PullRule,
    PushPullRule,
    PushRule,
    SpreadEngine,
    TargetHit,
    WalkRule,
)
from repro.graphs import cycle_graph, path_graph, petersen_graph, random_regular_graph, star_graph
from repro.kernels import dispatch, numba_backend
from repro.parallel import merge_shard_results, plan_shards
from repro.resilience import FaultPlan, FaultRule, fault_injection
from repro.stats import spawn_seeds
from repro.telemetry import MemorySink, configure, get_telemetry
from tiers import FAST_RETRY, assert_same_result, reap, spawn_workers

#: Settings of every drawn test: the same examples on every run.
ORACLE = settings(derandomize=True, deadline=None, max_examples=4)


# ----------------------------------------------------------------------
# The case
# ----------------------------------------------------------------------
GRAPHS = {
    "rreg-24": lambda: random_regular_graph(24, 4, rng=11),
    "petersen": petersen_graph,
    "cycle-9": lambda: cycle_graph(9),
    "star-7": lambda: star_graph(7),  # the bipartite one
    # Exact-leg graphs: small enough for repro.core.exact.
    "path-4": lambda: path_graph(4),
    "path-5": lambda: path_graph(5),
    "star-5": lambda: star_graph(5),
    "cycle-6": lambda: cycle_graph(6),
}

ADVERSARIES = ("greedy-cut", "isolating-churn", "moving-source", "adaptive-rri")
TOPOLOGIES = ("static", "frozen", "rewiring", "edge-markovian", "churn") + ADVERSARIES
#: Topologies with degree-0 vertices, on which a run may never finish.
STALLING = ("churn", "isolating-churn")
#: Each recording flag and the result field it fills.
RECORDED = {"track_hits": "hit_times", "record_sizes": "sizes", "record_visited": "visited_counts"}


#: Each rule, from a case's ``b`` and lazy flag.
RULES = {
    "cobra": lambda b, lazy: CobraRule(make_policy(b), lazy=lazy),
    "bips": lambda b, lazy: BipsRule(make_policy(b), 0, lazy=lazy),
    "push": lambda b, lazy: PushRule(int(b)),
    "pull": lambda b, lazy: PullRule(),
    "push-pull": lambda b, lazy: PushPullRule(),
    "walk": lambda b, lazy: WalkRule(int(b), lazy=lazy),
}
#: Each non-adversarial topology kind, over a graph.
SEQUENCES = {
    "static": lambda graph: graph,
    "frozen": FrozenSequence,
    "rewiring": lambda graph: RewiringSequence(graph, 2, seed=77),
    "edge-markovian": lambda graph: EdgeMarkovianSequence(graph, 0.05, 0.2, seed=77),
    "churn": lambda graph: ChurnSequence(graph, 0.1, 0.5, seed=77),
}


@functools.cache
def graph_named(name: str):
    """The graph behind a case's ``graph`` name, built once."""
    return GRAPHS[name]()


@dataclasses.dataclass(frozen=True)
class Case:
    """One engine invocation, built anew by every tier that runs it.

    ``b`` is the branching factor of COBRA and BIPS (1.5 is one
    selection plus a second with probability 0.5), the fanout of push,
    and the walker count of a walk.  ``completion`` is
    ``"all-vertices"``, ``"all-active"`` or a target vertex.  Every run
    starts at vertex 0, which is also the BIPS source.
    """

    graph: str = "rreg-24"
    rule: str = "cobra"
    b: float = 2
    lazy: bool = False
    int32: bool = False
    topology: str = "static"
    budget: int = 4
    completion: object = "all-vertices"
    runs: int = 40
    max_shard: int = 8
    max_rounds: int | None = None
    track_hits: bool = True
    record_sizes: bool = False
    record_visited: bool = False
    seed: int = 123

    def make_rule(self):
        """The spread rule."""
        return RULES[self.rule](self.b, self.lazy)

    def make_topology(self):
        """A fresh topology source: the graph, or a sequence over it."""
        graph, kind = graph_named(self.graph), self.topology
        if kind in SEQUENCES:
            return SEQUENCES[kind](graph)
        return AdversarialSequence(graph, make_adversary(kind, self.budget), 77, swaps_per_round=2)

    def engine(self) -> SpreadEngine:
        """A fresh engine on a fresh topology."""
        completion = self.completion
        if not isinstance(completion, str):
            completion = TargetHit(completion)
        return SpreadEngine(self.make_rule(), self.make_topology(), completion)

    def state(self) -> np.ndarray:
        """The initial state: every run at vertex 0."""
        if self.rule == "walk":
            dtype = np.int32 if self.int32 else np.int64
            return np.zeros((self.runs, int(self.b)), dtype=dtype)
        state = np.zeros((self.runs, graph_named(self.graph).n), dtype=bool)
        state[:, 0] = True
        return state

    @property
    def flags(self) -> dict:
        """The round cap and the recording flags, as engine keywords."""
        return {"max_rounds": self.max_rounds, **{f: getattr(self, f) for f in RECORDED}}

    def run_sharded(self, workers: int = 1, **kwargs):
        """``run_sharded`` of this case (the reference at ``workers=1``)."""
        return self.engine().run_sharded(
            self.state(), self.seed, workers=workers, max_shard=self.max_shard,
            **self.flags, **kwargs,
        )

    def shard_sizes(self) -> list:
        """The shard plan."""
        n = graph_named(self.graph).n
        return plan_shards(self.make_rule(), self.runs, n, max_shard=self.max_shard)


@st.composite
def cases(draw, *, rules=("cobra", "bips", "push", "pull", "push-pull", "walk"),
          min_runs=0, caps=(None, 4, 16)):
    """A valid :class:`Case`, built so that nothing needs filtering.

    ``moving-source`` moves a BIPS source, so only BIPS draws it.  A
    round cap is drawn always where a run may never finish (degree-0
    vertices) or would take hundreds of rounds that each rebuild a
    snapshot (a walk, or COBRA or BIPS at ``b = 1``, on a sequence), and
    one-run shards come at most eight to a case, each replaying its own
    sequence.
    """
    rule = draw(st.sampled_from(rules))
    graph = draw(st.sampled_from(("rreg-24", "petersen", "cycle-9", "star-7")))
    b, lazy, int32 = 2, False, False
    if rule in ("cobra", "bips"):
        b = draw(st.sampled_from((1, 2, 3, 1.5)))
        # The star is bipartite: COBRA and BIPS run lazy there, as
        # `repro cover` runs them.
        lazy = graph == "star-7" or draw(st.booleans())
    elif rule == "push":
        b = draw(st.sampled_from((1, 2)))
    elif rule == "walk":
        b = draw(st.sampled_from((1, 3)))
        lazy, int32 = draw(st.booleans()), draw(st.booleans())
    topology = draw(st.sampled_from(
        TOPOLOGIES if rule == "bips" else tuple(t for t in TOPOLOGIES if t != "moving-source")
    ))
    slow = rule == "walk" or (rule in ("cobra", "bips") and b == 1)
    capped = topology in STALLING or (slow and topology not in ("static", "frozen"))
    max_shard = draw(st.sampled_from((1, 4, 8)))
    return Case(
        graph=graph, rule=rule, b=b, lazy=lazy, int32=int32, topology=topology,
        budget=draw(st.sampled_from((0, 4))),
        completion=draw(st.one_of(
            st.sampled_from(("all-vertices", "all-active")),
            st.integers(1, graph_named(graph).n - 1),
        )),
        runs=draw(st.integers(min_runs, 8 if max_shard == 1 else 40)),
        max_shard=max_shard,
        max_rounds=draw(st.sampled_from(tuple(c for c in caps if c) if capped else caps)),
        seed=draw(st.integers(0, 2**16)),
        **{f: draw(st.booleans()) for f in RECORDED},
    )


# ----------------------------------------------------------------------
# The reference and the definitional tier
# ----------------------------------------------------------------------
def run_definitional(case: Case):
    """Shard by shard through ``SpreadEngine.run``, recording every series."""
    engine = case.engine()
    topology, state = engine.topology, case.state()
    record = dict(max_rounds=case.max_rounds, **{f: True for f in RECORDED})
    sizes = case.shard_sizes()
    if not sizes:
        return engine.run(state, np.random.default_rng(case.seed), **record)
    shards, lo = [], 0
    for size, seed in zip(sizes, spawn_seeds(case.seed, len(sizes))):
        if getattr(topology, "observes_process", False):
            engine = SpreadEngine(engine.rule, topology.fresh_replay(), engine.completion)
        shard = engine.run(state[lo : lo + size], np.random.default_rng(seed), **record)
        assert shard.meta is None
        shards.append(shard)
        lo += size
    return merge_shard_results(shards)


def check_reference(case: Case):
    """The reference, checked against the definitional tier; returned.

    The definitional run records every series, so equality also shows
    that recording flags never change what a run does.
    """
    reference = case.run_sharded()
    definitional = run_definitional(case)
    assert definitional.meta is None
    unasked = {field: None for flag, field in RECORDED.items() if not getattr(case, flag)}
    assert_same_result(dataclasses.replace(definitional, **unasked), reference)
    if case.runs:
        # Observability only: one entry per shard, never compared.
        shards = reference.meta["shards"]
        assert len(shards) == len(case.shard_sizes())
        assert reference.meta["skew"] >= 1.0
        assert reference.meta["max_rss"] > 0 and all(s["max_rss"] > 0 for s in shards)
    else:
        assert reference.meta is None
    if case.record_visited:
        # Shards are padded with their last column: a visited count
        # never falls, and a finished all-vertices run ends at n.
        visited = reference.visited_counts
        assert np.all(np.diff(visited, axis=1) >= 0)
        if case.completion == "all-vertices":
            done = reference.finish_times >= 0
            assert np.all(visited[done, -1] == graph_named(case.graph).n)
    return reference


# ----------------------------------------------------------------------
# The tiers: each a test over its pinned cases, which a drawn test calls
# ----------------------------------------------------------------------
def counter(name: str) -> float:
    """A telemetry counter of this process's registry."""
    return get_telemetry().counters().get(name, 0)


@contextlib.contextmanager
def traced():
    """Trace every round into a memory sink for the block; yields the sink."""
    sink = MemorySink()
    configure(sink)
    try:
        yield sink
    finally:
        configure(None)


@contextlib.contextmanager
def numba_kernels(min_n: int = 0):
    """numba's kernels from ``min_n`` vertices on; without numba, as plain Python."""
    with mock.patch.object(numba_backend, "AVAILABLE", True), \
            mock.patch.object(dispatch, "AUTO_NUMBA_MIN_N", min_n):
        yield


RECORD_ALL = {flag: True for flag in RECORDED}
RECORD_NONE = {flag: False for flag in RECORDED}
RECORD_SERIES = {**RECORD_ALL, "track_hits": False}
MOVING_SOURCE = Case(rule="bips", topology="moving-source", budget=6, runs=8, max_shard=4, seed=5)
#: The rule and topology grid of the earlier worker-count parity tests.
GRID = {f"{t}-{r}": Case(rule=r, topology=t) for t in ("static", "rewiring")
        for r in ("cobra", "bips", "walk")}

REFERENCE_CASES = {
    "meta-per-shard": Case(runs=24, seed=9, **RECORD_NONE),
    "greedy-cut-fresh-replays": Case(topology="greedy-cut", seed=3, **RECORD_NONE),
    # The definitional run records everything and the reference nothing:
    # an adversary must see the same runs.
    **{f"recording-{kind}-{rule}-{end}": Case(
        rule=rule, topology=kind, budget=8, completion=end, runs=6, max_shard=2, max_rounds=64,
        **RECORD_NONE,
    ) for kind in ADVERSARIES for rule in ("cobra", "bips")
       for end in ("all-vertices", "all-active")},
}


@pytest.mark.parametrize("case", REFERENCE_CASES.values(), ids=REFERENCE_CASES)
def test_reference_case(case):
    check_reference(case)


POOL_CASES = {
    **{name: (case, 3) for name, case in GRID.items()},
    **{f"recorded-{rule}": (Case(rule=rule, seed=9, **RECORD_ALL), 2)
       for rule in ("cobra", "bips", "walk")},
    # A walk's int32 final state comes back by value.
    "recorded-walk-int32": (Case(rule="walk", int32=True, seed=9, **RECORD_ALL), 2),
    "padded-trajectories": (Case(seed=5, **RECORD_SERIES), 3),
    "zero-runs": (Case(runs=0, **RECORD_ALL), 2),
    "fewer-shards-than-workers": (Case(max_shard=20), 3),
    **{kind: (Case(topology=kind, max_rounds=16 if kind in STALLING else None), 2)
       for kind in ("greedy-cut", "isolating-churn", "adaptive-rri", "edge-markovian")},
    "moving-source": (MOVING_SOURCE, 2),
    # Two shards of the 256-run cap, as the dynamic samplers plan them.
    **{f"rewiring-{rule}-300": (
        Case(rule=rule, topology="rewiring", runs=300, max_shard=256, seed=3), 2
    ) for rule in ("cobra", "bips")},
    **{rule: (Case(rule=rule), 2) for rule in ("push", "pull", "push-pull")},
    "walk-lazy-frozen": (Case(rule="walk", b=3, lazy=True, topology="frozen"), 2),
    "churn-bips": (Case(rule="bips", topology="churn", max_rounds=16), 2),
    "target-hit": (Case(completion=5), 2),
    "all-active-bips": (Case(rule="bips", completion="all-active"), 2),
    "capped": (Case(max_rounds=4, **RECORD_ALL), 2),
}


@pytest.mark.parametrize("case, workers", POOL_CASES.values(), ids=POOL_CASES)
def test_pool_case(case, workers):
    """The local pool of ``workers`` processes."""
    reference = check_reference(case)
    assert_same_result(case.run_sharded(workers=workers), reference)


@ORACLE
@given(case=cases(), workers=st.sampled_from((2, 3)))
def test_pool_tier(case, workers):
    test_pool_case(case, workers)


TRACED_CASES = {
    "static": Case(runs=24, **RECORD_ALL),
    "rewiring": Case(runs=24, topology="rewiring", **RECORD_ALL),
    "sharded": Case(runs=24),
}


@pytest.mark.parametrize("case", TRACED_CASES.values(), ids=TRACED_CASES)
def test_traced_case(case):
    """The serial and the pool run, traced (pool shards trace in their workers)."""
    reference = check_reference(case)
    spans = {"span-start", "span-end"}
    for workers, kinds in ((1, spans | {"point"}), (2, spans)):
        with traced() as sink:
            got = case.run_sharded(workers=workers)
        assert_same_result(got, reference)
        assert kinds <= {r["kind"] for r in sink.records}


@ORACLE
@given(case=cases(min_runs=1))
def test_traced_tier(case):
    test_traced_case(case)


NUMBA_CASES = {
    # BIPS runs until every vertex is active; at b = 1 that takes ~150
    # rounds, which a cap keeps cheap as plain Python.
    **{f"{rule}-b{b}{lazy}": Case(
        rule=rule, b=b, lazy=bool(lazy), runs=12, max_shard=4, seed=11,
        completion="all-active" if rule == "bips" else "all-vertices",
        max_rounds=16 if b == 1 else None,
    ) for rule, bs in (("cobra", (2, 3, 1.5)), ("bips", (1, 2, 1.5))) for b in bs
       for lazy in ("", "-lazy")},
    "cobra-star-7": Case(graph="star-7", runs=8, seed=17),
}


@pytest.mark.parametrize("case", NUMBA_CASES.values(), ids=NUMBA_CASES)
def test_numba_case(case):
    """numba's fused kernels, on ``engine.run`` and on the reference."""
    reference = check_reference(case)
    plain = case.engine().run(case.state(), np.random.default_rng(case.seed), **case.flags)
    before = counter("kernel.dispatch.numba")
    with numba_kernels():
        fused = case.engine().run(case.state(), np.random.default_rng(case.seed), **case.flags)
        assert counter("kernel.dispatch.numba") == before + (case.runs > 0)
        sharded = case.run_sharded()
    assert counter("kernel.dispatch.numba") == before + (case.runs > 0) + len(case.shard_sizes())
    assert_same_result(fused, plain)
    assert_same_result(sharded, reference)


@ORACLE
@given(case=cases(rules=("cobra", "bips"), caps=(4, 16)))
def test_numba_tier(case):
    test_numba_case(case)


def test_auto_resolves_numba_and_stays_bit_identical():
    # At the default threshold a large graph gets numba, and no sample
    # moves.  One run: as plain Python this is the slowest cell.
    graph = random_regular_graph(5000, 4, rng=np.random.default_rng(2))
    assert graph.n >= dispatch.AUTO_NUMBA_MIN_N
    engine = SpreadEngine(CobraRule(make_policy(2)), graph)
    state = np.zeros((1, graph.n), dtype=bool)
    state[:, 0] = True
    with mock.patch.object(numba_backend, "AVAILABLE", False):
        plain = engine.run(state, np.random.default_rng(23))
    before = counter("kernel.dispatch.numba")
    with numba_kernels(dispatch.AUTO_NUMBA_MIN_N):
        fused = engine.run(state, np.random.default_rng(23))
    assert counter("kernel.dispatch.numba") == before + 1
    assert_same_result(fused, plain)


CACHE_CASES = {
    "pool": (Case(runs=12, max_shard=4, seed=99), 2),
    "rewiring-bips": (Case(rule="bips", topology="rewiring"), 1),
    "greedy-cut": (Case(topology="greedy-cut", **RECORD_ALL), 2),
}


@pytest.mark.parametrize("case, workers", CACHE_CASES.values(), ids=CACHE_CASES)
def test_cache_case(case, workers):
    """A cold run through the result cache, then a warm one served from it."""
    reference = check_reference(case)
    with tempfile.TemporaryDirectory(prefix="oracle-cache-") as root:
        store = ResultCache(root, max_bytes=None)
        cold = case.run_sharded(workers=workers, cache=store)
        hits = counter("client.cache.hits")
        warm = case.run_sharded(cache=store)
        assert counter("client.cache.hits") == hits + len(case.shard_sizes())
    assert_same_result(cold, reference)
    assert_same_result(warm, reference)


@ORACLE
@given(case=cases(), workers=st.sampled_from((1, 2)))
def test_cache_tier(case, workers):
    test_cache_case(case, workers)


def _site_plan(seed: int, kind: str, site: str, rate=1.0, limit=1) -> FaultPlan:
    """A plan whose one rule, the ``FaultPlan`` field ``kind``, fires at ``site`` only."""
    return FaultPlan(seed=seed, **{kind: FaultRule(rate=rate, limit=limit, sites=(site,))})


#: Client-side fault plans a broker case may run under.
CLIENT_FAULTS = {
    "none": lambda: None,
    "drop": lambda: _site_plan(1, "drop", "client.send"),
    "corrupt": lambda: _site_plan(1, "corrupt", "client.send"),
    "refuse": lambda: _site_plan(1, "refuse_connections", "client.connect", limit=2),
}


@pytest.fixture(scope="module")
def fleet():
    """A broker serving metrics, with two forked workers exporting theirs."""
    with Broker(lease_timeout=15.0) as broker:
        server = broker.serve_metrics(0)
        procs = spawn_workers(broker.address, metrics_port=0)
        try:
            yield broker.address
        finally:
            reap(procs)
            server.stop()


#: ``(case, client fault, traced)``.
BROKER_CASES = {
    **{name: (case, "none", False) for name, case in GRID.items()},
    "recorded": (Case(seed=5, **RECORD_SERIES), "none", False),
    "traced": (Case(runs=24), "none", True),
    "recorded-traced": (Case(**RECORD_ALL), "none", True),
    "greedy-cut": (Case(topology="greedy-cut"), "none", False),
    "moving-source": (MOVING_SOURCE, "none", False),
    "one-shard": (Case(seed=9, max_shard=256), "none", False),
    **{f"client-{fault}": (Case(rule="bips", runs=16, max_shard=4), fault, False)
       for fault in ("drop", "corrupt", "refuse")},
    "push-pull-edge-markovian": (Case(rule="push-pull", topology="edge-markovian"), "none", False),
    "churn-target-hit": (Case(topology="churn", completion=5, max_rounds=16), "none", False),
    "walk-int32": (Case(rule="walk", int32=True), "none", False),
}


@pytest.mark.parametrize("case, fault, trace", BROKER_CASES.values(), ids=BROKER_CASES)
def test_broker_case(fleet, case, fault, trace):
    """The broker fleet, under a client-side fault plan."""
    reference = check_reference(case)
    plan = CLIENT_FAULTS[fault]()
    with traced() if trace else contextlib.nullcontext() as sink, fault_injection(plan):
        got = case.run_sharded(endpoint=fleet, cache=None, retry=FAST_RETRY)
    assert_same_result(got, reference)
    assert got.meta is None  # wire results carry no shard timings
    if trace and case.runs:
        assert {"span-start", "span-end"} <= {r["kind"] for r in sink.records}


@ORACLE
@given(case=cases(), fault=st.sampled_from(tuple(CLIENT_FAULTS)), trace=st.booleans())
def test_broker_tier(fleet, case, fault, trace):
    test_broker_case(fleet, case, fault, trace)


def test_samplers_reach_the_broker(fleet, monkeypatch):
    # Each sampler hands its endpoint on: the broker takes a job, and
    # the samples are the ones the default in-process path draws.
    monkeypatch.setenv("REPRO_CACHE_DIR", "off")
    graph = graph_named("rreg-24")
    for sampler, topology, seed in (
        (cover_time_samples, graph, {"rng": 9}),
        (infection_time_samples, graph, {"rng": 9}),
        (dynamic_infection_time_samples, RewiringSequence(graph, 2, seed=3), {"seed": 3}),
    ):
        want = sampler(topology, runs=40, **seed)
        submits = broker_status(fleet)["metrics"]["submits"]
        assert np.array_equal(sampler(topology, runs=40, endpoint=fleet, **seed), want)
        assert broker_status(fleet)["metrics"]["submits"] == submits + 1, sampler.__name__


# ----------------------------------------------------------------------
# Fault classes: each on a fleet of its own
# ----------------------------------------------------------------------
#: Per fault class, the client's plan and each of the two workers' plans
#: (None: no plan), all derived from one seed.
FAULT_CLASSES = {
    "frame-drop": lambda seed: (
        _site_plan(seed, "drop", "client.send"),
        [_site_plan(seed + 1, "drop", "worker.send", rate=0.5, limit=3), None],
    ),
    "frame-corrupt": lambda seed: (
        _site_plan(seed, "corrupt", "client.send"),
        [_site_plan(seed + 1, "corrupt", "worker.send", rate=0.5, limit=2), None],
    ),
    "worker-kill": lambda seed: (None, [FaultPlan(seed=seed, kill_worker_after_leases=1), None]),
    "heartbeat-stall": lambda seed: (
        None, [FaultPlan(seed=seed, stall_heartbeats=FaultRule(rate=1.0, limit=8))] * 2,
    ),
    "connection-refusal": lambda seed: (
        _site_plan(seed, "refuse_connections", "client.connect", limit=2), [None, None],
    ),
}

#: Four shards: enough for requeues and kills to reorder the work.
FAULT_CASE = Case(runs=16, max_shard=4)


@pytest.mark.parametrize("fault", FAULT_CLASSES)
def test_fault_class(fault):
    reference = check_reference(FAULT_CASE)
    client_plan, worker_plans = FAULT_CLASSES[fault](0)
    # A local run reaches no injection site: a plan leaves it alone,
    # on a forked pool too.
    with fault_injection(client_plan or worker_plans[0]):
        for workers in (1, 2):
            assert_same_result(FAULT_CASE.run_sharded(workers=workers), reference)
    with Broker(lease_timeout=5.0) as broker:
        procs = spawn_workers(broker.address, worker_plans)
        try:
            with fault_injection(client_plan):
                got = FAULT_CASE.run_sharded(
                    endpoint=broker.address, cache=None, retry=FAST_RETRY, fallback="none"
                )
        finally:
            reap(procs)
    assert_same_result(got, reference)


# ----------------------------------------------------------------------
# The exact leg: the reference's samples against repro.core.exact
# ----------------------------------------------------------------------
#: Graphs each exact chain handles in well under a second.
EXACT_GRAPHS = {
    "cover": ("path-4", "star-5"),
    "hit": ("path-5", "star-5", "cycle-6", "cycle-9"),
    "bips": ("path-5", "cycle-6", "star-7", "cycle-9", "petersen"),
    "duality": ("path-5", "star-5", "cycle-6"),
}


@dataclasses.dataclass(frozen=True)
class ExactCase:
    """A process with an exact chain, sampled by the reference.

    ``cover``: COBRA cover from 0.  ``hit``: COBRA from 0 until it hits
    ``vertex``.  ``bips``: BIPS infection from source 0.  ``duality``:
    Theorem 1.3 for source 0 and start set ``{vertex}``.  Survival
    points are compared up to ``horizon``.
    """

    kind: str
    graph: str
    b: float = 2
    lazy: bool = False
    vertex: int = 1
    horizon: int = 16
    runs: int = 2000
    seed: int = 1

    def reference(self, rule, completion, max_rounds=None, start=0):
        """The reference run of ``rule`` from ``start``."""
        graph = graph_named(self.graph)
        state = np.zeros((self.runs, graph.n), dtype=bool)
        state[:, start] = True
        return SpreadEngine(rule, graph, completion).run_sharded(
            state, self.seed, workers=1, max_rounds=max_rounds
        )


@st.composite
def exact_cases(draw):
    """A valid :class:`ExactCase`: any policy, either lazy flag."""
    kind = draw(st.sampled_from(tuple(EXACT_GRAPHS)))
    graph = draw(st.sampled_from(EXACT_GRAPHS[kind]))
    return ExactCase(
        kind, graph, b=draw(st.sampled_from((1, 2, 3, 1.5))), lazy=draw(st.booleans()),
        vertex=draw(st.integers(1, graph_named(graph).n - 1)),
        horizon=draw(st.sampled_from((8, 16))), seed=draw(st.integers(0, 2**16)),
    )


def assert_mean_close(samples: np.ndarray, expected: float) -> None:
    """The sample mean within 4.5 standard errors (floor 1e-3)."""
    se = max(samples.std(ddof=1) / np.sqrt(samples.size), 1e-3)
    assert abs(samples.mean() - expected) < 4.5 * se, (samples.mean(), expected, se)


def assert_survival_close(empirical: np.ndarray, exact: np.ndarray, runs: int) -> None:
    """Each survival point within 5 standard errors (floor 1e-3)."""
    se = np.maximum(np.sqrt(exact * (1.0 - exact) / runs), 1e-3)
    off = np.abs(empirical - exact) >= 5 * se
    assert not off.any(), (np.flatnonzero(off), empirical[off], exact[off])


def survival_of(times: np.ndarray, horizon: int) -> np.ndarray:
    """``P(T > t)`` for ``t = 0 .. horizon``; a capped run never finished."""
    times = np.where(times < 0, np.iinfo(np.int64).max, times)
    return (times[:, None] > np.arange(horizon + 1)[None, :]).mean(axis=0)


#: The cases of the seven exact-vs-Monte-Carlo tests this leg replaces.
EXACT_CASES = {
    "bips-path-5": ExactCase("bips", "path-5", horizon=200, runs=800, seed=11),
    "hit-cycle-6": ExactCase("hit", "cycle-6", vertex=3, runs=1500, seed=21),
    "cover-star-5": ExactCase("cover", "star-5", runs=800, seed=17),
    "cover-path-4": ExactCase("cover", "path-4", runs=1000, seed=29),
    "hit-cycle-6-survival": ExactCase("hit", "cycle-6", vertex=3, horizon=12, runs=2500, seed=3),
    "hit-path-5-walk": ExactCase("hit", "path-5", b=1, vertex=4, runs=3000, seed=4),
    "duality-cycle-6": ExactCase("duality", "cycle-6", vertex=3, horizon=10, runs=3000, seed=5),
}


@pytest.mark.parametrize("case", EXACT_CASES.values(), ids=EXACT_CASES)
def test_exact_case(case):
    """The reference's samples agree with the exact chain of ``case.kind``."""
    graph = graph_named(case.graph)
    policy = make_policy(case.b)
    chain = dict(branching=policy, lazy=case.lazy)
    horizon, v = case.horizon, case.vertex
    cobra, bips = CobraRule(policy, lazy=case.lazy), BipsRule(policy, 0, lazy=case.lazy)
    if case.kind == "duality":
        exact = verify_duality_exact(graph, 0, [v], t_max=horizon, **chain)
        assert exact.max_abs_diff < 1e-10
        # COBRA from {v} until it hits the source: P(Hit > T).
        hits = case.reference(cobra, TargetHit(0), horizon, start=v).finish_times
        assert_survival_close(survival_of(hits, horizon), exact.bips_side, case.runs)
        # BIPS from the source, stopped at T: P(A_T misses v).
        missed = [
            (~case.reference(bips, "all-vertices", t).final_state[:, v]).mean()
            for t in range(horizon + 1)
        ]
        assert_survival_close(np.array(missed), exact.cobra_side, case.runs)
        return
    mean = None
    if case.kind == "cover":
        exact = cobra_cover_survival_exact(graph, 0, t_max=horizon, **chain)
        mean = exact_cover_expectation(graph, 0, **chain)
        times = case.reference(cobra, "all-vertices").finish_times
    elif case.kind == "hit":
        exact = cobra_hit_survival_exact(graph, 0, v, t_max=horizon, **chain)
        if case.b == 1:  # a random walk; a lazy one takes twice as long
            mean = random_walk_hitting_time(graph, 0, v) * (2 if case.lazy else 1)
        times = case.reference(cobra, TargetHit(v)).finish_times
    else:
        exact = bips_exact(graph, 0, t_max=horizon, **chain).survival()
        times = case.reference(bips, "all-vertices").finish_times
    assert_survival_close(survival_of(times, horizon), exact, case.runs)
    if mean is not None:
        assert np.all(times >= 0)
        assert_mean_close(times, mean)
    else:
        # E[min(T, horizon)] is the sum of the survival below the horizon.
        capped = np.where(times < 0, horizon, np.minimum(times, horizon))
        assert_mean_close(capped, exact[:horizon].sum())


@ORACLE
@given(case=exact_cases())
def test_exact_leg(case):
    test_exact_case(case)
