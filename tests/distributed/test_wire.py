"""Wire-format round-trip tests (property-based where it pays).

The contract: ``decode(encode(x))`` rebuilds an object whose re-
encoding is byte-identical (canonical form is a fixed point), and a
decoded task *executes* identically to the original — the distributed
determinism guarantee reduces to exactly this.  A task names its graph
by digest, so decoding it takes the job's graph blobs as well.
"""

import base64
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import (
    AdaptiveRRIPolicy,
    GreedyCutAdversary,
    IsolatingChurnAdversary,
    MovingSourceAdversary,
)
from repro.core.branching import BernoulliBranching, FixedBranching, make_policy
from repro.distributed import (
    WIRE_VERSION,
    GraphCache,
    WireDecodeError,
    attach_trace,
    canonical_bytes,
    decode_result,
    decode_task,
    encode_result,
    encode_task,
    graph_blobs,
    parse_endpoint,
    task_key,
)
from repro.distributed.wire import (
    _GRAPH_CACHE_SIZE,
    _decode_array,
    _decode_seed,
    _decode_topology,
    _encode_array,
    _encode_graph,
    _encode_seed,
    _encode_topology,
)
from repro.dynamics import (
    ChurnSequence,
    EdgeMarkovianSequence,
    FrozenSequence,
    GraphSequence,
    RewiringSequence,
)
from repro.engine import (
    BipsRule,
    CobraRule,
    PullRule,
    PushPullRule,
    PushRule,
    WalkRule,
)
from repro.engine.completion import AllActive, AllVertices, TargetHit
from repro.engine.engine import SpreadResult
from repro.graphs import Graph, cycle_graph, petersen_graph, random_regular_graph
from repro.parallel import ShardTask, run_shard


def _graph():
    return random_regular_graph(20, 4, rng=5)


def _task(rule=None, topology=None, **kw):
    graph = _graph()
    rule = rule or CobraRule(make_policy(2))
    if isinstance(rule, WalkRule):
        state = np.zeros((6, rule.k), dtype=np.int64)
    else:
        state = np.zeros((6, graph.n), dtype=bool)
        state[:, 0] = True
    return ShardTask(
        rule=rule,
        topology=topology if topology is not None else graph,
        completion=AllVertices(),
        state=state,
        seed=np.random.SeedSequence(42).spawn(3)[1],
        **kw,
    )


def _graphs(*tasks):
    """A graph cache holding the blobs of the tasks' job."""
    return GraphCache(graph_blobs(tasks).get)


def _round_trip(task):
    """Encode a task and decode it against its own job's graph blobs."""
    return decode_task(encode_task(task), _graphs(task))


def _topology_round_trip(topology):
    graphs = _graphs(_task(topology=topology))
    return _decode_topology(_encode_topology(topology), graphs)


class TestArrays:
    @given(
        dtype=st.sampled_from(["bool", "int64", "uint8", "float64", "int32"]),
        shape=st.lists(st.integers(0, 5), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_array_round_trip(self, dtype, shape, seed):
        rng = np.random.default_rng(seed)
        arr = (rng.random(shape) * 100).astype(dtype)
        back = _decode_array(_encode_array(arr))
        assert back.dtype == arr.dtype
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)
        # Canonical encoding is a pure function of content.
        assert canonical_bytes(_encode_array(back)) == canonical_bytes(
            _encode_array(arr)
        )

    def test_non_contiguous_array(self):
        arr = np.arange(24, dtype=np.int64).reshape(4, 6)[:, ::2]
        assert np.array_equal(_decode_array(_encode_array(arr)), arr)


class TestSeeds:
    @given(
        entropy=st.integers(0, 2**96),
        spawn=st.lists(st.integers(0, 2**31), max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_seed_round_trip_streams_match(self, entropy, spawn):
        seed = np.random.SeedSequence(entropy, spawn_key=tuple(spawn))
        back = _decode_seed(_encode_seed(seed))
        a = np.random.default_rng(seed).integers(2**63, size=8)
        b = np.random.default_rng(back).integers(2**63, size=8)
        assert np.array_equal(a, b)
        # Spawned children replay too (the sequence-master contract).
        ca = [np.random.default_rng(s).random() for s in seed.spawn(3)]
        cb = [np.random.default_rng(s).random() for s in back.spawn(3)]
        assert ca == cb

    def test_spawned_master_replays_children_from_zero(self):
        # A master that already spawned children must ship so that the
        # receiver regenerates children 0, 1, ... — the replay
        # discipline of MarkovGraphSequence round seeds.
        master = np.random.SeedSequence(7)
        first = master.spawn(2)  # advance the sender's counter
        back = _decode_seed(_encode_seed(master))
        again = back.spawn(2)
        for a, b in zip(first, again):
            assert np.random.default_rng(a).random() == np.random.default_rng(
                b
            ).random()


class TestRulesAndCompletion:
    RULES = [
        CobraRule(make_policy(2)),
        CobraRule(BernoulliBranching(0.5), lazy=True),
        BipsRule(make_policy(2), source=3),
        BipsRule(FixedBranching(3), source=1, lazy=True),
        WalkRule(k=4, lazy=True),
        PushRule(fanout=2),
        PullRule(),
        PushPullRule(),
    ]

    @pytest.mark.parametrize("rule", RULES, ids=lambda r: type(r).__name__)
    def test_rule_round_trip_is_canonical_fixed_point(self, rule):
        task = _task(rule=rule)
        back = _round_trip(task)
        assert type(back.rule) is type(rule)
        assert canonical_bytes(encode_task(back)) == canonical_bytes(
            encode_task(task)
        )

    @pytest.mark.parametrize(
        "completion", [AllVertices(), AllActive(), TargetHit(7)]
    )
    def test_completion_round_trip(self, completion):
        task = _task()
        task = ShardTask(
            rule=task.rule,
            topology=task.topology,
            completion=completion,
            state=task.state,
            seed=task.seed,
        )
        back = _round_trip(task)
        assert type(back.completion) is type(completion)
        if isinstance(completion, TargetHit):
            assert back.completion.target == completion.target

    def test_legacy_flooding_rule_rejected(self):
        # Flooding was a rule once, with two runs per packed uint8 plane.
        obj = _cycle_rule_task(PullRule(), np.zeros((2, 8), dtype=bool))
        obj["rule"] = {"kind": "flooding", "runs": 2, "reflood": False}
        obj["state"] = _encode_array(np.zeros((2, 8), dtype=np.uint8))
        with pytest.raises(WireDecodeError, match="unknown spread rule kind 'flooding'"):
            decode_task(obj, _cycle_graphs())

    def test_unsupported_policy_rejected(self):
        class Weird:
            pass

        with pytest.raises(TypeError, match="not wire-encodable"):
            encode_task(_task(rule=CobraRule(Weird())))


class TestTopologies:
    def seqs(self):
        base = _graph()
        return [
            FrozenSequence(base),
            RewiringSequence(base, 2, seed=9),
            EdgeMarkovianSequence(base, 0.02, 0.05, seed=9),
            ChurnSequence(base, 0.1, 0.5, seed=9, protected=(0, 3)),
        ]

    def test_graph_round_trip(self):
        g = petersen_graph()
        back = _topology_round_trip(g)
        assert back == g
        assert back.name == g.name
        assert np.array_equal(back.degrees, g.degrees)

    def test_sequences_replay_identically(self):
        for seq in self.seqs():
            back = _topology_round_trip(seq)
            for t in (0, 1, 3, 7):
                assert back.graph_at(t) == seq.graph_at(t), (seq.name, t)

    def test_advanced_sequence_ships_from_round_zero(self):
        # Encoding a sequence that already materialised snapshots must
        # still replay the identical realisation remotely.
        seq = RewiringSequence(_graph(), 2, seed=13)
        expected = [seq.graph_at(t) for t in range(6)]
        back = _topology_round_trip(seq)
        assert [back.graph_at(t) for t in range(6)] == expected

    def test_sequence_without_a_replay_spec_rejected(self):
        class Fixed(GraphSequence):
            def _materialize(self, t):
                return petersen_graph()

        with pytest.raises(TypeError, match="not wire-encodable"):
            _encode_topology(Fixed(10, "fixed"))

    def test_adversarial_sequence_round_trips_as_replay_spec(self):
        from repro.adversary import ADVERSARY_KINDS, AdversarialSequence, make_adversary

        base = _graph()
        for kind in ADVERSARY_KINDS:
            seq = AdversarialSequence(
                base, make_adversary(kind, 4, source=1), 9, swaps_per_round=2
            )
            back = _topology_round_trip(seq)
            assert isinstance(back, AdversarialSequence)
            assert back.observes_process
            assert back.adversary.name == kind
            assert back.adversary.budget == 4
            assert back.swaps_per_round == 2
            # With no driving engine both realise the oblivious phase
            # only — and must realise it identically.
            for t in (0, 1, 3):
                assert back.graph_at(t) == seq.fresh_replay().graph_at(t)

    def test_used_adversarial_sequence_encodes_pristine(self):
        # The wire ships a replay spec: an already-driven sequence's
        # observation log must not leak into (or change) the encoding.
        from repro.adversary import AdversarialSequence, make_adversary
        from repro.core.branching import make_policy
        from repro.engine import CobraRule, SpreadEngine

        base = _graph()
        seq = AdversarialSequence(
            base, make_adversary("greedy-cut", 4), 9, swaps_per_round=2
        )
        pristine = canonical_bytes(_encode_topology(seq))
        state = np.zeros((4, base.n), dtype=bool)
        state[:, 0] = True
        SpreadEngine(CobraRule(make_policy(2)), seq).run(
            state, np.random.default_rng(1)
        )
        assert canonical_bytes(_encode_topology(seq)) == pristine


class TestTasks:
    def test_task_round_trip_executes_identically(self):
        for dynamic in (False, True):
            topology = (
                RewiringSequence(_graph(), 2, seed=3) if dynamic else _graph()
            )
            task = _task(topology=topology, track_hits=True)
            ref = run_shard(task)
            got = run_shard(_round_trip(task))
            assert np.array_equal(got.finish_times, ref.finish_times)
            assert np.array_equal(got.hit_times, ref.hit_times)
            assert np.array_equal(got.final_state, ref.final_state)

    def test_version_mismatch_rejected(self):
        obj = encode_task(_task())
        obj["v"] = WIRE_VERSION + 1
        with pytest.raises(ValueError, match="wire version"):
            decode_task(obj, _graphs(_task()))

    def test_task_key_is_content_address(self):
        a, b = _task(), _task()
        assert task_key(a) == task_key(b)
        different_seed = ShardTask(
            rule=b.rule,
            topology=b.topology,
            completion=b.completion,
            state=b.state,
            seed=np.random.SeedSequence(999),
        )
        assert task_key(different_seed) != task_key(a)
        flagged = ShardTask(
            rule=b.rule,
            topology=b.topology,
            completion=b.completion,
            state=b.state,
            seed=b.seed,
            track_hits=True,
        )
        assert task_key(flagged) != task_key(a)

    def test_result_round_trip(self):
        task = _task(track_hits=True, record_sizes=True, record_visited=True)
        ref = run_shard(task)
        back = decode_result(encode_result(ref))
        assert np.array_equal(back.finish_times, ref.finish_times)
        assert back.rounds_run == ref.rounds_run
        assert np.array_equal(back.final_state, ref.final_state)
        assert np.array_equal(back.hit_times, ref.hit_times)
        assert np.array_equal(back.sizes, ref.sizes)
        assert np.array_equal(back.visited_counts, ref.visited_counts)

    @pytest.mark.parametrize("rounds_run", ["7", 7.0, True])
    def test_result_rounds_run_of_the_wrong_type_rejected(self, rounds_run):
        obj = encode_result(run_shard(_task()))
        obj["rounds_run"] = rounds_run
        with pytest.raises(WireDecodeError, match="rounds_run must be an integer"):
            decode_result(obj)

    def test_none_fields_survive(self):
        ref = run_shard(_task())
        back = decode_result(encode_result(ref))
        assert back.hit_times is None
        assert back.sizes is None
        assert back.visited_counts is None

    def test_default_encoding_has_no_backend_key(self):
        """A task carries no kernel choice, and the ``backend`` key an
        older sender could attach is ignored: the worker picks its own
        bit-identical kernel, under the same wire version."""
        encoded, blobs = encode_task(_task()), _graphs(_task())
        assert "backend" not in encoded
        assert encoded["v"] == WIRE_VERSION
        ref = run_shard(decode_task(encoded, blobs))
        got = run_shard(decode_task({**encoded, "backend": "bitplane"}, blobs))
        assert np.array_equal(got.finish_times, ref.finish_times)
        assert np.array_equal(got.final_state, ref.final_state)


def _topologies(base):
    """``base`` itself and one sequence of each kind on it, by wire kind."""
    from repro.adversary import AdversarialSequence, make_adversary

    return {
        "graph": base,
        "frozen": FrozenSequence(base),
        "rewiring": RewiringSequence(base, 2, seed=9),
        "edge-markovian": EdgeMarkovianSequence(base, 0.02, 0.05, seed=9),
        "churn": ChurnSequence(base, 0.1, 0.5, seed=9, protected=(0, 3)),
        "adversarial": AdversarialSequence(
            base, make_adversary("greedy-cut", 4), 9, swaps_per_round=2
        ),
    }


def _moved_edge(graph):
    """``graph`` with one edge moved: same ``n`` and ``m``, other CSR."""
    edges = graph.edge_array().tolist()
    u, v = edges.pop(0)
    w = next(w for w in range(graph.n) if w not in (u, v) and not graph.has_edge(u, w))
    return Graph(graph.n, edges + [[u, w]], name=graph.name)


class TestGraphRefs:
    """A task names its graph by digest; the CSR travels once per job."""

    @pytest.mark.parametrize("kind", list(_topologies(petersen_graph())))
    def test_round_trip_for_every_topology_kind(self, kind):
        base = _graph()
        task = _task(topology=_topologies(base)[kind])
        obj = encode_task(task)
        ref = obj["topology"] if kind == "graph" else obj["topology"]["base"]
        assert ref == {
            "kind": "graph-ref", "digest": base.digest, "n": base.n, "m": base.m,
            "name": base.name,
        }
        blobs = graph_blobs([task])
        assert list(blobs) == [base.digest]
        back = decode_task(obj, GraphCache(blobs.get))
        assert canonical_bytes(encode_task(back)) == canonical_bytes(obj)
        assert np.array_equal(run_shard(back).finish_times, run_shard(task).finish_times)

    def test_blob_once_per_job(self):
        tasks = [_task(), _task(topology=RewiringSequence(_graph(), 2, seed=1))]
        blobs = graph_blobs(tasks * 16)
        assert list(blobs) == [_graph().digest]
        assert b"indices" not in canonical_bytes(encode_task(tasks[0]))

    def test_unknown_digest_names_it(self):
        task = _task()
        with pytest.raises(WireDecodeError, match=_graph().digest):
            decode_task(encode_task(task), GraphCache({}.get))

    def test_blob_that_misses_its_digest_is_rejected_and_never_cached(self):
        graph = _graph()
        other = _moved_edge(graph)
        assert other.digest != graph.digest
        cache = GraphCache({graph.digest: _encode_graph(other)}.get)
        with pytest.raises(WireDecodeError, match="does not hash to its digest"):
            decode_task(encode_task(_task()), cache)
        assert cache._graphs == {}

    @pytest.mark.parametrize("field", ["n", "m"])
    def test_ref_that_differs_from_the_cached_graph_is_rejected(self, field):
        task = _task()
        cache = _graphs(task)
        decode_task(encode_task(task), cache)  # now cached
        obj = encode_task(task)
        obj["topology"][field] += 1
        with pytest.raises(WireDecodeError, match="does not match graph"):
            decode_task(obj, cache)

    def test_cache_fetches_once_and_keeps_few(self):
        fetched = []
        graphs = [cycle_graph(n) for n in range(5, 6 + _GRAPH_CACHE_SIZE)]
        blobs = {g.digest: _encode_graph(g) for g in graphs}
        cache = GraphCache(lambda digest: fetched.append(digest) or blobs[digest])
        for graph in graphs + graphs[-1:]:
            ref = _encode_topology(graph)
            assert cache.resolve(ref) == graph
        assert fetched == [g.digest for g in graphs]
        assert list(cache._graphs) == [g.digest for g in graphs[1:]]

    def test_a_renamed_ref_gets_its_own_name(self):
        graph = _graph()
        cache = _graphs(_task())
        ref = _encode_topology(graph)
        assert cache.resolve(ref).name == graph.name
        back = cache.resolve({**ref, "name": "other"})
        assert back.name == "other" and back == graph and back.digest == graph.digest


class TestKeys:
    def test_task_key_follows_the_csr_not_the_object(self):
        a, b = _graph(), _graph()
        assert a is not b
        assert task_key(_task(topology=a)) == task_key(_task(topology=b))
        assert task_key(_task(topology=_moved_edge(a))) != task_key(_task(topology=a))

    def test_digest_ignores_the_name_and_is_kept(self):
        graph = _graph()
        renamed = Graph(graph.n, graph.edge_array(), name="another")
        assert renamed.digest == graph.digest
        assert graph.digest is graph.digest


#: Shapes of packed boolean arrays: empty, one bit, a ragged last byte,
#: and a bips-broker shard's state.
PACKED_SHAPES = [(0, 8), (1, 1), (3, 5), (16, 4096)]


class TestPackedBooleans:
    @pytest.mark.parametrize("shape", PACKED_SHAPES)
    def test_state_round_trips_packed(self, shape):
        graph = Graph(1, []) if shape[1] == 1 else cycle_graph(shape[1])
        state = np.random.default_rng(sum(shape)).random(shape) < 0.5
        task = ShardTask(
            rule=BipsRule(make_policy(2), 0), topology=graph, completion=AllActive(),
            state=state, seed=np.random.SeedSequence(1),
        )
        obj = encode_task(task)
        assert len(base64.b64decode(obj["state"]["data"])) == -(-state.size // 8)
        back = decode_task(obj, _graphs(task)).state
        assert back.dtype == np.bool_ and back.shape == shape
        assert np.array_equal(back, state)
        back[...] = True  # an owned, writable array

    @pytest.mark.parametrize("shape", PACKED_SHAPES)
    def test_final_state_round_trips_packed(self, shape):
        final = np.random.default_rng(sum(shape) + 1).random(shape) < 0.5
        result = SpreadResult(
            finish_times=np.zeros(shape[0], dtype=np.int64), rounds_run=3,
            final_state=final,
        )
        obj = encode_result(result)
        assert len(base64.b64decode(obj["final_state"]["data"])) == -(-final.size // 8)
        back = decode_result(obj).final_state
        assert back.dtype == np.bool_ and np.array_equal(back, final)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_bit_count_must_fit_the_shape(self, extra):
        state = np.ones((3, 8), dtype=bool)
        obj = _cycle_rule_task(CobraRule(make_policy(2)), state)
        raw = base64.b64decode(obj["state"]["data"])
        raw = raw[:extra] if extra < 0 else raw + b"\0"
        obj["state"]["data"] = base64.b64encode(raw).decode("ascii")
        with pytest.raises(WireDecodeError, match="packed bytes do not hold"):
            decode_task(obj, _cycle_graphs())
        payload = encode_result(SpreadResult(np.zeros(3, np.int64), 0, state))
        payload["final_state"]["data"] = obj["state"]["data"]
        with pytest.raises(WireDecodeError, match="packed bytes do not hold"):
            decode_result(payload)


def _cycle_task():
    """An encoded two-run COBRA task on cycle-8."""
    state = np.zeros((2, 8), dtype=bool)
    state[:, 0] = True
    return encode_task(
        ShardTask(
            rule=CobraRule(make_policy(2), lazy=True),
            topology=cycle_graph(8),
            completion=AllVertices(),
            state=state,
            seed=np.random.SeedSequence(42),
        )
    )


def _cycle_graphs():
    """A graph cache serving cycle-8's blob under its digest."""
    graph = cycle_graph(8)
    return GraphCache({graph.digest: _encode_graph(graph)}.get)


def _malformed_job(key, edit):
    """Cycle-8's encoded task and a graph cache serving an edited blob.

    ``edit`` rewrites the blob's field ``key`` (``"m"``, one of the CSR
    arrays, or the whole ``"blob"``).  The task's graph ref names the
    edited blob: its ``n``, its ``m`` and the digest its arrays hash to
    (``Graph.digest``'s recipe), so only ``_decode_graph``'s checks
    stand between the blob and the engine.
    """
    blob = _encode_graph(cycle_graph(8))
    if key == "blob":
        blob = edit(blob)
    elif key == "m":
        blob["m"] = edit(blob["m"])
    else:
        blob[key] = _encode_array(edit(_decode_array(blob[key])))
    h = hashlib.sha256(np.array([blob["n"], blob["m"]], dtype="<i8").tobytes())
    for arr in ("indptr", "indices"):
        h.update(np.ascontiguousarray(_decode_array(blob[arr]), dtype="<i8").tobytes())
    obj = _cycle_task()
    obj["topology"].update(digest=h.hexdigest(), n=blob["n"], m=blob["m"])
    return obj, GraphCache({h.hexdigest(): blob}.get)


def _set(index, value):
    def edit(arr):
        arr[index] = value
        return arr

    return edit


#: One malformed cycle-8 CSR per check in ``_decode_graph``.
MALFORMED_CSR = {
    "negative-index": ("indices", _set(0, -1)),
    "index-beyond-n": ("indices", _set(0, 8)),
    "m-mismatch": ("m", lambda m: 999),
    "indptr-decreasing": ("indptr", _set(1, 5)),
    "indptr-not-from-zero": ("indptr", _set(0, 1)),
    "indptr-wrong-length": ("indptr", lambda a: a[:-1]),
    "indices-short": ("indices", lambda a: a[:-1]),
    "indices-float": ("indices", lambda a: a.astype(np.float64)),
    "indptr-2d": ("indptr", lambda a: a.reshape(1, -1)),
    "no-vertices": (
        "blob",
        lambda blob: {
            "n": 0,
            "m": 0,
            "indptr": _encode_array(np.zeros(1, dtype=np.int64)),
            "indices": _encode_array(np.zeros(0, dtype=np.int64)),
        },
    ),
}


class TestGraphValidation:
    """A sender's CSR is checked on decode, never trusted.

    Each malformation decoded silently before: a negative index ran as
    another graph (numpy wraps -1 to vertex 7), a blob of no vertices
    failed inside the engine with a math domain error, and the others
    reached ``Graph._from_csr`` and ran or failed inside the kernel.
    """

    @pytest.mark.parametrize("case", list(MALFORMED_CSR))
    def test_malformed_csr_rejected(self, case):
        obj, graphs = _malformed_job(*MALFORMED_CSR[case])
        with pytest.raises(WireDecodeError, match="graph"):
            decode_task(obj, graphs)

    def test_well_formed_csr_decodes_to_the_same_graph(self):
        graph = cycle_graph(8)
        task = decode_task(_cycle_task(), _cycle_graphs())
        assert run_shard(task).all_finished
        back = task.topology
        assert (back.n, back.m) == (graph.n, graph.m)
        assert np.array_equal(back.indptr, graph.indptr)
        assert np.array_equal(back.indices, graph.indices)
        assert np.array_equal(back.degrees, graph.degrees)
        assert back.indptr.dtype == back.indices.dtype == np.int64


def _cycle_rule_task(rule, state):
    """An encoded task stepping ``rule`` from ``state`` on cycle-8."""
    return encode_task(
        ShardTask(
            rule=rule,
            topology=cycle_graph(8),
            completion=AllVertices(),
            state=state,
            seed=np.random.SeedSequence(42),
        )
    )


def _walkers(*positions):
    return np.array([positions], dtype=np.int64)


#: One rule with a state it cannot step on cycle-8, per check in
#: ``_check_state``; each decoded and ran (or failed inside a kernel).
MALFORMED_STATE = {
    "cobra-too-wide": (CobraRule(make_policy(2), lazy=True), np.ones((2, 9), bool)),
    "cobra-int64": (CobraRule(make_policy(2), lazy=True), np.ones((2, 8), np.int64)),
    "bips-1d": (BipsRule(make_policy(2), 0), np.ones(8, bool)),
    "push-too-narrow": (PushRule(), np.ones((2, 7), bool)),
    "walk-beyond-n": (WalkRule(2), _walkers(0, 8)),
    "walk-negative": (WalkRule(2), _walkers(-1, 0)),
    "walk-wrong-k": (WalkRule(2), _walkers(0, 1, 2)),
    "walk-float": (WalkRule(2), _walkers(0, 1).astype(np.float64)),
}


def _vertex_task(rule=None, completion=None, adversary=None, sequence=None, state=None):
    """An encoded two-run task on cycle-8, on an adversarial sequence
    over it when ``adversary`` is given, or on ``sequence(cycle-8)``
    when ``sequence`` is given; ``state`` defaults to a mask holding
    vertex 0 in each run."""
    from repro.adversary import AdversarialSequence

    graph = cycle_graph(8)
    if adversary is not None:
        topology = AdversarialSequence(graph, adversary, 7)
    elif sequence is not None:
        topology = sequence(graph)
    else:
        topology = graph
    if state is None:
        state = np.zeros((2, 8), dtype=bool)
        state[:, 0] = True
    return encode_task(
        ShardTask(
            rule=rule or CobraRule(make_policy(2), lazy=True),
            topology=topology,
            completion=completion or AllVertices(),
            state=state,
            seed=np.random.SeedSequence(42),
        )
    )


def _edited_task(args, path, value):
    """``_vertex_task(**args)``, which decodes, with the field at
    ``path`` set to ``value``, or ``value`` appended if the field holds a
    list (so a protected set of ``[0]`` becomes ``[0, value]``)."""
    obj = _vertex_task(**args)
    decode_task(obj, _cycle_graphs())  # decodes as encoded
    *outer, field = path
    node = obj
    for key in outer:
        node = node[key]
    node[field] = [*node[field], value] if isinstance(node[field], list) else value
    return obj


_BIPS = {"rule": BipsRule(make_policy(2), 0)}
_WALK = {"rule": WalkRule(2), "state": np.zeros((2, 2), dtype=np.int64)}
_ISOLATING = {"adversary": IsolatingChurnAdversary(1)}
_GREEDY = {"adversary": GreedyCutAdversary(2)}
_MOVING = {"adversary": MovingSourceAdversary(0, 1)}
_RRI = {"adversary": AdaptiveRRIPolicy(1)}
_CHURN = {"sequence": lambda g: ChurnSequence(g, 0.1, 0.5, seed=7)}
_REWIRING = {"sequence": lambda g: RewiringSequence(g, 1, seed=7)}
_MARKOV = {"sequence": lambda g: EdgeMarkovianSequence(g, 0.1, 0.2, seed=7)}

#: One vertex id outside cycle-8 per task field that names a vertex, as
#: ``(_vertex_task arguments, path to the field, id)``; each but the
#: churn sequence's (which ``ChurnSequence`` refuses) decoded and ran
#: (numpy wraps -1 to vertex 7).
BAD_VERTEX = {
    "bips-source": (_BIPS, ("rule", "source"), -1),
    "target-hit": ({"completion": TargetHit(1)}, ("completion", "target"), 8),
    "moving-source": (_MOVING, ("topology", "adversary", "source"), -1),
    "churn-protected": (_ISOLATING, ("topology", "adversary", "protected"), 8),
    "churn-initially-out": (_ISOLATING, ("topology", "adversary", "initially_out"), -1),
    "sequence-protected": (_CHURN, ("topology", "protected"), 8),
}

#: Vertex ids that are not JSON integers; in every ``BAD_VERTEX`` field
#: each decoded and ran as vertex 2, 1 or 2.
NOT_AN_INTEGER = {"float": 2.9, "bool": True, "string": "2"}

#: A flag, a count, a rate or a seed of the wrong JSON type, one row per
#: such field the task decoder reads, as ``(_vertex_task arguments, path
#: to the field, value)``; each decoded and ran (a ``"lazy"`` of
#: ``"false"`` ran the lazy process).
WRONG_TYPE = {
    "b-float": ({}, ("rule", "policy", "b"), 2.5),
    "rho-string": ({"rule": CobraRule(make_policy(1.5))}, ("rule", "policy", "rho"), "0.5"),
    "lazy-string": ({}, ("rule", "lazy"), "false"),
    "bips-lazy-int": (_BIPS, ("rule", "lazy"), 0),
    "walk-k-float": (_WALK, ("rule", "k"), 2.0),
    "walk-lazy-string": (_WALK, ("rule", "lazy"), "true"),
    "fanout-bool": ({"rule": PushRule()}, ("rule", "fanout"), True),
    "track-hits-string": ({}, ("track_hits",), "no"),
    "record-sizes-int": ({}, ("record_sizes",), 1),
    "record-visited-string": ({}, ("record_visited",), "false"),
    "seed-entropy-string": ({}, ("seed", "entropy"), "42"),
    "seed-spawn-key-float": ({}, ("seed", "spawn_key"), 0.5),
    "seed-pool-size-float": ({}, ("seed", "pool_size"), 4.0),
    "graph-n-float": ({}, ("topology", "n"), 8.0),
    "graph-m-float": ({}, ("topology", "m"), 8.0),
    "rewiring-swaps-float": (_REWIRING, ("topology", "swaps"), 1.5),
    "rewiring-keep-connected-string": (_REWIRING, ("topology", "keep_connected"), "no"),
    "rewiring-max-retries-bool": (_REWIRING, ("topology", "max_retries"), True),
    "sequence-seed-string": (_REWIRING, ("topology", "seed", "entropy"), "7"),
    "birth-string": (_MARKOV, ("topology", "birth"), "0.1"),
    "death-bool": (_MARKOV, ("topology", "death"), True),
    "leave-string": (_CHURN, ("topology", "leave"), "0.1"),
    "rejoin-bool": (_CHURN, ("topology", "rejoin"), False),
    "adversarial-swaps-float": (_GREEDY, ("topology", "swaps"), 1.0),
    "adversarial-keep-connected-int": (_GREEDY, ("topology", "keep_connected"), 1),
    "adversarial-max-retries-string": (_GREEDY, ("topology", "max_retries"), "8"),
    "budget-string": (_GREEDY, ("topology", "adversary", "budget"), "3"),
    "budget-float": (_GREEDY, ("topology", "adversary", "budget"), 2.7),
    "greedy-keep-connected-string": (
        _GREEDY, ("topology", "adversary", "keep_connected"), "false"
    ),
    "isolating-budget-bool": (_ISOLATING, ("topology", "adversary", "budget"), True),
    "downtime-bool": (_ISOLATING, ("topology", "adversary", "downtime"), True),
    "isolating-keep-connected-int": (
        _ISOLATING, ("topology", "adversary", "keep_connected"), 0
    ),
    "moving-budget-float": (_MOVING, ("topology", "adversary", "budget"), 1.5),
    "trigger-string": (_MOVING, ("topology", "adversary", "trigger"), "0.5"),
    "moving-keep-connected-string": (
        _MOVING, ("topology", "adversary", "keep_connected"), "true"
    ),
    "burst-swaps-float": (_RRI, ("topology", "adversary", "burst_swaps"), 1.5),
    "growth-threshold-string": (_RRI, ("topology", "adversary", "growth_threshold"), "2"),
    "rri-keep-connected-int": (_RRI, ("topology", "adversary", "keep_connected"), 1),
    "rri-max-retries-float": (_RRI, ("topology", "adversary", "max_retries"), 20.0),
}


def _well_formed_states():
    mask = np.zeros((2, 8), dtype=bool)
    mask[:, 0] = True
    return {
        "cobra": (CobraRule(make_policy(1.5), lazy=True), mask),
        "bips": (BipsRule(make_policy(2), 0, lazy=True), mask),
        "push": (PushRule(), mask),
        "pull": (PullRule(), mask),
        "push-pull": (PushPullRule(), mask),
        "walk": (WalkRule(2, lazy=True), np.array([[0, 7], [3, 3]], dtype=np.int64)),
        "no-runs": (CobraRule(make_policy(2)), np.zeros((0, 8), dtype=bool)),
    }


class TestTaskValidation:
    """A task's state, round cap and vertex ids are checked on decode,
    never trusted.

    Each malformation decoded on the previous wire: a width-9 or int64
    COBRA state ran to finish times [13, 6], ``max_rounds`` of
    ``"7"``, ``-3``, ``True`` and ``2.9`` ran 7, 0, 1 and 2 rounds, a
    moving source of -1 ran a different process from vertex 7, and a
    source of ``2.9`` ran from vertex 2.
    """

    @pytest.mark.parametrize("kind", ["outside", *NOT_AN_INTEGER])
    @pytest.mark.parametrize("case", list(BAD_VERTEX))
    def test_bad_vertex_rejected(self, case, kind):
        args, path, outside = BAD_VERTEX[case]
        obj = _edited_task(args, path, NOT_AN_INTEGER.get(kind, outside))
        match = "out of range" if kind == "outside" else "must be an integer"
        with pytest.raises(WireDecodeError, match=match):
            decode_task(obj, _cycle_graphs())

    @pytest.mark.parametrize("case", list(WRONG_TYPE))
    def test_flag_or_count_of_the_wrong_type_rejected(self, case):
        with pytest.raises(WireDecodeError, match="must be"):
            decode_task(_edited_task(*WRONG_TYPE[case]), _cycle_graphs())

    @pytest.mark.parametrize("case", list(MALFORMED_STATE))
    def test_state_that_does_not_fit_the_rule_rejected(self, case):
        with pytest.raises(WireDecodeError, match="task state"):
            decode_task(_cycle_rule_task(*MALFORMED_STATE[case]), _cycle_graphs())

    @pytest.mark.parametrize("max_rounds", ["7", -3, True, 2.9])
    def test_max_rounds_must_be_a_non_negative_int(self, max_rounds):
        obj = _cycle_task()
        obj["max_rounds"] = max_rounds
        with pytest.raises(WireDecodeError, match="max_rounds"):
            decode_task(obj, _cycle_graphs())

    @pytest.mark.parametrize("case", list(_well_formed_states()))
    def test_well_formed_state_decodes_and_runs(self, case):
        rule, state = _well_formed_states()[case]
        obj = _cycle_rule_task(rule, state)
        for max_rounds in (None, 0, 5):
            obj["max_rounds"] = max_rounds
            task = decode_task(obj, _cycle_graphs())
            assert np.array_equal(task.state, state)
            assert task.max_rounds == max_rounds
            result = run_shard(task)
            assert max_rounds is None or result.rounds_run <= max_rounds


class TestAttachTrace:
    """The optional trace-context frame key (cross-host stitching)."""

    def test_no_context_is_byte_identical(self):
        """Untraced frames encode exactly as before the key existed:
        same bytes on the wire.  The trace key never moved the version;
        version 2 is the graph-ref and packed-boolean encoding."""
        import json

        frame = {"type": "submit", "job_id": "j1", "tasks": []}
        reference = json.dumps(frame, sort_keys=True)
        out = attach_trace(frame, None)
        assert out is frame
        assert json.dumps(frame, sort_keys=True) == reference
        assert "trace" not in frame
        assert WIRE_VERSION == 2

    def test_context_attaches_wire_dict(self):
        from repro.telemetry import TraceContext

        frame = {"type": "submit"}
        attach_trace(frame, TraceContext(trace_id="T", parent_span_id="P"))
        assert frame["trace"] == {"id": "T", "parent": "P"}

    def test_plain_dict_relays_unchanged(self):
        # The broker relays the stored wire dict without re-decoding.
        frame = {"type": "lease-reply"}
        attach_trace(frame, {"id": "T", "parent": "P"})
        assert frame["trace"] == {"id": "T", "parent": "P"}

    def test_attached_frame_round_trips_to_context(self):
        from repro.telemetry import TraceContext

        frame = {}
        attach_trace(frame, TraceContext(trace_id="T", parent_span_id=None))
        assert TraceContext.from_wire(frame.get("trace")) == TraceContext(
            trace_id="T", parent_span_id=None
        )

    def test_empty_dict_attaches_nothing(self):
        frame = {}
        attach_trace(frame, {})
        assert "trace" not in frame


class TestEndpoints:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("127.0.0.1:7603", ("127.0.0.1", 7603)),
            ("example.org:80", ("example.org", 80)),
            ("7603", ("127.0.0.1", 7603)),
            (":7603", ("127.0.0.1", 7603)),
            (("10.0.0.1", 99), ("10.0.0.1", 99)),
        ],
    )
    def test_parse_endpoint(self, spec, expected):
        assert parse_endpoint(spec) == expected

    def test_shared_graph_rejected(self):
        g = petersen_graph()
        handle = g.to_shared()
        try:
            with pytest.raises(TypeError, match="SharedGraph"):
                _encode_topology(handle)
        finally:
            handle.unlink()
            handle.close()
