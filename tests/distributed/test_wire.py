"""Wire-format round-trip tests (property-based where it pays).

The contract: ``decode(encode(x))`` rebuilds an object whose re-
encoding is byte-identical (canonical form is a fixed point), and a
decoded task *executes* identically to the original — the distributed
determinism guarantee reduces to exactly this.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.branching import BernoulliBranching, FixedBranching, make_policy
from repro.distributed import (
    WIRE_VERSION,
    WireDecodeError,
    attach_trace,
    canonical_bytes,
    decode_result,
    decode_task,
    encode_result,
    encode_task,
    parse_endpoint,
    task_key,
)
from repro.distributed.wire import (
    _decode_array,
    _decode_seed,
    _decode_topology,
    _encode_array,
    _encode_seed,
    _encode_topology,
)
from repro.dynamics import (
    ChurnSequence,
    EdgeMarkovianSequence,
    FrozenSequence,
    RewiringSequence,
    SnapshotSchedule,
)
from repro.engine import (
    BipsRule,
    CobraRule,
    PullRule,
    PushPullRule,
    PushRule,
    SpreadEngine,
    WalkRule,
)
from repro.engine.completion import AllActive, AllVertices, TargetHit
from repro.graphs import cycle_graph, petersen_graph, random_regular_graph
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
        back = decode_task(encode_task(task))
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
        back = decode_task(encode_task(task))
        assert type(back.completion) is type(completion)
        if isinstance(completion, TargetHit):
            assert back.completion.target == completion.target

    def test_legacy_bips_discipline(self):
        # BIPS had two layouts once; a peer may still send the key.
        obj = encode_task(_task(rule=BipsRule(make_policy(2), source=3)))
        assert "discipline" not in obj["rule"]
        obj["rule"]["discipline"] = "batch"
        assert isinstance(decode_task(obj).rule, BipsRule)
        obj["rule"]["discipline"] = "single"
        with pytest.raises(WireDecodeError, match="discipline"):
            decode_task(obj)
        # Flooding was a rule once, with two runs per packed uint8 plane.
        obj = _cycle_rule_task(PullRule(), np.zeros((2, 8), dtype=bool))
        obj["rule"] = {"kind": "flooding", "runs": 2, "reflood": False}
        obj["state"] = _encode_array(np.zeros((2, 8), dtype=np.uint8))
        with pytest.raises(WireDecodeError, match="unknown spread rule kind 'flooding'"):
            decode_task(obj)

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
        back = _decode_topology(_encode_topology(g))
        assert back == g
        assert back.name == g.name
        assert np.array_equal(back.degrees, g.degrees)

    def test_sequences_replay_identically(self):
        for seq in self.seqs():
            back = _decode_topology(_encode_topology(seq))
            for t in (0, 1, 3, 7):
                assert back.graph_at(t) == seq.graph_at(t), (seq.name, t)

    def test_advanced_sequence_ships_from_round_zero(self):
        # Encoding a sequence that already materialised snapshots must
        # still replay the identical realisation remotely.
        seq = RewiringSequence(_graph(), 2, seed=13)
        expected = [seq.graph_at(t) for t in range(6)]
        back = _decode_topology(_encode_topology(seq))
        assert [back.graph_at(t) for t in range(6)] == expected

    def test_snapshot_schedule_rejected(self):
        g = petersen_graph()
        with pytest.raises(TypeError, match="not wire-encodable"):
            _encode_topology(SnapshotSchedule([g]))

    def test_adversarial_sequence_round_trips_as_replay_spec(self):
        from repro.adversary import ADVERSARY_KINDS, AdversarialSequence, make_adversary

        base = _graph()
        for kind in ADVERSARY_KINDS:
            seq = AdversarialSequence(
                base, make_adversary(kind, 4, source=1), 9, swaps_per_round=2
            )
            back = _decode_topology(_encode_topology(seq))
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
            got = run_shard(decode_task(encode_task(task)))
            assert np.array_equal(got.finish_times, ref.finish_times)
            assert np.array_equal(got.hit_times, ref.hit_times)
            assert np.array_equal(got.final_state, ref.final_state)

    def test_version_mismatch_rejected(self):
        obj = encode_task(_task())
        obj["v"] = WIRE_VERSION + 1
        with pytest.raises(ValueError, match="wire version"):
            decode_task(obj)

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
        encoded = encode_task(_task())
        assert "backend" not in encoded
        assert encoded["v"] == WIRE_VERSION
        ref = run_shard(decode_task(encoded))
        got = run_shard(decode_task({**encoded, "backend": "bitplane"}))
        assert np.array_equal(got.finish_times, ref.finish_times)
        assert np.array_equal(got.final_state, ref.final_state)


def _cycle_task(key=None, edit=None):
    """An encoded two-run COBRA task on cycle-8; ``edit`` rewrites the
    graph field ``key`` (``"m"`` or one of the CSR arrays)."""
    state = np.zeros((2, 8), dtype=bool)
    state[:, 0] = True
    obj = encode_task(
        ShardTask(
            rule=CobraRule(make_policy(2), lazy=True),
            topology=cycle_graph(8),
            completion=AllVertices(),
            state=state,
            seed=np.random.SeedSequence(42),
        )
    )
    graph = obj["topology"]
    if key == "m":
        graph["m"] = edit(graph["m"])
    elif key is not None:
        graph[key] = _encode_array(edit(_decode_array(graph[key])))
    return obj


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
}


class TestGraphValidation:
    """A sender's CSR is checked on decode, never trusted.

    Each malformation decoded silently before: a negative index ran as
    another graph (numpy wraps -1 to vertex 7), the others reached
    ``Graph._from_csr`` and ran or failed inside the kernel.
    """

    @pytest.mark.parametrize("case", list(MALFORMED_CSR))
    def test_malformed_csr_rejected(self, case):
        with pytest.raises(WireDecodeError, match="graph"):
            decode_task(_cycle_task(*MALFORMED_CSR[case]))

    def test_well_formed_csr_decodes_to_the_same_graph(self):
        graph = cycle_graph(8)
        task = decode_task(_cycle_task())
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
    "walk-int32": (WalkRule(2), _walkers(0, 1).astype(np.int32)),
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
    """A task's state and round cap are checked on decode, never trusted.

    Each malformation decoded on the previous wire: a width-9 or int64
    COBRA state ran to finish times [13, 6], and ``max_rounds`` of
    ``"7"``, ``-3``, ``True`` and ``2.9`` ran 7, 0, 1 and 2 rounds.
    """

    @pytest.mark.parametrize("case", list(MALFORMED_STATE))
    def test_state_that_does_not_fit_the_rule_rejected(self, case):
        with pytest.raises(WireDecodeError, match="task state"):
            decode_task(_cycle_rule_task(*MALFORMED_STATE[case]))

    @pytest.mark.parametrize("max_rounds", ["7", -3, True, 2.9])
    def test_max_rounds_must_be_a_non_negative_int(self, max_rounds):
        obj = _cycle_task()
        obj["max_rounds"] = max_rounds
        with pytest.raises(WireDecodeError, match="max_rounds"):
            decode_task(obj)

    @pytest.mark.parametrize("case", list(_well_formed_states()))
    def test_well_formed_state_decodes_and_runs(self, case):
        rule, state = _well_formed_states()[case]
        obj = _cycle_rule_task(rule, state)
        for max_rounds in (None, 0, 5):
            obj["max_rounds"] = max_rounds
            task = decode_task(obj)
            assert np.array_equal(task.state, state)
            assert task.max_rounds == max_rounds
            result = run_shard(task)
            assert max_rounds is None or result.rounds_run <= max_rounds


class TestAttachTrace:
    """The optional trace-context frame key (cross-host stitching)."""

    def test_no_context_is_byte_identical(self):
        """Untraced frames encode exactly as before the key existed:
        same bytes on the wire, no version bump."""
        import json

        frame = {"type": "submit", "job_id": "j1", "tasks": []}
        reference = json.dumps(frame, sort_keys=True)
        out = attach_trace(frame, None)
        assert out is frame
        assert json.dumps(frame, sort_keys=True) == reference
        assert "trace" not in frame
        assert WIRE_VERSION == 1

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


class TestEngineIntegration:
    def test_static_topology_encodes_as_plain_graph(self):
        g = _graph()
        engine = SpreadEngine(CobraRule(make_policy(2)), g)
        direct = canonical_bytes(_encode_topology(g))
        wrapped = canonical_bytes(_encode_topology(engine.topology))
        assert direct == wrapped
