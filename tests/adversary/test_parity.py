"""Adversarial runs are bit-identical across every execution mode.

The acceptance contract of the adversary subsystem: the same
``(topo_seed, proc_seed)`` produces the same samples whether the
shards run serially in-process (``run_sharded(workers=1)``), across a
local pool (``workers=2``), or on a broker's worker fleet
(``run_distributed`` with two worker processes) — the adversarial
sequence travelling as a pickled clone locally and as a seeded wire
replay spec remotely.
"""

import multiprocessing as mp

import numpy as np
import pytest

from repro.adversary import AdversarialSequence, make_adversary
from repro.core.branching import make_policy
from repro.distributed import Broker
from repro.distributed.wire import GraphCache, decode_task, encode_task, graph_blobs
from repro.distributed.worker import run_worker
from repro.dynamics import dynamic_cover_time_samples, dynamic_infection_time_samples
from repro.engine import BipsRule, CobraRule, SpreadEngine
from repro.graphs import random_regular_graph
from repro.parallel import ShardTask, run_shard

RUNS = 40
MAX_SHARD = 8  # several shards even at tiny run counts
# Isolating churn keeps every run from covering, so its runs go to the
# round cap; 300 rounds still span dozens of churn/readmission cycles
# at the default downtime of 8.
MAX_ROUNDS = 300
_CTX = mp.get_context("fork")


def _base():
    return random_regular_graph(24, 4, rng=11)


def _sequence(kind="greedy-cut", budget=4, seed=77):
    return AdversarialSequence(
        _base(), make_adversary(kind, budget), seed, swaps_per_round=2
    )


def _engine_state(rule, seq):
    state = np.zeros((RUNS, seq.n), dtype=bool)
    state[:, 0] = True
    return SpreadEngine(rule, seq), state


@pytest.mark.parametrize("kind", ["greedy-cut", "isolating-churn", "adaptive-rri"])
def test_serial_vs_pool_workers(kind):
    seq = _sequence(kind)
    engine, state = _engine_state(CobraRule(make_policy(2)), seq)
    kwargs = dict(track_hits=True, max_shard=MAX_SHARD, max_rounds=MAX_ROUNDS)
    serial = engine.run_sharded(state, 123, workers=1, **kwargs)
    pooled = engine.run_sharded(state, 123, workers=2, **kwargs)
    assert np.array_equal(serial.finish_times, pooled.finish_times)
    assert np.array_equal(serial.hit_times, pooled.hit_times)
    assert np.array_equal(serial.final_state, pooled.final_state)


def test_wire_round_trip_executes_identically():
    seq = _sequence("moving-source", budget=6)
    rule = BipsRule(make_policy(2), source=0)
    engine, state = _engine_state(rule, seq)
    task = ShardTask(
        rule=rule,
        topology=seq.fresh_replay(),
        completion=engine.completion,
        state=state[:8],
        seed=np.random.SeedSequence(5),
    )
    direct = run_shard(task)
    decoded = run_shard(decode_task(encode_task(task), GraphCache(graph_blobs([task]).get)))
    assert np.array_equal(direct.finish_times, decoded.finish_times)
    assert np.array_equal(direct.final_state, decoded.final_state)


def test_distributed_matches_serial_reference():
    seq = _sequence("greedy-cut", budget=4)
    engine, state = _engine_state(CobraRule(make_policy(2)), seq)
    reference = engine.run_sharded(
        state, 123, workers=1, track_hits=True, max_shard=MAX_SHARD
    )
    with Broker(lease_timeout=15.0) as broker:
        procs = [
            _CTX.Process(
                target=run_worker,
                args=(broker.address,),
                kwargs={"poll_interval": 0.05},
                daemon=True,
            )
            for _ in range(2)
        ]
        for proc in procs:
            proc.start()
        try:
            got = engine.run_distributed(
                state,
                123,
                endpoint=broker.address,
                track_hits=True,
                max_shard=MAX_SHARD,
                cache=None,
            )
        finally:
            for proc in procs:
                proc.terminate()
            for proc in procs:
                proc.join(timeout=5)
    assert np.array_equal(got.finish_times, reference.finish_times)
    assert np.array_equal(got.hit_times, reference.hit_times)
    assert np.array_equal(got.final_state, reference.final_state)


def test_shared_sequence_sampler_parity():
    # A realised adversarial sequence passed to the sampler: the tier
    # picks where the runs execute, never what they draw.
    seq = _sequence("greedy-cut", budget=4)
    serial = dynamic_cover_time_samples(seq, RUNS, seed=3)
    pooled = dynamic_cover_time_samples(seq, RUNS, seed=3, workers=2)
    assert np.array_equal(serial, pooled)


def test_shared_instance_shards_get_fresh_replays():
    # One sequence object passed (not a factory): every shard must
    # drive its own pristine replay instead of clashing on one log.
    seq = _sequence("greedy-cut", budget=4)
    times = dynamic_cover_time_samples(seq, RUNS, seed=3, workers=1)
    again = dynamic_cover_time_samples(seq.fresh_replay(), RUNS, seed=3, workers=1)
    assert np.array_equal(times, again)


def test_factory_refuses_a_fleet():
    # A factory realises one sequence per run, in this process.
    def factory(topology_seed):
        return _sequence("greedy-cut", budget=4, seed=topology_seed)

    with pytest.raises(ValueError, match="factory"):
        dynamic_infection_time_samples(factory, RUNS, seed=3, workers=2)


@pytest.mark.parametrize("completion", ["all-vertices", "all-active"])
@pytest.mark.parametrize("process", ["cobra", "bips"])
@pytest.mark.parametrize(
    "kind", ["greedy-cut", "isolating-churn", "moving-source", "adaptive-rri"]
)
def test_recording_does_not_change_what_the_adversary_sees(kind, process, completion):
    # Hit times, sizes and visited counts are read-outs: asking for them
    # must not hand the adversary a visited set it would not otherwise see.
    rule = (
        CobraRule(make_policy(2))
        if process == "cobra"
        else BipsRule(make_policy(2), source=0)
    )
    seq = AdversarialSequence(
        random_regular_graph(128, 4, rng=11),
        make_adversary(kind, 8),
        77,
        swaps_per_round=26,
    )
    state = np.zeros((6, seq.n), dtype=bool)
    state[:, 0] = True
    plain, recorded = (
        SpreadEngine(rule, seq.fresh_replay(), completion).run(
            state,
            np.random.default_rng(9),
            max_rounds=MAX_ROUNDS,
            track_hits=record,
            record_sizes=record,
            record_visited=record,
        )
        for record in (False, True)
    )
    assert np.array_equal(plain.finish_times, recorded.finish_times)
    assert np.array_equal(plain.final_state, recorded.final_state)
