"""FaultPlan unit tests: determinism, rule bookkeeping, installation.

The contract under test: every injection decision is a pure function of
``(seed, kind, site, counter)``, so two plans built with the same
arguments make byte-identical decisions in any process — which is what
makes a faulted run replayable from one integer.  A plan is active only
where one was installed explicitly: nothing in the environment installs
one.
"""

import multiprocessing as mp
import struct
import threading

import numpy as np
import pytest

from repro.core.branching import make_policy
from repro.distributed import Broker, run_worker
from repro.engine import CobraRule, SpreadEngine
from repro.graphs import random_regular_graph
from repro.resilience import (
    FaultPlan,
    FaultRule,
    active_fault_plan,
    fault_injection,
    install_fault_plan,
)


def _decisions(plan, site, n=40):
    return [plan.frame_fault(site) for _ in range(n)]


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        def make():
            return FaultPlan(seed=7, drop=FaultRule(rate=0.3))

        assert _decisions(make(), "worker.send") == _decisions(
            make(), "worker.send"
        )

    def test_different_seeds_diverge(self):
        a = _decisions(FaultPlan(seed=1, drop=FaultRule(rate=0.5)), "s")
        b = _decisions(FaultPlan(seed=2, drop=FaultRule(rate=0.5)), "s")
        assert a != b

    def test_sites_have_independent_streams(self):
        plan = FaultPlan(seed=3, drop=FaultRule(rate=0.5))
        assert _decisions(plan, "worker.send") != _decisions(
            plan, "client.send"
        )

    def test_rate_zero_never_fires_rate_one_always(self):
        silent = FaultPlan(seed=5, drop=FaultRule(rate=0.0))
        assert _decisions(silent, "s") == [None] * 40
        loud = FaultPlan(seed=5, drop=FaultRule(rate=1.0))
        assert _decisions(loud, "s") == ["drop"] * 40


class TestRuleBookkeeping:
    def test_limit_caps_injections(self):
        plan = FaultPlan(seed=0, drop=FaultRule(rate=1.0, limit=3))
        fired = [f for f in _decisions(plan, "s") if f is not None]
        assert len(fired) == 3

    def test_after_skips_leading_events(self):
        plan = FaultPlan(seed=0, drop=FaultRule(rate=1.0, after=5))
        got = _decisions(plan, "s", n=8)
        assert got[:5] == [None] * 5
        assert got[5:] == ["drop"] * 3

    def test_sites_filter(self):
        plan = FaultPlan(
            seed=0, drop=FaultRule(rate=1.0, sites=("worker.send",))
        )
        assert plan.frame_fault("client.send") is None
        assert plan.frame_fault("worker.send") == "drop"

    def test_priority_order_drop_wins(self):
        plan = FaultPlan(
            seed=0,
            drop=FaultRule(rate=1.0),
            corrupt=FaultRule(rate=1.0),
        )
        assert plan.frame_fault("s") == "drop"

    def test_crash_client_fires_once(self):
        plan = FaultPlan(seed=0, crash_client_after_done=2)
        assert not plan.crash_client(1)
        assert plan.crash_client(2)
        assert not plan.crash_client(3)  # at most one crash per plan

    def test_kill_worker_threshold(self):
        plan = FaultPlan(seed=0, kill_worker_after_leases=2)
        assert not plan.kill_worker(1)
        assert plan.kill_worker(2)
        assert not FaultPlan(seed=0).kill_worker(100)


class TestCorruptPayload:
    def test_preserves_header_and_length(self):
        plan = FaultPlan(seed=9, corrupt=FaultRule(rate=1.0))
        payload = struct.pack(">I", 20) + b'{"v": 1, "abcdefghij"'
        mangled = plan.corrupt_payload(payload, "s")
        assert len(mangled) == len(payload)
        assert mangled[:4] == payload[:4]
        assert mangled[4:] != payload[4:]

    def test_deterministic_flips(self):
        payload = struct.pack(">I", 16) + b"0123456789abcdef"
        a = FaultPlan(seed=4, corrupt=FaultRule(rate=1.0))
        b = FaultPlan(seed=4, corrupt=FaultRule(rate=1.0))
        assert a.corrupt_payload(payload, "s") == b.corrupt_payload(
            payload, "s"
        )

    def test_header_only_payload_untouched(self):
        plan = FaultPlan(seed=0, corrupt=FaultRule(rate=1.0))
        assert plan.corrupt_payload(b"\x00\x00\x00\x00", "s") == b"\x00\x00\x00\x00"


class TestInstallation:
    def test_default_is_no_plan(self):
        assert active_fault_plan() is None

    def test_install_and_clear(self):
        plan = FaultPlan(seed=1)
        install_fault_plan(plan)
        try:
            assert active_fault_plan() is plan
        finally:
            install_fault_plan(None)
        assert active_fault_plan() is None

    def test_context_manager_restores_previous(self):
        outer = FaultPlan(seed=1)
        inner = FaultPlan(seed=2)
        with fault_injection(outer):
            with fault_injection(inner):
                assert active_fault_plan() is inner
            assert active_fault_plan() is outer
        assert active_fault_plan() is None

    def test_none_plan_context_is_noop(self):
        with fault_injection(None):
            assert active_fault_plan() is None


def _closed_port() -> int:
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_worker_plan_lasts_only_for_the_call():
    # run_worker(faults=) installs its plan process-wide while it runs;
    # a worker whose first dial is refused must leave the plan it found.
    plan = FaultPlan(seed=3, kill_worker_after_leases=1)
    endpoint = f"127.0.0.1:{_closed_port()}"
    with pytest.raises(ConnectionRefusedError):
        run_worker(endpoint, connect_retries=0, faults=plan)
    assert active_fault_plan() is None
    outer = FaultPlan(seed=4)
    with fault_injection(outer):
        with pytest.raises(ConnectionRefusedError):
            run_worker(endpoint, connect_retries=0, faults=plan)
        assert active_fault_plan() is outer


def test_worker_ignores_a_kill_plan_in_its_environment(monkeypatch):
    # A worker installs only the plan faults= gives it, so a kill plan
    # left in the environment must not end it on its first lease.
    monkeypatch.setenv("REPRO_FAULT_PLAN", '{"kill_worker_after_leases": 1, "seed": 0}')
    graph = random_regular_graph(32, 4, rng=5)
    engine = SpreadEngine(CobraRule(make_policy(2)), graph)
    state = np.zeros((12, graph.n), dtype=bool)
    state[:, 0] = True
    reference = engine.run_sharded(state, 3, workers=1, max_shard=4)
    got = []
    with Broker(lease_timeout=15.0) as broker:
        worker = mp.get_context("fork").Process(
            target=run_worker,
            args=(broker.address,),
            kwargs={"poll_interval": 0.05, "max_tasks": 3},
            daemon=True,
        )
        worker.start()
        client = threading.Thread(
            target=lambda: got.append(
                engine.run_distributed(
                    state, 3, endpoint=broker.address, max_shard=4, cache=None
                )
            ),
            daemon=True,
        )
        client.start()
        worker.join(timeout=30)
        if worker.is_alive():
            worker.terminate()
            worker.join()
        client.join(timeout=30)
    assert worker.exitcode == 0
    assert len(got) == 1
    assert np.array_equal(got[0].finish_times, reference.finish_times)
    assert np.array_equal(got[0].final_state, reference.final_state)


class TestWireIntegration:
    def test_no_plan_leaves_frames_byte_identical(self):
        # The zero-cost default: without an installed plan, send_frame
        # produces exactly the bytes it always did.
        import socket

        from repro.distributed.wire import send_frame

        def frame_bytes():
            a, b = socket.socketpair()
            try:
                send_frame(a, {"v": 1, "x": [1, 2, 3]}, site="worker.send")
                return b.recv(4096)
            finally:
                a.close()
                b.close()

        baseline = frame_bytes()
        assert active_fault_plan() is None
        assert frame_bytes() == baseline

    def test_drop_raises_injected_fault(self):
        import socket

        from repro.resilience import InjectedFault
        from repro.distributed.wire import send_frame

        plan = FaultPlan(seed=0, drop=FaultRule(rate=1.0))
        a, b = socket.socketpair()
        try:
            with fault_injection(plan):
                with pytest.raises(InjectedFault) as err:
                    send_frame(a, {"v": 1}, site="worker.send")
            assert err.value.kind == "drop"
            assert err.value.site == "worker.send"
            assert isinstance(err.value, ConnectionError)
        finally:
            a.close()
            b.close()

    def test_unsited_sends_are_never_faulted(self):
        import socket

        from repro.distributed.wire import recv_frame, send_frame

        plan = FaultPlan(seed=0, drop=FaultRule(rate=1.0))
        a, b = socket.socketpair()
        try:
            with fault_injection(plan):
                send_frame(a, {"v": 1})  # no site: e.g. broker replies
            assert recv_frame(b) == {"v": 1}
        finally:
            a.close()
            b.close()
