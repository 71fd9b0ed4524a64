"""RetryPolicy tests: the schedule, the loop, and what a caller sees.

Backoff schedules are asserted to be deterministic (two policies give
identical delays — the property that makes chaos runs replayable) and
pinned to their values.  Every call runs the whole policy afresh: a
dead broker costs each call its full schedule, and the worker dials at
a fixed spacing.
"""

import socket

import numpy as np
import pytest

from repro.core.branching import make_policy
from repro.distributed import BrokerUnavailable, run_worker
from repro.distributed import worker as worker_module
from repro.engine import CobraRule, SpreadEngine
from repro.graphs import hypercube_graph
from repro import resilience
from repro.resilience import RetryError, RetryPolicy, resolve_fallback
from repro.telemetry import get_telemetry


def _dead_endpoint() -> str:
    """A localhost port with nothing listening on it."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return f"127.0.0.1:{sock.getsockname()[1]}"


class TestDelaySchedule:
    def test_deterministic_in_seed(self):
        policy = RetryPolicy(base_delay_s=0.1, max_delay_s=2.0)
        a = [policy.delay_s(k, seed=42) for k in range(1, 6)]
        b = [RetryPolicy(base_delay_s=0.1, max_delay_s=2.0).delay_s(k, seed=42)
             for k in range(1, 6)]
        assert a == b

    def test_seed_changes_jitter(self):
        policy = RetryPolicy()
        assert [policy.delay_s(k, seed=1) for k in range(1, 5)] != [
            policy.delay_s(k, seed=2) for k in range(1, 5)
        ]

    def test_default_schedule_is_pinned(self):
        # The sleeps every broker call takes before retries 1..3.
        assert [RetryPolicy().delay_s(k) for k in (1, 2, 3)] == [
            0.1460874246389578,
            0.27389489761867847,
            0.5247911398744762,
        ]

    def test_exponential_growth_capped(self):
        policy = RetryPolicy(base_delay_s=0.1, max_delay_s=0.4, jitter=0.0)
        assert [policy.delay_s(k) for k in range(1, 5)] == pytest.approx(
            [0.1, 0.2, 0.4, 0.4]
        )

    def test_jitter_bounds(self):
        policy = RetryPolicy(base_delay_s=1.0, max_delay_s=1.0, jitter=0.5)
        for seed in range(30):
            d = policy.delay_s(1, seed=seed)
            assert 0.5 <= d <= 1.5


class TestRun:
    def test_succeeds_after_transient_failures(self):
        sleeps = []
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise ConnectionError("transient")
            return "ok"

        policy = RetryPolicy(attempts=4, base_delay_s=0.01, jitter=0.0)
        assert policy.run(flaky, sleep=sleeps.append) == "ok"
        assert calls["n"] == 3
        assert len(sleeps) == 2

    def test_exhaustion_raises_retry_error_chaining_last(self):
        def dead():
            raise ConnectionRefusedError("nope")

        policy = RetryPolicy(attempts=3, base_delay_s=0.01)
        with pytest.raises(RetryError) as err:
            policy.run(dead, what="dial broker", sleep=lambda _s: None)
        assert err.value.attempts == 3
        assert isinstance(err.value.last, ConnectionRefusedError)
        assert "dial broker" in str(err.value)
        assert isinstance(err.value, ConnectionError)  # catchable as such

    def test_other_errors_propagate_immediately(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise ValueError("logic bug")

        with pytest.raises(ValueError):
            RetryPolicy(attempts=5).run(broken, sleep=lambda _s: None)
        assert calls["n"] == 1

    def test_attempts_one_means_no_retry(self):
        calls = {"n": 0}

        def dead():
            calls["n"] += 1
            raise ConnectionError("x")

        with pytest.raises(RetryError):
            RetryPolicy(attempts=1).run(dead, sleep=lambda _s: None)
        assert calls["n"] == 1

    def test_counts_each_retry(self):
        tel = get_telemetry()
        before = tel.counters().get("retry.retries", 0)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 2:
                raise ConnectionError("once")
            return 1

        RetryPolicy(attempts=3, base_delay_s=0.01).run(
            flaky, sleep=lambda _s: None
        )
        assert tel.counters().get("retry.retries", 0) == before + 1


class TestFallbackMode:
    """``fallback="default"`` reads :func:`repro.resilience.configure` only."""

    @pytest.fixture(autouse=True)
    def _unconfigured(self, monkeypatch):
        # monkeypatch puts back whatever mode was installed before.
        monkeypatch.setattr(resilience, "_FALLBACK", None)

    def test_default_follows_configure(self):
        assert resolve_fallback("default") is None
        resilience.configure(fallback="local")
        assert resolve_fallback("default") == "local"
        resilience.configure(fallback="none")
        assert resolve_fallback("default") is None

    def test_explicit_mode_overrides_configure(self):
        resilience.configure(fallback="local")
        assert resolve_fallback("none") is None
        assert resolve_fallback(None) is None
        assert resolve_fallback("local") == "local"

    def test_environment_is_not_read(self, monkeypatch):
        # REPRO_FALLBACK is not a second way to set the mode.
        monkeypatch.setenv("REPRO_FALLBACK", "local")
        assert resolve_fallback("default") is None

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError, match="unknown fallback mode 'remote'"):
            resolve_fallback("remote")


def test_dead_endpoint_costs_every_call_its_whole_schedule():
    # No call is answered from an earlier one's failures: each dials
    # `attempts` times and names the dial error it gave up on.
    graph = hypercube_graph(3)
    engine = SpreadEngine(CobraRule(make_policy(2)), graph)
    state = np.zeros((4, graph.n), dtype=bool)
    state[:, 0] = True
    endpoint = _dead_endpoint()
    policy = RetryPolicy(attempts=3, base_delay_s=0.001, max_delay_s=0.001)
    tel = get_telemetry()
    calls = 6
    before = {k: tel.counters().get(k, 0) for k in ("retry.retries", "retry.giveups")}
    for _ in range(calls):
        with pytest.raises(BrokerUnavailable, match="ConnectionRefusedError"):
            engine.run_distributed(
                state, 1, endpoint=endpoint, cache=None, retry=policy,
                fallback="none",
            )
    after = {k: tel.counters().get(k, 0) for k in before}
    assert after["retry.giveups"] - before["retry.giveups"] == calls
    assert after["retry.retries"] - before["retry.retries"] == calls * 2


def test_worker_dials_at_fixed_spacing(monkeypatch):
    sleeps = []

    class Recorded(RetryPolicy):
        def run(self, fn, *, what="operation", sleep=None):
            return super().run(fn, what=what, sleep=sleeps.append)

    monkeypatch.setattr(worker_module, "RetryPolicy", Recorded)
    with pytest.raises(ConnectionRefusedError):
        run_worker(_dead_endpoint(), connect_retries=3)
    assert sleeps == [0.25, 0.25, 0.25]
