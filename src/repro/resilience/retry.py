"""Retry policies and circuit breakers for flaky transports.

:class:`RetryPolicy` retries a callable under capped exponential
backoff with *deterministic* seeded jitter — two processes given the
same seed sleep identical schedules, so chaos runs replay exactly.
:class:`CircuitBreaker` counts consecutive failures per broker endpoint
and, once tripped, fail-fasts further attempts until a cooldown lapses,
which is what lets ``fallback="local"`` detect a dead broker quickly
instead of grinding through full retry schedules per shard batch.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.resilience.faults import _hash01
from repro.telemetry import get_telemetry

__all__ = [
    "RetryPolicy",
    "RetryError",
    "CircuitBreaker",
    "BREAKER_STATE_VALUES",
    "breaker_for",
    "breaker_states",
    "reset_breakers",
]

#: Gauge encoding of breaker states on ``/metrics``
#: (``retry.breaker.state``, read at scrape time): closed=0,
#: half-open=1, open=2.
BREAKER_STATE_VALUES = {"closed": 0.0, "half-open": 1.0, "open": 2.0}


class RetryError(ConnectionError):
    """Raised when a retry budget is exhausted; chains the last error."""

    def __init__(self, what: str, attempts: int, last: BaseException):
        super().__init__(
            f"{what}: giving up after {attempts} attempt(s): {last!r}"
        )
        self.what = what
        self.attempts = attempts
        self.last = last


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic seeded jitter.

    ``attempts`` bounds total tries (1 = no retries).  Delay before
    retry *k* (1-based) is ``base_delay_s * multiplier**(k-1)`` capped
    at ``max_delay_s``, scaled by a jitter factor in
    ``[1-jitter, 1+jitter]`` derived from ``sha256(seed, attempt)``.
    ``budget_s`` optionally bounds cumulative sleep.  Only exceptions
    matching ``retry_on`` are retried; everything else propagates.
    """

    attempts: int = 4
    base_delay_s: float = 0.1
    max_delay_s: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    budget_s: float | None = None
    retry_on: tuple[type[BaseException], ...] = (
        ConnectionError,
        TimeoutError,
        OSError,
    )

    def delay_s(self, attempt: int, seed: int = 0) -> float:
        """Backoff before retry *attempt* (1-based), jittered by *seed*."""
        raw = self.base_delay_s * self.multiplier ** (attempt - 1)
        capped = min(raw, self.max_delay_s)
        if self.jitter <= 0.0:
            return capped
        u = _hash01(seed, "retry-jitter", "delay", attempt)
        return capped * (1.0 + self.jitter * (2.0 * u - 1.0))

    def run(
        self,
        fn,
        *,
        seed: int = 0,
        what: str = "operation",
        sleep=time.sleep,
        on_retry=None,
    ):
        """Call *fn* until it succeeds or the policy is exhausted.

        Raises :class:`RetryError` (chaining the final exception) once
        ``attempts`` tries or the sleep ``budget_s`` is spent.
        Non-retryable exceptions propagate immediately.  ``on_retry``
        (if given) is called with ``(attempt, delay, error)`` before
        each sleep.
        """
        tel = get_telemetry()
        slept = 0.0
        last: BaseException | None = None
        for attempt in range(1, max(1, self.attempts) + 1):
            try:
                return fn()
            except self.retry_on as exc:
                last = exc
            if attempt >= max(1, self.attempts):
                break
            delay = self.delay_s(attempt, seed)
            if self.budget_s is not None and slept + delay > self.budget_s:
                break
            tel.count("retry.retries")
            if tel.enabled:
                tel.event(
                    "retry.attempt", what=what, attempt=attempt, delay_s=delay
                )
            if on_retry is not None:
                on_retry(attempt, delay, last)
            sleep(delay)
            slept += delay
        tel.count("retry.giveups")
        assert last is not None
        raise RetryError(what, attempt, last) from last


class CircuitBreaker:
    """Consecutive-failure circuit breaker with half-open probing.

    Closed → (``failure_threshold`` consecutive failures) → open →
    (after ``cooldown_s``) → half-open, which admits a single probe:
    success closes the breaker, failure reopens it for another
    cooldown.
    """

    def __init__(
        self,
        key: str = "",
        *,
        failure_threshold: int = 5,
        cooldown_s: float = 5.0,
        clock=time.monotonic,
    ):
        self.key = key
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: float | None = None
        self._probing = False

    @property
    def state(self) -> str:
        """Current state: ``"closed"``, ``"open"``, or ``"half-open"``."""
        with self._lock:
            if self._opened_at is None:
                return "closed"
            if self._clock() - self._opened_at >= self.cooldown_s:
                return "half-open"
            return "open"

    def allow(self) -> bool:
        """True if a call may proceed (closed, or the half-open probe)."""
        with self._lock:
            if self._opened_at is None:
                return True
            if self._clock() - self._opened_at < self.cooldown_s:
                return False
            if self._probing:
                return False
            self._probing = True
            return True

    def record_success(self) -> None:
        """Note a successful call: closes the breaker."""
        with self._lock:
            self._failures = 0
            self._opened_at = None
            self._probing = False

    def record_failure(self) -> None:
        """Note a failed call; trips the breaker at the threshold."""
        with self._lock:
            self._probing = False
            tripped = False
            if self._opened_at is not None:
                # Failed probe: restart the cooldown window.
                self._opened_at = self._clock()
            else:
                self._failures += 1
                if self._failures >= self.failure_threshold:
                    self._opened_at = self._clock()
                    tripped = True
        if tripped:
            tel = get_telemetry()
            tel.count("retry.breaker_trips")
            if tel.enabled:
                tel.event("retry.breaker_open", key=self.key)


_BREAKERS: dict[str, CircuitBreaker] = {}
_BREAKERS_LOCK = threading.Lock()


def breaker_for(key: str, **kwargs) -> CircuitBreaker:
    """Return the process-wide breaker for *key*, creating it on demand."""
    with _BREAKERS_LOCK:
        breaker = _BREAKERS.get(key)
        if breaker is None:
            breaker = CircuitBreaker(key, **kwargs)
            _BREAKERS[key] = breaker
        return breaker


def breaker_states() -> dict[str, str]:
    """A snapshot of every registered breaker's current state by key."""
    with _BREAKERS_LOCK:
        breakers = list(_BREAKERS.items())
    return {key: breaker.state for key, breaker in breakers}


def reset_breakers() -> None:
    """Drop all registered breakers (test isolation helper)."""
    with _BREAKERS_LOCK:
        _BREAKERS.clear()
