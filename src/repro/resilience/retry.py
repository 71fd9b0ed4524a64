"""Retries for flaky transports.

:class:`RetryPolicy` retries a callable under capped exponential
backoff with *deterministic* jitter: the schedule is a pure function of
the policy, so every process sleeps the same schedule and chaos runs
replay exactly.  Each call starts afresh; nothing is carried from one
call to the next.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.resilience.faults import _hash01
from repro.telemetry import get_telemetry

__all__ = ["RetryPolicy", "RetryError"]


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
    """Capped exponential backoff with deterministic jitter.

    ``attempts`` bounds total tries (1 = no retries).  Delay before
    retry *k* (1-based) is ``base_delay_s * 2**(k-1)`` capped at
    ``max_delay_s``, scaled by a jitter factor in
    ``[1-jitter, 1+jitter]`` derived from ``sha256(seed, attempt)``.
    Only ``OSError`` exceptions (connection errors and timeouts among
    them) are retried; everything else propagates.
    """

    attempts: int = 4
    base_delay_s: float = 0.1
    max_delay_s: float = 2.0
    jitter: float = 0.5

    def delay_s(self, attempt: int, seed: int = 0) -> float:
        """Backoff before retry *attempt* (1-based), jittered by *seed*."""
        capped = min(self.base_delay_s * 2.0 ** (attempt - 1), self.max_delay_s)
        if self.jitter <= 0.0:
            return capped
        u = _hash01(seed, "retry-jitter", "delay", attempt)
        return capped * (1.0 + self.jitter * (2.0 * u - 1.0))

    def run(self, fn, *, what: str = "operation", sleep=time.sleep):
        """Call *fn* until it succeeds or the policy is exhausted.

        Sleeps :meth:`delay_s` (seed 0) before each retry and raises
        :class:`RetryError` (chaining the final exception) once
        ``attempts`` tries are spent.  Non-retryable exceptions
        propagate immediately.
        """
        tel = get_telemetry()
        attempts = max(1, self.attempts)
        for attempt in range(1, attempts + 1):
            try:
                return fn()
            except OSError as exc:
                last = exc
            if attempt == attempts:
                break
            delay = self.delay_s(attempt)
            tel.count("retry.retries")
            if tel.enabled:
                tel.event(
                    "retry.attempt", what=what, attempt=attempt, delay_s=delay
                )
            sleep(delay)
        tel.count("retry.giveups")
        raise RetryError(what, attempt, last) from last
