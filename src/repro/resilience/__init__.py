"""repro.resilience — chaos engineering and recovery for the distributed tier.

Three pieces, layered under :mod:`repro.distributed`:

* :mod:`~repro.resilience.faults` — a deterministic, seed-driven
  :class:`FaultPlan` (frame drop/corrupt/duplicate/delay, worker kill,
  heartbeat stall, connection refusal, client crash) whose injection
  hooks sit behind a zero-cost no-op default, so any chaos run replays
  bit-for-bit from one seed;
* :mod:`~repro.resilience.retry` — :class:`RetryPolicy` (capped
  exponential backoff with deterministic seeded jitter, error-class
  filters, a sleep budget) plus a per-endpoint :class:`CircuitBreaker`
  that fail-fasts once a broker is plainly dead;
* :mod:`~repro.resilience.chaos` — the seeded fault-matrix harness
  behind ``repro chaos``, asserting bit-identity between every faulted
  run and the fault-free reference.

Resuming needs no piece of its own: every finished shard is stored in
the content-addressed result cache as it arrives, so a rerun serves it
from there (see :func:`repro.parallel.execute_cached`).

Module-level :func:`configure` installs process defaults (retry policy,
fallback mode) that ``endpoint=`` entry points pick up when their
keyword arguments are left at the sentinel defaults — this is how the
CLI's ``--retry-*``/``--fallback`` flags reach
:func:`repro.parallel.execute_cached` without threading every knob
through every signature.
"""

from __future__ import annotations

import os

from .faults import (
    FAULT_PLAN_ENV_VAR,
    FaultPlan,
    FaultRule,
    InjectedCrash,
    InjectedFault,
    active_fault_plan,
    clear_fault_plan,
    fault_injection,
    install_fault_plan,
)
from .retry import (
    CircuitBreaker,
    RetryError,
    RetryPolicy,
    breaker_for,
    breaker_states,
    reset_breakers,
)

__all__ = [
    "FaultPlan",
    "FaultRule",
    "InjectedCrash",
    "InjectedFault",
    "FAULT_PLAN_ENV_VAR",
    "active_fault_plan",
    "clear_fault_plan",
    "fault_injection",
    "install_fault_plan",
    "RetryPolicy",
    "RetryError",
    "CircuitBreaker",
    "breaker_for",
    "breaker_states",
    "reset_breakers",
    "configure",
    "resolve_retry",
    "resolve_fallback",
    "FALLBACK_ENV_VAR",
]

#: Environment variable selecting the degradation mode for ``endpoint=``
#: callers: ``local`` falls back to in-process sharded execution when
#: the broker is unreachable; unset/``none`` propagates the error.
FALLBACK_ENV_VAR = "REPRO_FALLBACK"

_DEFAULT_RETRY = RetryPolicy()
_DEFAULTS: dict = {"retry": None, "fallback": None}
_UNSET = object()


def configure(*, retry=_UNSET, fallback=_UNSET) -> None:
    """Install process-wide resilience defaults for ``endpoint=`` callers.

    Any argument left unset keeps its current value; pass ``None`` to
    reset one to the built-in default.  ``retry`` is a
    :class:`RetryPolicy`, ``fallback`` is ``"local"``/``"none"``/None.
    """
    if retry is not _UNSET:
        _DEFAULTS["retry"] = retry
    if fallback is not _UNSET:
        _DEFAULTS["fallback"] = fallback


def resolve_retry(spec) -> RetryPolicy:
    """Coerce a retry spec into a :class:`RetryPolicy`.

    ``"default"`` consults :func:`configure`'s installed policy, else
    the built-in ``RetryPolicy()``; ``None`` disables retries (a
    single-attempt policy); a policy instance passes through.
    """
    if spec == "default":
        configured = _DEFAULTS["retry"]
        return configured if configured is not None else _DEFAULT_RETRY
    if spec is None:
        return RetryPolicy(attempts=1)
    if isinstance(spec, RetryPolicy):
        return spec
    raise TypeError(f"expected a RetryPolicy, 'default' or None, got {spec!r}")


def resolve_fallback(spec) -> str | None:
    """Coerce a fallback spec into ``"local"`` or ``None``.

    ``"default"`` consults :func:`configure`, then the
    :data:`FALLBACK_ENV_VAR` environment variable; ``"none"`` and
    ``None`` disable fallback.
    """
    if spec == "default":
        spec = _DEFAULTS["fallback"]
        if spec is None:
            spec = os.environ.get(FALLBACK_ENV_VAR)
    if spec is None or spec == "none" or spec == "":
        return None
    if spec == "local":
        return "local"
    raise ValueError(f"unknown fallback mode {spec!r}: expected 'local' or 'none'")
