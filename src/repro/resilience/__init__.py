"""repro.resilience — chaos engineering and recovery for the distributed tier.

Three pieces, layered under :mod:`repro.distributed`:

* :mod:`~repro.resilience.faults` — a deterministic, seed-driven
  :class:`FaultPlan` (frame drop/corrupt/duplicate/delay, worker kill,
  heartbeat stall, connection refusal, client crash) whose injection
  hooks sit behind a zero-cost no-op default, so any chaos run replays
  bit-for-bit from one seed;
* :mod:`~repro.resilience.retry` — :class:`RetryPolicy`, capped
  exponential backoff on a fixed, deterministically jittered schedule;
  every call runs it afresh, so no call depends on an earlier one;
* :mod:`~repro.resilience.chaos` — the seeded fault-matrix harness
  behind ``repro chaos``, asserting bit-identity between every faulted
  run and the fault-free reference.

Resuming needs no piece of its own: every finished shard is stored in
the content-addressed result cache as it arrives, so a rerun serves it
from there (see :func:`repro.parallel.execute_cached`).

Module-level :func:`configure` installs the process's fallback mode,
which ``endpoint=`` entry points pick up when their ``fallback``
argument is left at ``"default"`` — this is how the CLI's
``--fallback`` flag reaches :func:`repro.parallel.execute_cached`
without threading it through every signature.
"""

from __future__ import annotations

from .faults import (
    FaultPlan,
    FaultRule,
    InjectedCrash,
    InjectedFault,
    active_fault_plan,
    clear_fault_plan,
    fault_injection,
    install_fault_plan,
)
from .retry import RetryError, RetryPolicy

__all__ = [
    "FaultPlan",
    "FaultRule",
    "InjectedCrash",
    "InjectedFault",
    "active_fault_plan",
    "clear_fault_plan",
    "fault_injection",
    "install_fault_plan",
    "RetryPolicy",
    "RetryError",
    "configure",
    "resolve_fallback",
]

_FALLBACK: str | None = None


def configure(*, fallback) -> None:
    """Install the process-wide fallback mode for ``endpoint=`` callers.

    ``fallback`` is ``"local"``, ``"none"`` or None (the built-in
    default, which propagates the error).
    """
    global _FALLBACK
    _FALLBACK = fallback


def resolve_fallback(spec) -> str | None:
    """Coerce a fallback spec into ``"local"`` or ``None``.

    ``"default"`` consults :func:`configure`; ``"none"`` and ``None``
    disable fallback.
    """
    if spec == "default":
        spec = _FALLBACK
    if spec is None or spec == "none":
        return None
    if spec == "local":
        return "local"
    raise ValueError(f"unknown fallback mode {spec!r}: expected 'local' or 'none'")
