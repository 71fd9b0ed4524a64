"""repro.resilience — fault injection and recovery for the distributed tier.

Two pieces, layered under :mod:`repro.distributed`:

* :mod:`~repro.resilience.faults` — a deterministic, seed-driven
  :class:`FaultPlan` (frame drop/corrupt, worker kill, heartbeat
  stall, connection refusal, client crash) whose injection hooks sit
  behind a zero-cost no-op default, so any faulted run replays
  bit-for-bit from one seed.  A plan is installed only by code:
  :class:`fault_injection` around a client call, or
  ``run_worker(..., faults=plan)`` for a worker.  The oracle
  (``tests/test_oracle.py``) runs every fault class against a broker
  fleet and checks each faulted run against the fault-free reference;
* :mod:`~repro.resilience.retry` — :class:`RetryPolicy`, capped
  exponential backoff on a fixed, deterministically jittered schedule;
  every call runs it afresh, so no call depends on an earlier one.

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

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "faults": [
            "FaultPlan",
            "FaultRule",
            "InjectedCrash",
            "InjectedFault",
            "active_fault_plan",
            "fault_injection",
            "install_fault_plan",
        ],
        "retry": ["RetryPolicy", "RetryError"],
    },
)
__all__ += ["configure", "resolve_fallback"]

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
