"""Deterministic, seed-driven fault injection for the distributed tier.

A :class:`FaultPlan` describes *which* faults to inject (frame drops,
payload corruption, worker kills, heartbeat stalls, connection
refusals, client crashes) and *when*, using nothing but a seed and
monotonically increasing per-site counters.  Every
decision is a pure function ``sha256(seed, kind, site, counter)`` so a
faulted run is replayable bit-for-bit from the single seed — no RNG
streams to interleave, no wall-clock dependence.

The hooks in ``repro.distributed`` consult :func:`active_fault_plan`,
which returns ``None`` unless a plan was explicitly installed; the
default path is a single module-global identity check, so production
runs pay nothing.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from dataclasses import dataclass, field

__all__ = [
    "InjectedFault",
    "InjectedCrash",
    "FaultRule",
    "FaultPlan",
    "install_fault_plan",
    "active_fault_plan",
    "fault_injection",
]

_FRAME_HEADER = struct.Struct(">I")


class InjectedFault(ConnectionError):
    """A fault injected by an active :class:`FaultPlan`.

    Subclasses :class:`ConnectionError` so the recovery machinery
    (worker reconnect loops, client retries) treats an injected fault
    exactly like the real transport failure it simulates.
    """

    def __init__(self, kind: str, site: str):
        super().__init__(f"injected fault: {kind} at {site}")
        self.kind = kind
        self.site = site


class InjectedCrash(RuntimeError):
    """An injected client-process crash (abort, not a transport error).

    Deliberately *not* a :class:`ConnectionError`: retry policies must
    not swallow it.  It simulates a client killed mid-job, so resuming
    from the cache can be exercised deterministically.
    """

    def __init__(self, site: str, done: int):
        super().__init__(f"injected client crash at {site} after {done} shards")
        self.site = site
        self.done = done


@dataclass(frozen=True)
class FaultRule:
    """When a single fault kind fires.

    ``rate`` is the probability each eligible event trips the fault,
    decided deterministically from the plan seed.  ``after`` skips the
    first N eligible events, ``limit`` caps the total number of
    injections, and ``sites`` (if given) restricts the rule to the named
    injection sites (e.g. ``("worker.send",)``).
    """

    rate: float = 1.0
    limit: int | None = None
    after: int = 0
    sites: tuple[str, ...] | None = None


def _hash01(seed: int, kind: str, site: str, counter: int) -> float:
    """Map (seed, kind, site, counter) to a uniform float in [0, 1)."""
    token = f"{seed}|{kind}|{site}|{counter}".encode()
    digest = hashlib.sha256(token).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


# Frame-level fault kinds, in priority order: the first rule that fires
# for a given frame wins, so a plan mixing several frame faults is still
# deterministic.
_FRAME_KINDS = ("drop", "corrupt")


@dataclass
class FaultPlan:
    """A replayable fault schedule, parameterised by a single seed.

    Frame faults (``drop``, ``corrupt``) apply to outbound frames at
    instrumented sites.  ``kill_worker_after_leases`` hard-kills the
    worker process after it has accepted that many tasks.
    ``stall_heartbeats`` suppresses heartbeat sends.  ``refuse_connections``
    rejects dial attempts.  ``crash_client_after_done`` aborts the
    client (raises :class:`InjectedCrash`) once that many shards have
    been stored — it fires at most once.
    """

    seed: int = 0
    drop: FaultRule | None = None
    corrupt: FaultRule | None = None
    kill_worker_after_leases: int | None = None
    stall_heartbeats: FaultRule | None = None
    refuse_connections: FaultRule | None = None
    crash_client_after_done: int | None = None
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )
    _counters: dict = field(default_factory=dict, repr=False, compare=False)
    _fired: dict = field(default_factory=dict, repr=False, compare=False)
    _crashed: bool = field(default=False, repr=False, compare=False)

    def _rule(self, kind: str) -> FaultRule | None:
        if kind == "drop":
            return self.drop
        if kind == "corrupt":
            return self.corrupt
        if kind == "stall_heartbeat":
            return self.stall_heartbeats
        if kind == "refuse":
            return self.refuse_connections
        return None

    def _decide(self, kind: str, site: str) -> bool:
        """Deterministically decide whether *kind* fires at *site* now."""
        rule = self._rule(kind)
        if rule is None:
            return False
        if rule.sites is not None and site not in rule.sites:
            return False
        with self._lock:
            key = (kind, site)
            counter = self._counters.get(key, 0)
            self._counters[key] = counter + 1
            if counter < rule.after:
                return False
            fired = self._fired.get(key, 0)
            if rule.limit is not None and fired >= rule.limit:
                return False
            hit = _hash01(self.seed, kind, site, counter) < rule.rate
            if hit:
                self._fired[key] = fired + 1
            return hit

    def frame_fault(self, site: str) -> str | None:
        """Return the frame fault to apply at *site*, or ``None``.

        At most one frame fault fires per frame; kinds are consulted in
        fixed priority order (drop, then corrupt).
        """
        for kind in _FRAME_KINDS:
            if self._decide(kind, site):
                return kind
        return None

    def corrupt_payload(self, payload: bytes, site: str) -> bytes:
        """Deterministically flip bytes in an encoded frame.

        The 4-byte length header is preserved so the receiver reads the
        right number of bytes and fails in *decode*, not in framing —
        the interesting failure mode for :class:`WireDecodeError` paths.
        """
        if len(payload) <= _FRAME_HEADER.size:
            return payload
        body = bytearray(payload[_FRAME_HEADER.size:])
        with self._lock:
            counter = self._counters.get(("corrupt-bytes", site), 0)
            self._counters[("corrupt-bytes", site)] = counter + 1
        nflips = 1 + int(_hash01(self.seed, "corrupt-n", site, counter) * 3)
        for i in range(nflips):
            u = _hash01(self.seed, f"corrupt-pos-{i}", site, counter)
            pos = int(u * len(body))
            body[pos] ^= 0xFF
        return payload[: _FRAME_HEADER.size] + bytes(body)

    def refuse_connection(self, site: str) -> bool:
        """True if a dial attempt at *site* should be refused."""
        return self._decide("refuse", site)

    def stall_heartbeat(self) -> bool:
        """True if the next heartbeat send should be suppressed."""
        return self._decide("stall_heartbeat", "worker.heartbeat")

    def kill_worker(self, leases: int) -> bool:
        """True once the worker has accepted ``kill_worker_after_leases`` tasks."""
        k = self.kill_worker_after_leases
        return k is not None and leases >= k

    def crash_client(self, done: int) -> bool:
        """True (once) when the client has stored *done* shard results."""
        k = self.crash_client_after_done
        if k is None or done < k:
            return False
        with self._lock:
            if self._crashed:
                return False
            self._crashed = True
            return True


_ACTIVE: FaultPlan | None = None


def install_fault_plan(plan: FaultPlan | None) -> None:
    """Install *plan* process-wide (``None`` disables injection)."""
    global _ACTIVE
    _ACTIVE = plan


def active_fault_plan() -> FaultPlan | None:
    """Return the installed plan, or ``None`` when injection is off."""
    return _ACTIVE


class fault_injection:
    """Context manager installing a plan for the duration of a block."""

    def __init__(self, plan: FaultPlan):
        self._plan = plan
        self._previous: FaultPlan | None = None

    def __enter__(self) -> FaultPlan:
        """Install the plan and return it."""
        self._previous = active_fault_plan()
        install_fault_plan(self._plan)
        return self._plan

    def __exit__(self, *exc) -> None:
        """Restore the previously installed plan (usually ``None``)."""
        install_fault_plan(self._previous)
