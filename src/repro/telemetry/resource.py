"""Per-process resource profiling: RSS, CPU, GC and file descriptors.

Everything here is stdlib-only (``resource``/``gc``/``os``) and purely
observational — readings come from kernel accounting and the Python
runtime, never from anything the engine computes with, so reading them
can never perturb results.  :func:`resource_snapshot` returns one
JSON-able reading: ``/statusz`` serves it, every ``/metrics`` scrape
reads it into ``process.*`` gauges, and each shard merges its peak RSS
into ``SpreadResult.meta`` as ``max_rss``.

``ru_maxrss`` units differ across platforms (kibibytes on Linux, bytes
on macOS); :func:`max_rss_bytes` normalises to bytes.  On platforms
without the ``resource`` module the helpers return ``None`` and the
snapshot simply carries fewer keys.
"""

from __future__ import annotations

import gc
import os
import sys

try:  # POSIX-only; degrade gracefully elsewhere.
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None

__all__ = [
    "max_rss_bytes",
    "current_rss_bytes",
    "cpu_seconds",
    "open_fd_count",
    "gc_collection_counts",
    "resource_snapshot",
]

#: ``ru_maxrss`` is reported in bytes on macOS, kibibytes elsewhere.
_MAXRSS_SCALE = 1 if sys.platform == "darwin" else 1024


def max_rss_bytes() -> int | None:
    """Peak resident set size of this process in bytes (None if unknown)."""
    if _resource is None:  # pragma: no cover - non-POSIX platforms
        return None
    usage = _resource.getrusage(_resource.RUSAGE_SELF)
    return int(usage.ru_maxrss) * _MAXRSS_SCALE


def current_rss_bytes() -> int | None:
    """Current resident set size in bytes via ``/proc`` (None if unknown)."""
    try:
        with open("/proc/self/statm") as handle:
            fields = handle.read().split()
        return int(fields[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return None


def cpu_seconds() -> tuple[float, float] | None:
    """``(user, system)`` CPU seconds consumed so far (None if unknown)."""
    if _resource is None:  # pragma: no cover - non-POSIX platforms
        return None
    usage = _resource.getrusage(_resource.RUSAGE_SELF)
    return float(usage.ru_utime), float(usage.ru_stime)


def open_fd_count() -> int | None:
    """Number of open file descriptors (None if unknown)."""
    for fd_dir in ("/proc/self/fd", "/dev/fd"):
        try:
            return len(os.listdir(fd_dir))
        except OSError:
            continue
    return None


def gc_collection_counts() -> list[int]:
    """Completed GC collections per generation, oldest stats last."""
    return [int(stat.get("collections", 0)) for stat in gc.get_stats()]


def resource_snapshot() -> dict:
    """One JSON-able reading of every resource signal (unknowns omitted)."""
    snap: dict = {"pid": os.getpid()}
    rss = current_rss_bytes()
    if rss is not None:
        snap["rss_bytes"] = rss
    peak = max_rss_bytes()
    if peak is not None:
        snap["max_rss_bytes"] = peak
    cpu = cpu_seconds()
    if cpu is not None:
        snap["cpu_user_s"], snap["cpu_system_s"] = cpu
    fds = open_fd_count()
    if fds is not None:
        snap["open_fds"] = fds
    snap["gc_collections"] = gc_collection_counts()
    return snap
