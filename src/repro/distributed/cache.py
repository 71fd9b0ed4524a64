"""Content-addressed result cache for distributed shard execution.

Every shard task is a pure function: its canonical wire encoding
(:func:`repro.distributed.wire.task_key` — rule, topology, completion,
state, seed, round cap, recording flags, wire version) fully
determines its :class:`~repro.engine.SpreadResult`.  That makes
caching unconditionally safe — there is no invalidation problem, only
a content address — so repeated experiment sweeps and repeated CLI
invocations skip shards that any earlier run already computed.

Layout: ``<root>/<key[:2]>/<key>.json``, each file the canonical JSON
encoding of one result, written atomically (temp file + ``os.replace``)
so concurrent clients never observe torn entries.  The default root is
``~/.cache/repro/results``, overridable through the
``REPRO_CACHE_DIR`` environment variable (set it to ``off``, ``0`` or
the empty string to disable caching entirely).

Entries are integrity-checked: each stores a sha256 digest of its
canonical result payload, verified on every :meth:`ResultCache.get`.
A torn, truncated, or bit-flipped entry is quarantined (renamed to
``*.corrupt``) and treated as a miss, so corruption costs a recompute
— never a crash, and never a silently wrong result.

The cache is bounded: ``REPRO_CACHE_MAX_BYTES`` (or the ``max_bytes``
constructor argument) caps the total size of stored entries, enforced
by LRU eviction ordered on file access times — every :meth:`get` hit
bumps the entry's ``atime`` explicitly, so eviction order is correct
even on ``noatime``/``relatime`` mounts.  Unset (or ``0``/empty) means
unbounded, the historical behaviour.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path

from ..telemetry import get_telemetry
from .wire import canonical_bytes, decode_result, encode_result

__all__ = [
    "ResultCache",
    "resolve_cache",
    "CACHE_ENV_VAR",
    "CACHE_MAX_BYTES_ENV_VAR",
]

#: Environment variable naming the cache root (or disabling the cache).
CACHE_ENV_VAR = "REPRO_CACHE_DIR"

#: Environment variable bounding the cache's total size in bytes
#: (LRU-evicted on overflow); unset/empty/0 leaves it unbounded.
CACHE_MAX_BYTES_ENV_VAR = "REPRO_CACHE_MAX_BYTES"


class ResultCache:
    """A directory of shard results keyed by canonical task digest.

    ``max_bytes`` bounds the total stored size with atime-ordered LRU
    eviction; the default sentinel ``"env"`` reads
    :data:`CACHE_MAX_BYTES_ENV_VAR`, and ``None`` (or 0) disables the
    bound.
    """

    def __init__(self, root, *, max_bytes: "int | None | str" = "env") -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        if max_bytes == "env":
            max_bytes = self._env_max_bytes()
        self.max_bytes = int(max_bytes) if max_bytes else None
        if self.max_bytes is not None and self.max_bytes < 1:
            raise ValueError("max_bytes must be >= 1 (or None for unbounded)")
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corrupt = 0
        # Approximate store size, seeded by one scan on the first
        # bounded put and then maintained incrementally, so a put only
        # pays the full directory scan when the bound is actually
        # exceeded (concurrent writers drift the estimate upward at
        # worst, which just triggers an early re-synchronising scan).
        self._stored_bytes: int | None = None

    @staticmethod
    def _env_max_bytes() -> "int | None":
        env = os.environ.get(CACHE_MAX_BYTES_ENV_VAR, "").strip()
        if not env or env == "0":
            return None
        try:
            return int(env)
        except ValueError:
            raise ValueError(
                f"{CACHE_MAX_BYTES_ENV_VAR} must be an integer byte count, "
                f"got {env!r}"
            ) from None

    @staticmethod
    def default_root() -> Path | None:
        """The configured cache root, or None when caching is disabled.

        Reads :data:`CACHE_ENV_VAR`; unset falls back to
        ``~/.cache/repro/results``, while ``""``, ``"0"`` and ``"off"``
        disable caching.
        """
        env = os.environ.get(CACHE_ENV_VAR)
        if env is None:
            return Path.home() / ".cache" / "repro" / "results"
        if env.strip().lower() in ("", "0", "off"):
            return None
        return Path(env)

    @classmethod
    def default(cls) -> "ResultCache | None":
        """A cache at :meth:`default_root` (None when disabled)."""
        root = cls.default_root()
        return None if root is None else cls(root)

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        """The file a result with content address ``key`` lives at."""
        return self.root / key[:2] / f"{key}.json"

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt entry aside (``*.corrupt``) and count it.

        Renaming rather than deleting keeps the evidence for post-mortem
        while guaranteeing the entry can never be served again; the
        caller then recomputes, and the next ``put`` writes a fresh
        entry.
        """
        self.corrupt += 1
        tel = get_telemetry()
        tel.count("cache.corrupt")
        if tel.enabled:
            tel.event("cache.corrupt", path=str(path), reason=reason)
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            pass  # raced away (or read-only store): nothing left to serve

    def get(self, key: str):
        """Return the cached :class:`SpreadResult` for ``key``, or None.

        Integrity is verified on every read: entries carry a sha256
        digest of their canonical result payload, and an entry that is
        torn, truncated, lacks a digest or fails verification is
        *quarantined*
        (renamed to ``*.corrupt``, counted in ``self.corrupt`` and the
        ``cache.corrupt`` telemetry counter) and reported as a miss, so
        the caller recomputes instead of crashing — or worse, silently
        consuming a flipped bit.  An unreadable file (``OSError``) is a
        plain miss: absence is not corruption.
        """
        path = self.path_for(key)
        try:
            text = path.read_text()
        except OSError:
            self.misses += 1
            return None
        try:
            payload = json.loads(text)
            # put() wraps every result in a digest envelope, so an entry
            # without one did not come from this cache.
            if not (
                isinstance(payload, dict)
                and payload.get("kind") == "cache-entry"
            ):
                raise ValueError("no digest envelope")
            obj = payload["result"]
            digest = hashlib.sha256(canonical_bytes(obj)).hexdigest()
            if digest != payload.get("digest"):
                raise ValueError("payload digest mismatch")
            result = decode_result(obj)
        except (ValueError, KeyError, TypeError):
            self._quarantine(path, "undecodable, undigested or digest mismatch")
            self.misses += 1
            return None
        # Bump the access time explicitly: LRU eviction orders on
        # atime, which relatime/noatime mounts would otherwise freeze.
        try:
            os.utime(path)
        except OSError:
            pass  # entry raced away or read-only store: still a hit
        self.hits += 1
        return result

    def put(self, key: str, result) -> Path:
        """Store a result (a SpreadResult or its encoded dict) under ``key``.

        Atomic: the entry is written to a unique temp file and renamed
        into place, so concurrent writers race harmlessly (all copies
        are byte-identical by the determinism contract).  With a
        ``max_bytes`` bound, least-recently-used entries are evicted
        until the store fits (the fresh entry is never evicted).
        """
        obj = result if isinstance(result, dict) else encode_result(result)
        entry = {
            "kind": "cache-entry",
            "digest": hashlib.sha256(canonical_bytes(obj)).hexdigest(),
            "result": obj,
        }
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{key}.{os.getpid()}.{threading.get_ident()}.tmp"
        tmp.write_bytes(canonical_bytes(entry))
        os.replace(tmp, path)
        if self.max_bytes is not None:
            if self._stored_bytes is None:
                self._stored_bytes = self.total_bytes()
            else:
                try:
                    self._stored_bytes += path.stat().st_size
                except OSError:
                    pass
            if self._stored_bytes > self.max_bytes:
                self._evict(keep=path)
        return path

    def total_bytes(self) -> int:
        """Total size of the stored entries, in bytes."""
        return sum(self._entries_by_atime(keep=None)[1])

    def _entries_by_atime(self, keep):
        """Entries (oldest atime first) and their sizes, skipping ``keep``."""
        entries = []
        sizes = []
        for path in self.root.glob("*/*.json"):
            if keep is not None and path == keep:
                continue
            try:
                stat = path.stat()
            except OSError:
                continue  # raced away under a concurrent eviction
            entries.append((stat.st_atime, path, stat.st_size))
        entries.sort(key=lambda item: item[0])
        sizes = [size for _, _, size in entries]
        return entries, sizes

    def _evict(self, keep: Path) -> None:
        """Drop LRU entries until the store fits ``max_bytes``.

        ``keep`` (the entry just written) is exempt, so a single result
        larger than the whole bound still caches rather than thrashing.
        The scan also re-synchronises the incremental size estimate.
        """
        try:
            keep_size = keep.stat().st_size
        except OSError:
            keep_size = 0
        budget = max(0, self.max_bytes - keep_size)
        entries, sizes = self._entries_by_atime(keep=keep)
        remaining = sum(sizes)
        excess = remaining - budget
        for _, path, size in entries:
            if excess <= 0:
                break
            try:
                path.unlink()
            except OSError:
                continue  # concurrent eviction got there first
            excess -= size
            remaining -= size
            self.evictions += 1
        self._stored_bytes = remaining + keep_size

    def __contains__(self, key: str) -> bool:
        """True iff an entry for ``key`` exists on disk."""
        return self.path_for(key).exists()

    def __len__(self) -> int:
        """Number of entries currently stored."""
        return sum(1 for _ in self.root.glob("*/*.json"))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultCache(root={str(self.root)!r})"


def resolve_cache(spec) -> ResultCache | None:
    """Coerce a cache spec into a :class:`ResultCache` (or None).

    ``None`` disables caching; ``"auto"`` uses :meth:`ResultCache.default`
    (honouring :data:`CACHE_ENV_VAR`); a path builds a cache there; an
    existing :class:`ResultCache` passes through.
    """
    if spec is None:
        return None
    if isinstance(spec, ResultCache):
        return spec
    if spec == "auto":
        return ResultCache.default()
    return ResultCache(spec)
