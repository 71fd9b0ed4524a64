"""In-memory span tracing from outside the program: timing wrappers.

A :class:`Tracer` replaces a callable on its owner (a class or a
module) with a wrapper that records one span per call.  Each name is
patched where the caller looks it up: ``client.py`` imports
``encode_task`` by name, so the wrapper goes on
``repro.distributed.client.encode_task``, not on the wire module.

A span's *self time* is its duration minus the time covered by spans
nested inside it on the same thread.  A span nested directly in a span
of the same layer (``Graph.is_connected`` calling
``Graph.bfs_distances``, both "graphs.connectivity") is folded into
its parent: it adds self time but is not counted again as a call or in
the layer's inclusive total.

Wrappers are removed by :meth:`Tracer.restore`, so untraced code runs
the original callables.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import Counter, defaultdict

#: Layer name of the tracer's own work done inside ``after`` hooks
#: (byte counting and the like).  It is kept out of every other
#: layer's self time and out of the unattributed remainder.
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """Per-layer inclusive time, self time, call counts and exact counters."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- spans ----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, layer: str):
        """Time the enclosed block as one span of ``layer``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = [layer, 0.0]  # [layer, time covered by nested spans]
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            folded = parent is not None and parent[0] == layer
            with self._lock:
                self.self_time[layer] += duration - frame[1]
                if not folded:
                    self.total[layer] += duration
                    self.calls[layer] += 1
            if parent is not None:
                parent[1] += duration

    def add(self, key: str, value) -> None:
        """Add ``value`` to the exact counter ``key`` (thread-safe)."""
        with self._lock:
            self.counts[key] += value

    # -- patching -------------------------------------------------------
    def replace(self, owner, name: str, make) -> None:
        """Set ``owner.name`` to ``make(original)`` until :meth:`restore`."""
        had = name in vars(owner)
        original = getattr(owner, name)
        setattr(owner, name, make(original))
        self._patches.append((owner, name, original, had))

    def patch(self, owner, name: str, layer: str | None, *, after=None) -> None:
        """Wrap ``owner.name`` in a ``layer`` span.

        ``after(result, *args, **kwargs)``, when given, runs after each
        call, outside the layer's span, as :data:`BOOKKEEPING`.
        ``layer=None`` records no span (``after`` only).
        """
        self.replace(owner, name, lambda original: self._wrap(original, layer, after))

    def _wrap(self, original, layer, after):
        def wrapper(*args, **kwargs):
            if layer is None:
                result = original(*args, **kwargs)
            else:
                with self.span(layer):
                    result = original(*args, **kwargs)
            if after is not None:
                with self.span(BOOKKEEPING):
                    after(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, name, original, had = self._patches.pop()
            if had:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    # -- readout --------------------------------------------------------
    def attributed(self) -> float:
        """Sum of self times over every layer, bookkeeping included."""
        return sum(self.self_time.values())
