"""Edge-list file I/O.

Downstream users will want to run COBRA/BIPS on their own networks; this
module reads the de-facto standard whitespace edge-list
format (one ``u v`` pair per line, ``#`` comments, blank lines ignored),
with optional vertex-label relabelling for non-integer ids.
"""

from __future__ import annotations

from pathlib import Path
from .graph import Graph

__all__ = ["read_edge_list", "parse_edge_list"]


def parse_edge_list(text: str, *, name: str = "graph") -> Graph:
    """Parse edge-list text into a :class:`Graph`.

    Vertex tokens may be arbitrary strings; they are relabelled to
    ``0..n-1`` in first-appearance order unless *all* tokens are
    integers, in which case the integer ids are kept (with
    ``n = max + 1``).
    """
    pairs: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
        pairs.append((parts[0], parts[1]))
    if not pairs:
        raise ValueError("edge list contains no edges")

    def _as_int(tok: str) -> int | None:
        try:
            val = int(tok)
        except ValueError:
            return None
        return val if val >= 0 else None

    ints = [(_as_int(u), _as_int(v)) for u, v in pairs]
    if all(u is not None and v is not None for u, v in ints):
        edges = [(u, v) for u, v in ints]  # type: ignore[misc]
        n = 1 + max(max(u, v) for u, v in edges)
        return Graph(n, edges, name=name)

    index: dict[str, int] = {}
    edges = []
    for u, v in pairs:
        iu = index.setdefault(u, len(index))
        iv = index.setdefault(v, len(index))
        edges.append((iu, iv))
    return Graph(len(index), edges, name=name)


def read_edge_list(path: str | Path, *, name: str | None = None) -> Graph:
    """Read a graph from an edge-list file."""
    path = Path(path)
    return parse_edge_list(path.read_text(), name=name or path.stem)

