"""Input-validation helpers shared by the process engines.

The COBRA/BIPS engines require connected graphs (the paper's standing
assumption) and vertex ids in range; these checks centralise the error
messages.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph

__all__ = ["require_connected", "check_vertex", "check_vertex_set"]


def require_connected(graph: Graph) -> None:
    """Raise ``ValueError`` if the graph is disconnected.

    Both processes are only defined (and their cover/infection times
    finite) on connected graphs.
    """
    if not graph.is_connected():
        raise ValueError(
            f"{graph.name}: COBRA/BIPS require a connected graph "
            "(cover time is infinite otherwise)"
        )


def check_vertex(graph: Graph, u: int) -> int:
    """Validate a single vertex id and return it as ``int``.

    ``u`` must be a Python or numpy integer: a ``bool`` or a float such
    as ``2.9`` is refused, not truncated to a vertex.
    """
    if isinstance(u, bool) or not isinstance(u, (int, np.integer)):
        raise ValueError(f"vertex must be an integer, got {u!r}")
    u = int(u)
    if not 0 <= u < graph.n:
        raise ValueError(f"vertex {u} out of range [0, {graph.n})")
    return u


def check_vertex_set(graph: Graph, vertices) -> np.ndarray:
    """Validate a nonempty vertex set; return a sorted unique int64 array.

    The ids must be integers: a float or bool array is refused.
    """
    arr = np.asarray(list(vertices))
    if arr.size == 0:
        raise ValueError("vertex set must be nonempty")
    if arr.dtype.kind not in "iu":
        raise ValueError(f"vertex set must hold integers, got {arr.dtype} ids")
    arr = np.unique(arr.astype(np.int64))
    if arr[0] < 0 or arr[-1] >= graph.n:
        raise ValueError(f"vertex set out of range [0, {graph.n})")
    return arr
