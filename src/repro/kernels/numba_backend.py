"""Numba backend: fused neighbour-sample + absorb kernels over CSR.

The numpy kernels in :mod:`repro.engine.rules` spend their rounds in
fancy-index temporaries: ``np.repeat`` expansions of the actor list,
gathered degree/offset arrays, ``take_along_axis`` pick matrices.  The
``@njit`` kernels here walk ``indptr`` / ``indices`` / ``degrees``
directly and absorb each sampled neighbour into the next-state mask in
the same pass — one loop, no intermediates.

Bit-identity contract
---------------------
Randomness never enters the compiled code.  Every uniform block is
drawn from the caller's :class:`numpy.random.Generator` *before* the
kernel runs, with exactly the sizes and order the numpy kernels use
(branching counts first, then neighbour uniforms, then lazy coins,
then any second-selection coins), and the kernels reproduce the numpy
index arithmetic ``indices[indptr[v] + int(u * degree[v])]`` in IEEE
double precision with ``fastmath`` off.  The compiled and numpy
kernels are therefore **bit-identical** — pinned per rule by the
numba tier of ``tests/test_oracle.py``.

Degenerate inputs (degree-zero vertices on churned snapshots) fall
back to the numpy kernel *per call*; because the numpy path consumes
the identical draws, a run that mixes compiled and fallback rounds is
still bit-identical end to end.

The import is guarded: without numba this module loads fine,
:data:`AVAILABLE` is False, and the dispatch layer never binds it.
``_njit`` is then a no-op, so the same kernels still run as plain
Python — how the parity tests check them on machines without numba.
"""

from __future__ import annotations

import numpy as np

from ..engine.rules import freeze_rows, live_rows

__all__ = ["AVAILABLE", "cobra_stepper", "bips_stepper"]

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit as _njit

    AVAILABLE = True
except ImportError:  # the container default: numpy-only
    AVAILABLE = False

    def _njit(*args, **kwargs):
        """No-op decorator stand-in so kernel defs parse without numba."""
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap


_EMPTY_F64 = np.empty(0, dtype=np.float64)


@_njit(cache=True, nogil=True)
def _cobra_scatter(
    indptr, indices, degrees, movers, counts, u_nbr, u_lazy, lazy, nxt
):  # pragma: no cover - compiled; parity-tested under numba
    """Fused COBRA round: walk the mover mask row-major, sampling
    ``counts[i]`` neighbours per mover from the pre-drawn uniforms and
    scattering them into ``nxt``.

    Consumes ``u_nbr`` (and ``u_lazy`` when ``lazy``) in exactly the
    order the numpy kernel does: movers enumerated row-major, each
    mover's selections consecutive.
    """
    runs, n = movers.shape
    i = 0  # mover index into counts
    k = 0  # draw index into u_nbr / u_lazy
    for r in range(runs):
        for v in range(n):
            if movers[r, v]:
                base = indptr[v]
                d = degrees[v]
                for _ in range(counts[i]):
                    t = indices[base + np.int64(u_nbr[k] * d)]
                    if lazy and u_lazy[k] < 0.5:
                        t = v
                    nxt[r, t] = True
                    k += 1
                i += 1


@_njit(cache=True, nogil=True)
def _bips_gather(
    indptr, indices, degrees, infected, u_nbr, u_lazy, lazy, out, first
):  # pragma: no cover - compiled; parity-tested under numba
    """Fused BIPS selection: every (run, vertex) samples one neighbour
    from the pre-drawn uniforms and absorbs its infection bit.

    ``first`` writes ``out`` outright; otherwise infected picks OR in
    (the ``fixed_b > 1`` extra selections).
    """
    runs, n = infected.shape
    k = 0
    for r in range(runs):
        for v in range(n):
            t = indices[indptr[v] + np.int64(u_nbr[k] * degrees[v])]
            if lazy and u_lazy[k] < 0.5:
                t = v
            hit = infected[r, t]
            if first:
                out[r, v] = hit
            elif hit:
                out[r, v] = True
            k += 1


@_njit(cache=True, nogil=True)
def _bips_second(
    indptr, indices, degrees, infected, u_nbr, u_lazy, lazy, u_second, p2, out
):  # pragma: no cover - compiled; parity-tested under numba
    """Fused Bernoulli second selection: the pick uniforms draw first
    (mirroring the numpy order), then the participation coin gates the
    absorb."""
    runs, n = infected.shape
    k = 0
    for r in range(runs):
        for v in range(n):
            t = indices[indptr[v] + np.int64(u_nbr[k] * degrees[v])]
            if lazy and u_lazy[k] < 0.5:
                t = v
            if infected[r, t] and u_second[k] < p2:
                out[r, v] = True
            k += 1


def cobra_stepper(rule):
    """Build a compiled drop-in for ``CobraRule.step`` (bit-identical).

    The returned callable has the ``step(graph, state, alive, rng)``
    signature; draw order matches the numpy kernel (counts, neighbour
    uniforms, lazy coins), so the two kernels share one stream.
    """
    policy, lazy = rule.policy, bool(rule.lazy)

    def step(graph, state, alive, rng):
        """One fused branching round (numpy draws, compiled scatter)."""
        work = live_rows(state, alive)
        if graph.dmin == 0:
            can_move = graph.degrees > 0
            movers = work & can_move[None, :]
            stranded = work & ~can_move[None, :]
        else:
            movers, stranded = work, None
        counts = policy.draw_counts(int(np.count_nonzero(movers)), rng)
        total = int(counts.sum())
        u_nbr = rng.random(total)
        u_lazy = rng.random(total) if lazy else _EMPTY_F64
        nxt = np.zeros_like(state)
        _cobra_scatter(
            graph.indptr, graph.indices, graph.degrees,
            movers, counts, u_nbr, u_lazy, lazy, nxt,
        )
        if stranded is not None:
            nxt |= stranded
        return nxt

    return step


def bips_stepper(rule):
    """Build a compiled drop-in for ``BipsRule.step`` (bit-identical).

    Fuses the tile + pick + gather program into one CSR walk per
    selection.  Degree-zero snapshots fall back to the numpy kernel per
    call (same draws, so mixed runs stay bit-identical).
    """
    policy, source, lazy = rule.policy, int(rule.source), bool(rule.lazy)

    def step(graph, state, alive, rng):
        """One fused infection round (numpy draws, compiled gather)."""
        if graph.dmin == 0:
            return rule.step(graph, state, alive, rng)
        runs, n = state.shape
        total = runs * n
        args = (graph.indptr, graph.indices, graph.degrees, state)
        nxt = np.empty_like(state)
        u_nbr = rng.random(total)
        u_lazy = rng.random(total) if lazy else _EMPTY_F64
        _bips_gather(*args, u_nbr, u_lazy, lazy, nxt, True)
        fixed_b = policy.fixed_selection_count()
        if fixed_b is not None:
            for _ in range(fixed_b - 1):
                u_nbr = rng.random(total)
                u_lazy = rng.random(total) if lazy else _EMPTY_F64
                _bips_gather(*args, u_nbr, u_lazy, lazy, nxt, False)
        else:
            p2 = policy.second_selection_probability()
            if p2 > 0.0:
                u_nbr = rng.random(total)
                u_lazy = rng.random(total) if lazy else _EMPTY_F64
                u_second = rng.random(total)
                _bips_second(*args, u_nbr, u_lazy, lazy, u_second, p2, nxt)
        nxt[:, source] = True
        return freeze_rows(nxt, state, alive)

    return step
