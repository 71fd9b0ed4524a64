"""Kernel tier: compiled steps the engine picks itself.

The per-round hot loops in :mod:`repro.engine.rules` are numpy index
programs over the CSR arrays.  This package holds their faster
alternative: fused neighbour-sample + absorb ``@njit`` kernels
(:mod:`repro.kernels.numba_backend`) for
:class:`~repro.engine.rules.CobraRule` and
:class:`~repro.engine.rules.BipsRule`.  They draw from the *same*
:class:`numpy.random.Generator` stream in the same order as the numpy
kernels, so results are **bit-identical**.
:func:`~repro.kernels.dispatch.resolve` picks them on its own, on every
engine run, when numba is installed and the graph has at least
:data:`AUTO_NUMBA_MIN_N` vertices; there is no setting.  The import is
guarded, so numba stays optional.
"""

from .dispatch import AUTO_NUMBA_MIN_N, KernelBinding, resolve

__all__ = ["AUTO_NUMBA_MIN_N", "KernelBinding", "resolve"]
