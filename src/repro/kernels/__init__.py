"""Kernel tier: compiled steps the engine picks itself, and bit-plane gossip.

The per-round hot loops in :mod:`repro.engine.rules` are numpy index
programs over the CSR arrays.  This package holds two faster
alternatives:

* fused neighbour-sample + absorb ``@njit`` kernels
  (:mod:`repro.kernels.numba_backend`) for
  :class:`~repro.engine.rules.CobraRule` and
  :class:`~repro.engine.rules.BipsRule`.  They draw from the *same*
  :class:`numpy.random.Generator` stream in the same order as the
  numpy kernels, so results are **bit-identical**.
  :func:`~repro.kernels.dispatch.resolve` picks them on its own, on
  every engine run, when numba is installed and the graph has at least
  :data:`AUTO_NUMBA_MIN_N` vertices; there is no setting.  The import
  is guarded, so numba stays optional;
* :class:`BitPushRule`, :class:`BitPullRule` and
  :class:`BitPushPullRule`: push/pull/push–pull gossip with the
  informed sets of 8–64 runs packed per machine word (the bit-parallel
  trick of :class:`~repro.engine.rules.FloodingRule`, extended to the
  randomised baselines).  They are ordinary rules: build one for ``R``
  runs, ``pack`` the ``(R, n)`` start mask and drive it with
  :class:`~repro.engine.SpreadEngine`.  Draws are shared per word, so
  results are **distribution-equivalent** per run, not bit-identical —
  see :mod:`repro.kernels.bitplane` for the exact equivalence class.
"""

from .bitplane import BitPullRule, BitPushPullRule, BitPushRule
from .dispatch import AUTO_NUMBA_MIN_N, KernelBinding, resolve

__all__ = [
    "AUTO_NUMBA_MIN_N",
    "KernelBinding",
    "resolve",
    "BitPushRule",
    "BitPullRule",
    "BitPushPullRule",
]
