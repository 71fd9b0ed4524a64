"""Kernel dispatch: the per-round step the engine drives for a rule.

The engine asks :func:`resolve`, once per :meth:`SpreadEngine.run`,
for a :class:`KernelBinding`: the ``step`` callable to call each round
and the name of the kernel behind it.  Nothing selects the kernel but
the rule, the graph size and whether numba is installed, and every
choice is bit-identical to the rule's own ``step``:

``numba``
    The fused CSR kernels from :mod:`repro.kernels.numba_backend`, for
    :class:`~repro.engine.rules.CobraRule` and
    :class:`~repro.engine.rules.BipsRule`, when numba is installed,
    ``n >= AUTO_NUMBA_MIN_N`` and ``runs >= 1``.  Their draws come from
    the caller's Generator in numpy order, so no sample moves.
``numpy``
    Everything else: :meth:`SpreadRule.step` itself.

Every resolution increments the ``kernel.dispatch`` telemetry counter
plus a per-kernel ``kernel.dispatch.<name>`` counter.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..engine.rules import BipsRule, CobraRule, SpreadRule
from ..telemetry import get_telemetry
from . import numba_backend

__all__ = ["AUTO_NUMBA_MIN_N", "KernelBinding", "resolve"]

#: numba is chosen only at or above this vertex count — below it the
#: numpy kernels win on call overhead anyway.
AUTO_NUMBA_MIN_N = 4096


@dataclass(frozen=True)
class KernelBinding:
    """The per-round kernel for one engine run.

    ``step`` has the ``SpreadRule.step(graph, state, alive, rng)``
    signature; ``backend`` names it (``"numpy"`` or ``"numba"``) for the
    ``engine.run`` span and the dispatch counters.
    """

    backend: str
    step: Callable[..., np.ndarray]


def resolve(rule: SpreadRule, *, n: int, runs: int) -> KernelBinding:
    """Pick the per-round kernel for ``runs`` runs of ``rule`` on ``n`` vertices.

    numba's fused stepper for COBRA and BIPS when numba is
    installed, ``n >= AUTO_NUMBA_MIN_N`` and ``runs >= 1``; otherwise
    ``rule.step``.  ``numba_backend.AVAILABLE`` and
    :data:`AUTO_NUMBA_MIN_N` are read on every call.
    """
    backend, step = "numpy", rule.step
    if numba_backend.AVAILABLE and n >= AUTO_NUMBA_MIN_N and runs >= 1:
        if isinstance(rule, CobraRule):
            backend, step = "numba", numba_backend.cobra_stepper(rule)
        elif isinstance(rule, BipsRule):
            backend, step = "numba", numba_backend.bips_stepper(rule)
    telemetry = get_telemetry()
    telemetry.count("kernel.dispatch")
    telemetry.count(f"kernel.dispatch.{backend}")
    return KernelBinding(backend=backend, step=step)
