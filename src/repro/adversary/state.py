"""Mutable topology state handed to adversary policies.

:class:`MutableTopology` lives in :mod:`repro.dynamics.topology`, where
the oblivious rewiring rounds check their swap proposals with it; this
module re-exports the same class object for the policies and their
callers.
"""

from ..dynamics.topology import MutableTopology

__all__ = ["MutableTopology"]
