"""Lazy package namespaces: the ``attach`` pattern of Scientific Python SPEC 1.

A package ``__init__`` declares, once, which submodule defines each
name it re-exports::

    __getattr__, __dir__, __all__ = attach(__name__, {
        "graph": ["Graph", "SharedGraph"],
        "io": ["read_edge_list"],
    })

Importing the package imports none of its submodules.  The first
lookup of a name imports the submodule that defines it (PEP 562
module ``__getattr__``) and stores the name in the package's globals,
so later lookups are plain attribute reads.  A table key is also
reachable as an attribute (``repro.graphs``), and a key with an empty
list declares a submodule the package re-exports no names from.
"""

from __future__ import annotations

import sys

__all__ = ["attach", "load"]


def load(module: str):
    """Import the dotted ``module`` and return it.

    Through ``__import__``, the import statement's path: unlike
    :func:`importlib.import_module`, it shows under ``python -X importtime``.
    """
    __import__(module)
    return sys.modules[module]


def attach(package: str, exports: dict[str, list[str]]):
    """``(__getattr__, __dir__, __all__)`` for ``package``'s export table."""
    source = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name in source:
            value = getattr(load(f"{package}.{source[name]}"), name)
        elif name in exports:
            value = load(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *source, *exports})

    return __getattr__, __dir__, list(source)
