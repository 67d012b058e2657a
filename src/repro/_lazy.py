"""Lazy package surfaces (PEP 562).

A package ``__init__`` declares its public names once, in a literal
``_EXPORTS`` table mapping each name to the module that defines it,
and hands the table to :func:`lazy_exports`::

    _EXPORTS = {
        "ClusterSpec": "repro.hardware.cluster",
        "config": "repro.config",  # a submodule exports itself
    }
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

Nothing is imported until a name is read -- ``from repro import
ClusterSpec``, ``repro.ClusterSpec`` or ``from repro import *`` --
so ``import repro`` stays cheap and a command pays only for the
modules it uses. The value is not cached in the package: every read
goes to the defining module, so a wrapper or test double installed
there is seen through the package too, and gone once removed. Hot
loops bind a name once instead (``from <module> import name``).

simlint reads the same literal table (:mod:`repro.analysis.index`):
its entries count as the package's bindings and import origins, and
an entry naming a module that does not define the name is a
``registry-drift`` finding.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(package: str, exports: Dict[str, str]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair of a lazy package.

    Args:
        package: The package's ``__name__``.
        exports: Public name -> dotted module defining it. An entry
            whose module is ``<package>.<name>`` resolves to that
            submodule itself.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = importlib.import_module(module)
        if module == f"{package}.{name}":
            return value
        return getattr(value, name)

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
