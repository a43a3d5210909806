"""Lazy package re-exports (PEP 562).

Every package under :mod:`repro` re-exports its submodules' public
names, but a process should import only the submodules it runs: the
``dse-launch`` launcher needs the evaluator, not the HTTP server, and a
store command needs neither.  A package therefore declares which
submodule defines each name and installs :func:`lazy_exports`'s pair
as its module-level ``__getattr__`` and ``__dir__``::

    __getattr__, __dir__ = lazy_exports(__name__, {"store": ("open_store",)})

The first access to an exported name -- ``from repro.dse import
open_store``, ``repro.dse.open_store`` or ``import *`` over
``__all__`` -- imports its submodule and caches every name that
submodule exports in the package's globals, so later lookups never
reach ``__getattr__``.  A name that is not exported raises
``AttributeError``, which also lets ``from package import submodule``
fall through to the normal submodule import.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping, Sequence

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, re-exporting ``exports``.

    ``exports`` maps each submodule name (relative to ``package``) to
    the names it provides.  A submodule's names are cached together,
    which also overwrites the submodule object that the import system
    binds on the package when an export shares the submodule's name
    (the function ``repro.obs.watch`` in module ``repro.obs.watch``).
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module_name = origin.get(name)
        if module_name is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{module_name}")
        values = {each: getattr(module, each) for each in exports[module_name]}
        vars(sys.modules[package]).update(values)
        return values[name]

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
