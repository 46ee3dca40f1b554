"""Lazy package exports (PEP 562): a package ``__init__`` re-exports names
from heavy submodules without importing them until a name is first used, so
importing one light submodule does not load its siblings."""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Iterable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """Module ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps a submodule name (relative to ``package``) to the
    public names it defines. Looking up a submodule name gives the
    submodule itself; looking up one of its names imports the submodule and
    returns the attribute. Either is then stored in the package namespace,
    so each name is resolved once.
    """
    namespace = sys.modules[package].__dict__
    home = {name: sub for sub, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        submodule = name if name in exports else home.get(name)
        if submodule is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{submodule}")
        value = module if name == submodule else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports, *home})

    return __getattr__, __dir__
