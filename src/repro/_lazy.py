"""Lazy package re-exports (PEP 562 module ``__getattr__``).

A package ``__init__`` that imports every submodule makes ``import
repro.<pkg>.<module>`` pay for the whole package.  A package built on
:func:`lazy_exports` instead imports a submodule the first time one of
its names is read from the package (``repro.search.MicroNASSearch``,
``from repro.search import MicroNASSearch`` or ``from repro.search import
*``), then caches the value on the package.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple, Union

#: A public name, or a ``(public name, attribute)`` pair for an alias.
Export = Union[str, Tuple[str, str]]


def lazy_exports(package: str, exports: Dict[str, Sequence[Export]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps a submodule name (relative to ``package``) to the
    public names that submodule defines; a name equal to the submodule's
    own, which the submodule does not define, is the submodule itself.
    The submodule is imported with :func:`importlib.import_module`, never
    through the package, so resolving a name cannot re-enter this hook.
    An unknown name raises :class:`AttributeError`, as a plain module
    attribute lookup does.
    """
    home = {}
    for module, names in exports.items():
        for entry in names:
            public, attr = (entry, entry) if isinstance(entry, str) else entry
            home[public] = (f"{package}.{module}", attr)

    def __getattr__(name: str) -> object:
        try:
            module, attr = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        target = importlib.import_module(module)
        if module == f"{package}.{attr}" and not hasattr(target, attr):
            value = target
        else:
            value = getattr(target, attr)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return __getattr__, __dir__
