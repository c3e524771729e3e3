"""Lazy package exports (PEP 562), written once for every package.

An eager package ``__init__`` makes every process pay for every name it
mentions: ``import repro.cluster.runner`` would load numpy because
``repro/__init__.py`` names ``CovidKG``.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable


def lazy_exports(
    namespace: dict[str, Any], homes: dict[str, tuple[str, ...]],
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``__getattr__`` and ``__dir__`` for the package whose ``globals()``
    is ``namespace``.  ``homes`` maps a module to the names it defines;
    each is imported on first access, then kept as a plain attribute."""
    table = {name: module for module, names in homes.items()
             for name in names}

    def __getattr__(name: str) -> Any:
        if name not in table:
            raise AttributeError(f"module {namespace['__name__']!r} has "
                                 f"no attribute {name!r}")
        value = getattr(importlib.import_module(table[name]), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *table})

    return __getattr__, __dir__
