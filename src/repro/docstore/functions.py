"""``$function`` registry: named Python callables inside pipelines.

The paper's ranking logic is written as custom JavaScript ``$function``
stages inside MongoDB aggregation queries (Section 2.1).  Here those
functions are Python callables; the registry lets pipelines reference them
by name so a pipeline document stays JSON-serializable, exactly as the
paper's pipelines do.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import AggregationError

PipelineFunction = Callable[..., Any]


class FunctionRegistry:
    """Named server-side functions available to ``$function`` stages."""

    def __init__(self) -> None:
        self._functions: dict[str, PipelineFunction] = {}

    def register(self, name: str,
                 function: PipelineFunction | None = None
                 ) -> PipelineFunction | Callable[[PipelineFunction],
                                                  PipelineFunction]:
        """Register ``function`` under ``name``; usable as a decorator."""
        if function is None:
            def decorator(func: PipelineFunction) -> PipelineFunction:
                self._functions[name] = func
                return func
            return decorator
        self._functions[name] = function
        return function

    def unregister(self, name: str) -> None:
        """Forget ``name`` (no-op when absent) — for per-query functions."""
        self._functions.pop(name, None)

    def get(self, name: str) -> PipelineFunction:
        try:
            return self._functions[name]
        except KeyError:
            raise AggregationError(
                f"unknown $function {name!r}; registered: "
                f"{sorted(self._functions)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    def names(self) -> list[str]:
        return sorted(self._functions)

    def copy(self) -> "FunctionRegistry":
        """An independent registry with the same functions registered."""
        clone = FunctionRegistry()
        clone._functions.update(self._functions)
        return clone

    @classmethod
    def with_defaults(cls) -> "FunctionRegistry":
        """A fresh registry seeded from :data:`default_registry`.

        Each ``CovidKG`` gets one of these, so ``$function``
        registrations made inside one system cannot leak into another —
        while functions registered on ``default_registry`` *before* the
        system was created remain visible to it.
        """
        return default_registry.copy()


#: Registry shared by default across pipelines (callers may pass their own).
#: Systems snapshot it at construction via :meth:`with_defaults`; register
#: globally-shared functions here before building systems.
default_registry = FunctionRegistry()
