"""Project-wide symbol table, call graph, and transitive analyses.

:class:`ProjectIndex` stitches the per-module summaries
(:mod:`repro.analysis.summaries`) into one queryable structure:

* **symbol table** — every module/class/function keyed by a
  fully-qualified name (``"repro.gateway.server:Gateway.serve"`` —
  ``module:qualname``, the colon keeps module paths and class nesting
  from aliasing);
* **call resolution** — ``self.m()`` via project-local MRO walk,
  ``self.<attr>.m()`` via the class the attribute was constructed from
  (``self.latency = LatencyHistogram()``), bare names via local defs →
  classes → imports, dotted chains via import substitution and
  longest-module-prefix lookup.  Anything that cannot
  be pinned to a project function resolves to ``None`` and the
  analyses assume **no effects** for it (conservative: unknown callees
  never manufacture findings);
* **transitive analyses** — memoized, cycle-safe DFS answering "can
  this function block?" and "which locks can it end up holding?", each
  with a provenance chain so findings can show the full path from
  symptom to root cause.

The analyses are deliberately an *under*-approximation on call-graph
cycles (a function currently on the DFS stack contributes nothing to
its callers), which keeps them terminating and deterministic; a linter
must never loop.  Recursive lock acquisition is therefore not reported.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator

from repro.analysis.summaries import (
    ClassSummary,
    FunctionSummary,
    LockAcquire,
    ModuleSummary,
)

#: Callee terminals that hand work to an executor instead of blocking
#: the caller — exempt from REP208: a reference to a blocking function
#: handed to these is the *point*, not a bug.
EXECUTOR_HANDOFF = frozenset({"run_in_executor", "submit", "map",
                               "create_task", "ensure_future",
                               "call_soon", "call_soon_threadsafe"})


@dataclass(frozen=True)
class ChainStep:
    """One hop of a provenance chain (function → site → what happened)."""

    function: str  # fully-qualified "module:qualname"
    path: str
    lineno: int
    note: str

    def __str__(self) -> str:
        return f"{self.function} ({self.path}:{self.lineno}: {self.note})"


def format_chain(chain: Iterable[ChainStep]) -> str:
    return " -> ".join(str(step) for step in chain)


class ProjectIndex:
    """The project call graph: symbols, resolution, transitive queries."""

    def __init__(self, modules: Iterable[ModuleSummary]) -> None:
        self.modules: dict[str, ModuleSummary] = {}
        #: "module:qualname" -> summary, functions and methods alike.
        self.functions: dict[str, FunctionSummary] = {}
        self._function_module: dict[str, ModuleSummary] = {}
        for module in sorted(modules, key=lambda m: m.name):
            # Last write wins on duplicate module names (shadowed test
            # fixtures); project analysis is per-snapshot, not per-path.
            self.modules[module.name] = module
        self._resolve_imported_locks()
        for module in self.modules.values():
            for fn in module.all_functions():
                key = f"{module.name}:{fn.qualname}"
                self.functions[key] = fn
                self._function_module[key] = module
        self._blocking_memo: dict[str, tuple[str, tuple[ChainStep, ...]]
                                  | None] = {}
        self._locks_memo: dict[str, dict[str,
                                         tuple[ChainStep, ...]]] = {}
        self._visiting: set[str] = set()

    # -- imported-guard lock resolution ------------------------------------

    def _resolve_imported_locks(self) -> None:
        """Replace ``@dotted`` provisional lock identities in place.

        Summaries are per-module, so a ``with A:`` over an *imported*
        ``A`` records the provisional identity ``@pkg.locks.A``.  With
        every module in hand we can ask the defining module what ``A``
        actually is: its binding-site identity when it is a lock, nothing
        when it is not (the acquire is dropped — an imported context
        manager is not evidence of locking).
        """
        for name, module in self.modules.items():
            rebuilt_fns = {
                qual: self._rewrite_locks(fn)
                for qual, fn in module.functions.items()
            }
            rebuilt_classes = {
                cname: replace(cls, methods={
                    m: self._rewrite_locks(fn)
                    for m, fn in cls.methods.items()
                })
                for cname, cls in module.classes.items()
            }
            self.modules[name] = replace(
                module, functions=rebuilt_fns, classes=rebuilt_classes)

    def _rewrite_locks(self, fn: FunctionSummary) -> FunctionSummary:
        def needs_work(identities: Iterable[str]) -> bool:
            return any(raw.startswith("@") for raw in identities)

        if not (any(needs_work((a.lock, *a.held))
                    for a in fn.lock_acquires)
                or any(needs_work(c.locks_held) for c in fn.calls)):
            return fn

        def held(identities: tuple[str, ...]) -> tuple[str, ...]:
            resolved = (self._lock_identity(raw) for raw in identities)
            return tuple(lock for lock in resolved if lock is not None)

        acquires = []
        for acquire in fn.lock_acquires:
            lock = self._lock_identity(acquire.lock)
            if lock is None:
                continue
            acquires.append(LockAcquire(lock=lock,
                                        lineno=acquire.lineno,
                                        held=held(acquire.held)))
        return replace(
            fn,
            lock_acquires=tuple(acquires),
            calls=tuple(replace(c, locks_held=held(c.locks_held))
                        for c in fn.calls),
        )

    def _lock_identity(self, raw: str) -> str | None:
        if not raw.startswith("@"):
            return raw
        parts = raw[1:].split(".")
        for split in range(len(parts) - 1, 0, -1):
            module = self.modules.get(".".join(parts[:split]))
            if module is None:
                continue
            rest = parts[split:]
            if len(rest) == 1:
                return module.locks.get(rest[0])
            return None
        return None

    # -- symbol helpers ----------------------------------------------------

    def module_of(self, key: str) -> ModuleSummary:
        return self._function_module[key]

    def location(self, key: str) -> tuple[str, int]:
        fn = self.functions[key]
        return self._function_module[key].path, fn.lineno

    def _class_of(self, key: str) -> str | None:
        """The class context of a function key, if it is a method."""
        module = self._function_module[key]
        head = self.functions[key].qualname.split(".")[0]
        return head if head in module.classes else None

    # -- call resolution ---------------------------------------------------

    def resolve_call(self, caller: str, callee: str) -> str | None:
        """The function key ``callee`` refers to at ``caller``'s site.

        ``None`` means "unknown": stdlib, third-party, dynamic receiver,
        or a re-export the longest-prefix lookup cannot see through.
        Unknown callees contribute nothing to any transitive analysis.
        """
        if not callee or callee.startswith("?."):
            return None
        module = self._function_module.get(caller)
        if module is None:
            return None
        parts = callee.split(".")
        class_name = self._class_of(caller)
        if parts[0] in ("self", "cls"):
            if class_name is None or len(parts) not in (2, 3):
                return None
            if len(parts) == 2:
                return self._resolve_method(module.name, class_name,
                                            parts[1])
            owner = self._attribute_class(module.name, class_name,
                                          parts[1])
            return self._resolve_method(*owner, parts[2]) if owner \
                else None
        if len(parts) == 1:
            return self._resolve_bare(module, caller, parts[0])
        if parts[0] in module.imports:
            dotted = ".".join([module.imports[parts[0]], *parts[1:]])
        else:
            dotted = callee
        return self._resolve_dotted(dotted)

    def _resolve_bare(self, module: ModuleSummary, caller: str,
                      name: str) -> str | None:
        # Nested siblings first: a closure sees the def beside it.
        qualname = self.functions[caller].qualname
        prefix = qualname
        while prefix:
            candidate = f"{module.name}:{prefix}.{name}"
            if candidate in self.functions:
                return candidate
            prefix = prefix.rsplit(".", 1)[0] if "." in prefix else ""
        if f"{module.name}:{name}" in self.functions:
            return f"{module.name}:{name}"
        if name in module.classes:
            return self._resolve_method(module.name, name, "__init__")
        if name in module.imports:
            return self._resolve_dotted(module.imports[name])
        return None

    def _resolve_dotted(self, dotted: str) -> str | None:
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module_name = ".".join(parts[:split])
            module = self.modules.get(module_name)
            if module is None:
                continue
            rest = parts[split:]
            if len(rest) == 1:
                if rest[0] in module.functions:
                    return f"{module_name}:{rest[0]}"
                if rest[0] in module.classes:
                    return self._resolve_method(module_name, rest[0],
                                                "__init__")
                return None
            if len(rest) == 2 and rest[0] in module.classes:
                return self._resolve_method(module_name, rest[0],
                                            rest[1])
            return None
        return None

    def _mro(self, module_name: str, class_name: str
             ) -> Iterator[tuple[ModuleSummary, ClassSummary]]:
        """A class and its project-visible bases (approximate MRO).

        Bases outside the project stop the walk for that branch — a
        method or attribute may live there, which makes it *unknown*,
        not absent.
        """
        seen: set[tuple[str, str]] = set()
        queue = [(module_name, class_name)]
        while queue:
            mod_name, cls_name = queue.pop(0)
            if (mod_name, cls_name) in seen:
                continue
            seen.add((mod_name, cls_name))
            module = self.modules.get(mod_name)
            cls = module.classes.get(cls_name) if module else None
            if cls is None:
                continue
            yield module, cls
            for base in cls.bases:
                resolved = self._resolve_class(module, base)
                if resolved is not None:
                    queue.append(resolved)

    def _resolve_method(self, module_name: str, class_name: str,
                        method: str) -> str | None:
        for module, cls in self._mro(module_name, class_name):
            if method in cls.methods:
                return f"{module.name}:{cls.name}.{method}"
        return None

    def _attribute_class(self, module_name: str, class_name: str,
                         attr: str) -> tuple[str, str] | None:
        """The project class ``self.<attr>`` was constructed from."""
        for module, cls in self._mro(module_name, class_name):
            if attr in cls.attributes:
                constructor = cls.attributes[attr]
                return self._resolve_class(module, constructor) \
                    if constructor else None
        return None

    def _resolve_class(self, module: ModuleSummary,
                       name: str) -> tuple[str, str] | None:
        """(module, class) a dotted name written in ``module`` denotes."""
        parts = name.split(".")
        if len(parts) == 1:
            if parts[0] in module.classes:
                return (module.name, parts[0])
            if parts[0] in module.imports:
                parts = module.imports[parts[0]].split(".")
            else:
                return None
        elif parts[0] in module.imports:
            parts = [*module.imports[parts[0]].split("."), *parts[1:]]
        for split in range(len(parts) - 1, 0, -1):
            mod_name = ".".join(parts[:split])
            other = self.modules.get(mod_name)
            if other is None:
                continue
            rest = parts[split:]
            if len(rest) == 1 and rest[0] in other.classes:
                return (mod_name, rest[0])
            return None
        return None

    # -- transitive analyses -----------------------------------------------

    def blocking_chain(self, key: str
                       ) -> tuple[str, tuple[ChainStep, ...]] | None:
        """(reason, chain) when ``key`` can block its calling thread.

        Async callees are skipped (calling one only builds a
        coroutine), as are awaited call sites and executor hand-offs
        (``submit``/``run_in_executor``/...): those move the work off
        the calling thread by construction.
        """
        if key in self._blocking_memo:
            return self._blocking_memo[key]
        if key in self._visiting:
            return None
        fn = self.functions.get(key)
        if fn is None:
            return None
        self._visiting.add(key)
        try:
            result = None
            if fn.blocking:
                site = fn.blocking[0]
                path, _ = self.location(key)
                result = (site.reason, (ChainStep(
                    key, path, site.lineno, site.reason),))
            else:
                for call in fn.calls:
                    if call.awaited:
                        continue
                    if call.callee.rsplit(".", 1)[-1] in \
                            EXECUTOR_HANDOFF:
                        continue
                    callee_key = self.resolve_call(key, call.callee)
                    if callee_key is None or \
                            self.functions[callee_key].is_async:
                        continue
                    sub = self.blocking_chain(callee_key)
                    if sub is not None:
                        reason, chain = sub
                        path, _ = self.location(key)
                        step = ChainStep(key, path, call.lineno,
                                         f"calls {callee_key}")
                        result = (reason, (step, *chain))
                        break
        finally:
            self._visiting.discard(key)
        self._blocking_memo[key] = result
        return result

    def transitive_locks(self, key: str
                         ) -> dict[str, tuple[ChainStep, ...]]:
        """Every lock ``key`` may acquire, with one provenance chain each."""
        if key in self._locks_memo:
            return self._locks_memo[key]
        if key in self._visiting:
            return {}
        fn = self.functions.get(key)
        if fn is None:
            return {}
        self._visiting.add(key)
        try:
            result: dict[str, tuple[ChainStep, ...]] = {}
            path, _ = self.location(key)
            for acquire in fn.lock_acquires:
                result.setdefault(acquire.lock, (ChainStep(
                    key, path, acquire.lineno,
                    f"acquires {acquire.lock}"),))
            for call in fn.calls:
                callee_key = self.resolve_call(key, call.callee)
                if callee_key is None:
                    continue
                sub = self.transitive_locks(callee_key)
                if not sub:
                    continue
                step = ChainStep(key, path, call.lineno,
                                 f"calls {callee_key}")
                for lock, chain in sub.items():
                    result.setdefault(lock, (step, *chain))
        finally:
            self._visiting.discard(key)
        self._locks_memo[key] = result
        return result

    # -- lock-order graph --------------------------------------------------

    def lock_order_edges(self
                         ) -> dict[tuple[str, str],
                                   tuple[ChainStep, ...]]:
        """Static held→acquired edges with one provenance chain each.

        An edge ``(A, B)`` means some path acquires ``B`` while holding
        ``A`` — either lexically in one function or across a call
        boundary (call site holds ``A``, callee transitively acquires
        ``B``).  Locks are named by binding site; a lock taken inside
        a helper the ``with`` statement only calls into (the
        ``ReadWriteLock`` guards' ``__enter__``) is invisible here.
        """
        edges: dict[tuple[str, str], tuple[ChainStep, ...]] = {}
        for key, fn in self.functions.items():
            path, _ = self.location(key)
            for acquire in fn.lock_acquires:
                for held in acquire.held:
                    if held == acquire.lock:
                        continue
                    edges.setdefault((held, acquire.lock), (ChainStep(
                        key, path, acquire.lineno,
                        f"acquires {acquire.lock} while holding "
                        f"{held}"),))
            for call in fn.calls:
                if not call.locks_held:
                    continue
                callee_key = self.resolve_call(key, call.callee)
                if callee_key is None:
                    continue
                sub = self.transitive_locks(callee_key)
                if not sub:
                    continue
                step = ChainStep(key, path, call.lineno,
                                 f"calls {callee_key}")
                for lock, chain in sub.items():
                    for held in call.locks_held:
                        if held == lock:
                            continue
                        edges.setdefault((held, lock), (step, *chain))
        return edges

    # -- iteration helpers for the rules -----------------------------------

    def async_functions(self) -> Iterator[str]:
        for key, fn in self.functions.items():
            if fn.is_async:
                yield key
