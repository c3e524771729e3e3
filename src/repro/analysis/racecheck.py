"""Runtime lock-order race checking.

Drop-in instrumented ``Lock`` / ``RLock`` / ``Condition`` wrappers.  The
serve/docstore modules create their locks through the factory functions
here (:func:`make_lock`, :func:`make_rlock`, :func:`make_condition`):
with checking disabled (the default) the factories return the plain
``threading`` primitives — zero overhead; with ``REPRO_RACECHECK=1``
(or :func:`enable`) they return tracked wrappers that record, per
thread, the acquisition order of every lock into one global
**lock-order graph**.

What the report flags:

* **cycles** — lock A taken while holding B somewhere, and B taken
  while holding A somewhere else: a potential deadlock even if the two
  paths have never yet interleaved;
* **violations** — hazards observed directly: a non-reentrant lock
  re-acquired by its owning thread (self-deadlock).

Wire-up: ``tests/conftest.py`` asserts a clean report at session end,
so running the existing serve/docstore stress tests with
``REPRO_RACECHECK=1`` doubles as a race test suite.

This module must stay dependency-free (stdlib only): the docstore
imports it at startup.
"""

from __future__ import annotations

import os
import threading
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

#: Environment flag turning instrumentation on at lock-construction time.
ENV_FLAG = "REPRO_RACECHECK"

#: Guards the global graph/violation state.  A *plain* lock on purpose:
#: the checker must never trace itself.
_state_lock = threading.Lock()

_enabled_override: bool | None = None
_edges: dict[tuple[str, str], str] = {}
_violations: list[dict[str, Any]] = []
_acquisitions: dict[str, int] = {}

_held = threading.local()


def enabled() -> bool:
    """True when lock instrumentation is on (env flag or programmatic)."""
    if _enabled_override is not None:
        return _enabled_override
    return os.environ.get(ENV_FLAG, "") == "1"


def enable() -> None:
    """Turn checking on for locks created from now on (tests)."""
    global _enabled_override
    _enabled_override = True


def disable() -> None:
    global _enabled_override
    _enabled_override = False


def reset() -> None:
    """Clear the recorded graph and violations (not the enabled state)."""
    with _state_lock:
        _edges.clear()
        _violations.clear()
        _acquisitions.clear()


def _stack_summary(skip: int = 3, limit: int = 6) -> str:
    frames = traceback.format_stack()[:-skip]
    return "".join(frames[-limit:])


def _held_stack() -> list["_TrackedBase"]:
    stack = getattr(_held, "stack", None)
    if stack is None:
        stack = []
        _held.stack = stack
    return stack


# -- tracked primitives ----------------------------------------------------

class _TrackedBase:
    """Shared acquire/release bookkeeping for every tracked primitive."""

    reentrant = False

    def __init__(self, inner: Any, name: str) -> None:
        self._inner = inner
        self.name = name

    # The wrapper records the would-be edge *before* blocking on the
    # underlying primitive, so a real deadlock still leaves the cycle
    # in the graph for a post-mortem report.
    def _before_acquire(self) -> None:
        stack = _held_stack()
        if any(entry is self for entry in stack):
            if not self.reentrant:
                with _state_lock:
                    _violations.append({
                        "kind": "self_deadlock",
                        "lock": self.name,
                        "stack": _stack_summary(),
                    })
            return
        held_names = {entry.name for entry in stack
                      if entry.name != self.name}
        if held_names:
            with _state_lock:
                for held_name in held_names:
                    _edges.setdefault(
                        (held_name, self.name), _stack_summary()
                    )

    def _after_acquire(self) -> None:
        _held_stack().append(self)
        with _state_lock:
            _acquisitions[self.name] = \
                _acquisitions.get(self.name, 0) + 1

    def _after_release(self) -> None:
        stack = _held_stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is self:
                del stack[index]
                break

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._before_acquire()
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._after_acquire()
        return acquired

    def release(self) -> None:
        self._after_release()
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: Any) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class TrackedLock(_TrackedBase):
    """Instrumented non-reentrant mutex."""

    def __init__(self, name: str) -> None:
        super().__init__(threading.Lock(), name)

    def locked(self) -> bool:
        return self._inner.locked()


class TrackedRLock(_TrackedBase):
    """Instrumented reentrant mutex (re-entry records no edges)."""

    reentrant = True

    def __init__(self, name: str) -> None:
        super().__init__(threading.RLock(), name)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._before_acquire()
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._after_acquire()
        return acquired


class TrackedCondition(_TrackedBase):
    """Instrumented condition variable.

    ``wait()`` releases the underlying lock, so the held-stack entry is
    popped for the duration of the wait and re-pushed after wake-up —
    otherwise every waiter would look like it deadlocks with the
    notifier.
    """

    reentrant = True

    def __init__(self, name: str) -> None:
        super().__init__(threading.Condition(), name)

    def wait(self, timeout: float | None = None) -> bool:
        self._after_release()
        try:
            return self._inner.wait(timeout)
        finally:
            self._after_acquire()

    def wait_for(self, predicate: Callable[[], bool],
                 timeout: float | None = None) -> bool:
        self._after_release()
        try:
            return self._inner.wait_for(predicate, timeout)
        finally:
            self._after_acquire()

    def notify(self, n: int = 1) -> None:
        self._inner.notify(n)

    def notify_all(self) -> None:
        self._inner.notify_all()


# -- factories (what the serve/docstore modules call) ----------------------

def make_lock(name: str) -> "TrackedLock | threading.Lock":
    """A mutex: tracked when race checking is enabled, plain otherwise."""
    if enabled():
        return TrackedLock(name)
    return threading.Lock()


def make_rlock(name: str) -> "TrackedRLock | threading.RLock":
    if enabled():
        return TrackedRLock(name)
    return threading.RLock()


def make_condition(name: str) -> "TrackedCondition | threading.Condition":
    if enabled():
        return TrackedCondition(name)
    return threading.Condition()


# -- reporting -------------------------------------------------------------

@dataclass
class RaceCheckReport:
    """Everything the checker observed since the last reset."""

    edges: dict[tuple[str, str], str] = field(default_factory=dict)
    cycles: list[list[str]] = field(default_factory=list)
    violations: list[dict[str, Any]] = field(default_factory=list)
    acquisitions: dict[str, int] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.cycles and not self.violations

    def as_dict(self) -> dict[str, Any]:
        return {
            "clean": self.clean,
            "edges": [
                {"from": a, "to": b} for (a, b) in sorted(self.edges)
            ],
            "cycles": self.cycles,
            "violations": self.violations,
            "acquisitions": dict(sorted(self.acquisitions.items())),
        }

    def summary(self) -> str:
        lines = [
            f"racecheck: {len(self.acquisitions)} lock(s), "
            f"{len(self.edges)} order edge(s), "
            f"{len(self.cycles)} cycle(s), "
            f"{len(self.violations)} violation(s)"
        ]
        for cycle in self.cycles:
            lines.append("  potential deadlock: " + " -> ".join(
                cycle + [cycle[0]]
            ))
        for violation in self.violations:
            lines.append(
                f"  {violation['kind']}: {violation.get('lock', '?')}"
            )
        return "\n".join(lines)


def find_cycles(edges: set[tuple[str, str]]) -> list[list[str]]:
    """Distinct elementary cycles in the lock-order graph (DFS).

    Public because the static analyzer (REP209) runs the same cycle
    detector over its compile-time lock-order edges — one algorithm,
    two graphs, directly comparable output.
    """
    graph: dict[str, list[str]] = {}
    for a, b in edges:
        graph.setdefault(a, []).append(b)
    cycles: list[list[str]] = []
    seen_sets: set[frozenset[str]] = set()

    def dfs(node: str, path: list[str], on_path: set[str]) -> None:
        for successor in graph.get(node, ()):
            if successor in on_path:
                start = path.index(successor)
                cycle = path[start:]
                marker = frozenset(cycle)
                if marker not in seen_sets:
                    seen_sets.add(marker)
                    cycles.append(cycle)
                continue
            path.append(successor)
            on_path.add(successor)
            dfs(successor, path, on_path)
            on_path.discard(successor)
            path.pop()

    for start in sorted(graph):
        dfs(start, [start], {start})
    return cycles


def report() -> RaceCheckReport:
    """Snapshot the graph, detect cycles, and return the full report."""
    with _state_lock:
        edges = dict(_edges)
        violations = list(_violations)
        acquisitions = dict(_acquisitions)
    return RaceCheckReport(
        edges=edges,
        cycles=find_cycles(set(edges)),
        violations=violations,
        acquisitions=acquisitions,
    )
