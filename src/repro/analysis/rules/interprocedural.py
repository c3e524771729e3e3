"""Interprocedural rules: findings that need the whole call graph.

These run once per analysis over the :class:`ProjectIndex` rather than
per file — a blocking call three frames below an ``async def`` or a
lock-order cycle split across modules is invisible to any single-file
rule.  Everything here inherits the call graph's conservatism: an
unresolvable callee contributes *nothing*, so every finding is backed
by an explicit chain of project code.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.callgraph import (
    EXECUTOR_HANDOFF,
    ProjectIndex,
    format_chain,
)
from repro.analysis.lint import Finding, ProjectRule


class TransitiveBlockingInAsync(ProjectRule):
    """REP208: an ``async def`` reaches a blocking call through sync code.

    The call-graph upgrade of REP206: REP206 flags ``time.sleep`` typed
    directly inside an ``async def``; this rule follows sync callees any
    number of frames down.  Awaited call sites are exempt (an awaited
    coroutine yields to the loop), as are executor hand-offs
    (``run_in_executor``, ``submit``, ...) whose entire purpose is to
    run blocking code elsewhere.
    """

    rule_id = "REP208"
    severity = "error"
    description = ("blocking call transitively reachable from an "
                   "async def")

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for key in index.async_functions():
            fn = index.functions[key]
            path = index.module_of(key).path
            for call in fn.calls:
                if call.awaited:
                    continue
                if call.callee.rsplit(".", 1)[-1] in EXECUTOR_HANDOFF:
                    continue
                callee_key = index.resolve_call(key, call.callee)
                if callee_key is None:
                    continue
                if index.functions[callee_key].is_async:
                    continue
                chain = index.blocking_chain(callee_key)
                if chain is None:
                    continue
                reason, steps = chain
                yield self.finding(
                    path, call.lineno,
                    f"async {fn.qualname}() reaches blocking "
                    f"{reason} via {call.callee}(): "
                    f"{format_chain(steps)}; await the work or hand "
                    f"it to an executor",
                )


def find_cycles(edges: set[tuple[str, str]]) -> list[list[str]]:
    """Distinct elementary cycles in the lock-order graph (DFS)."""
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


class StaticLockOrderCycle(ProjectRule):
    """REP209: a lock-order cycle visible at compile time.

    Builds the static held→acquired edge graph (lexical ``with``
    nesting plus call sites made while holding a lock, expanded through
    each callee's transitive acquisitions — ``self.<attr>.method()``
    included when the attribute's class is known) and reports every
    cycle :func:`find_cycles` finds in it.  A lock is named by its
    binding site (``repro.serve.metrics.GatewayMetrics._lock``).
    """

    rule_id = "REP209"
    severity = "error"
    description = "static lock-order cycle across functions"

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        edges = index.lock_order_edges()
        for cycle in find_cycles(set(edges)):
            pairs = [(cycle[i], cycle[(i + 1) % len(cycle)])
                     for i in range(len(cycle))]
            sites = [edges[pair] for pair in pairs if pair in edges]
            if not sites:
                continue
            anchor = min((chain[0] for chain in sites),
                         key=lambda step: (step.path, step.lineno))
            order = " -> ".join([*cycle, cycle[0]])
            detail = "; ".join(
                f"({a} -> {b}) via {format_chain(edges[(a, b)])}"
                for a, b in pairs if (a, b) in edges
            )
            yield self.finding(
                anchor.path, anchor.lineno,
                f"static lock-order cycle {order}: {detail}",
            )
