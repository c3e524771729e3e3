"""Concurrency lint rules tuned to this repo's serving/docstore tiers.

They reason about the primitives the codebase builds on: mutual
exclusion via ``with <lock>:`` blocks, futures handed out by worker
pools, and the event loop.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint import Finding, LintRule, Source
from repro.analysis.summaries import (
    LOCKISH,
    attr_chain,
    blocking_call_reason,
    call_chain,
    collect_imports,
)

#: Method calls that mutate their receiver (so ``self._entries.pop(...)``
#: counts as a *write* to ``self._entries``).
_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "add", "discard", "setdefault", "move_to_end", "sort",
    "reverse",
})

#: Methods where lock-free initialization of shared attributes is fine.
_SETUP_METHODS = frozenset({
    "__init__", "__new__", "__post_init__", "__del__", "__enter__",
    "__exit__",
})


def _terminal_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_lock_guard(expr: ast.expr) -> bool:
    name = _terminal_name(expr)
    if name is None:
        return False
    lowered = name.lower()
    return any(token in lowered for token in LOCKISH)


def _lock_guard_name(with_node: ast.With) -> str | None:
    for item in with_node.items:
        if _is_lock_guard(item.context_expr):
            return _terminal_name(item.context_expr)
    return None


class _Access:
    """One read or write of a shared name inside a function."""

    __slots__ = ("name", "function", "lineno", "is_write", "under_lock")

    def __init__(self, name: str, function: str, lineno: int,
                 is_write: bool, under_lock: bool) -> None:
        self.name = name
        self.function = function
        self.lineno = lineno
        self.is_write = is_write
        self.under_lock = under_lock


def _first_level_attr(node: ast.Attribute, owner: str) -> str | None:
    """The ``X`` in ``<owner>.X[.anything]``; None for other receivers."""
    chain = attr_chain(node)
    if len(chain) >= 2 and chain[0] == owner:
        return chain[1]
    return None


class _AccessCollector(ast.NodeVisitor):
    """Record shared-state accesses within one function body.

    ``owner`` selects what counts as shared state: a method's ``self``
    argument name (attribute accesses ``self.X``), or ``None`` for
    module-level functions (accesses to module globals from ``names``).
    """

    def __init__(self, function_name: str, owner: str | None,
                 names: frozenset[str]) -> None:
        self.function = function_name
        self.owner = owner
        self.names = names
        self.lock_depth = 0
        self.accesses: list[_Access] = []

    # -- helpers ----------------------------------------------------------

    def _record(self, name: str | None, lineno: int,
                is_write: bool) -> None:
        if name is None or name not in self.names:
            return
        lowered = name.lower()
        if any(token in lowered for token in LOCKISH):
            return
        self.accesses.append(_Access(
            name, self.function, lineno, is_write, self.lock_depth > 0,
        ))

    def _target_name(self, node: ast.expr) -> tuple[str | None, int]:
        """The shared name a store/delete target touches, with its line."""
        while isinstance(node, (ast.Subscript, ast.Starred)):
            node = node.value
        if isinstance(node, ast.Attribute):
            if self.owner is not None:
                return _first_level_attr(node, self.owner), node.lineno
            return None, node.lineno
        if isinstance(node, ast.Name) and self.owner is None:
            return node.id, node.lineno
        return None, getattr(node, "lineno", 0)

    def _record_store_targets(self, targets: list[ast.expr]) -> None:
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                self._record_store_targets(list(target.elts))
                continue
            name, lineno = self._target_name(target)
            self._record(name, lineno, is_write=True)

    # -- visitors ---------------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        guarded = any(
            _is_lock_guard(item.context_expr) for item in node.items
        )
        for item in node.items:
            self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        if guarded:
            self.lock_depth += 1
        for statement in node.body:
            self.visit(statement)
        if guarded:
            self.lock_depth -= 1

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_store_targets(node.targets)
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        name, lineno = self._target_name(node.target)
        self._record(name, lineno, is_write=True)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_store_targets([node.target])
            self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        self._record_store_targets(node.targets)

    def visit_Call(self, node: ast.Call) -> None:
        # Mutating method calls are writes to the receiver.
        func = node.func
        if isinstance(func, ast.Attribute) and \
                func.attr in _MUTATING_METHODS:
            name, lineno = self._target_name(func.value)
            self._record(name, lineno, is_write=True)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self.owner is not None and isinstance(node.ctx, ast.Load):
            self._record(
                _first_level_attr(node, self.owner), node.lineno,
                is_write=False,
            )
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if self.owner is None and isinstance(node.ctx, ast.Load):
            self._record(node.id, node.lineno, is_write=False)

    # Nested defs share the enclosing function's lock context only when
    # they run inline; treat them as part of the same function.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        for statement in node.body:
            self.visit(statement)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.visit(node.body)


class UnguardedSharedState(LintRule):
    """REP201: state locked in one method, touched lock-free in another."""

    rule_id = "REP201"
    severity = "error"
    description = (
        "an attribute (or module global) written under a lock in one "
        "function is read or written without the lock in another"
    )

    def check(self, source: Source) -> Iterator[Finding]:
        for scope in self._scopes(source.tree):
            yield from self._check_scope(source, *scope)

    def _scopes(self, tree: ast.Module):
        # Classes: shared state is `self.X`.
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                methods = [
                    child for child in node.body
                    if isinstance(child, ast.FunctionDef)
                ]
                yield node.name, methods, self._self_name, None
        # Module level: shared state is assigned module globals.
        functions = [
            child for child in tree.body
            if isinstance(child, ast.FunctionDef)
        ]
        module_names = frozenset(
            target.id
            for child in tree.body
            if isinstance(child, (ast.Assign, ast.AnnAssign))
            for target in (
                child.targets if isinstance(child, ast.Assign)
                else [child.target]
            )
            if isinstance(target, ast.Name)
        )
        yield "<module>", functions, lambda method: None, module_names

    @staticmethod
    def _self_name(method: ast.FunctionDef) -> str | None:
        for decorator in method.decorator_list:
            if isinstance(decorator, ast.Name) and \
                    decorator.id in ("staticmethod", "classmethod"):
                return None
        if method.args.args:
            return method.args.args[0].arg
        return None

    def _check_scope(self, source: Source, scope_name: str,
                     functions: list[ast.FunctionDef], owner_of,
                     module_names: frozenset[str] | None
                     ) -> Iterator[Finding]:
        accesses: list[_Access] = []
        for function in functions:
            owner = owner_of(function)
            if module_names is None and owner is None:
                continue  # static method: no shared `self` state
            collector = _AccessCollector(
                function.name, owner,
                module_names if module_names is not None else _AnyName(),
            )
            for statement in function.body:
                collector.visit(statement)
            accesses.extend(collector.accesses)

        guarded = {
            access.name for access in accesses
            if access.is_write and access.under_lock
        }
        if not guarded:
            return
        seen: set[tuple[str, str]] = set()
        for access in accesses:
            if access.name not in guarded or access.under_lock:
                continue
            if access.function in _SETUP_METHODS:
                continue
            marker = (access.function, access.name)
            if marker in seen:
                continue
            seen.add(marker)
            kind = "written" if access.is_write else "read"
            yield self.finding(
                source, access.lineno,
                f"{scope_name}.{access.name} is guarded by a lock "
                f"elsewhere but {kind} lock-free in "
                f"{access.function}()",
            )


class _AnyName:
    """A name universe that contains every string (for `self.X` scopes)."""

    def __contains__(self, name: object) -> bool:
        return True


class BlockingCallUnderLock(LintRule):
    """REP202: sleeping / joining / I/O while holding a lock."""

    rule_id = "REP202"
    severity = "error"
    description = (
        "a blocking call (sleep, Future.result, executor submit/"
        "shutdown, file or socket I/O) inside a `with <lock>:` body "
        "serializes every other thread behind it and can deadlock "
        "bounded pools"
    )

    _BLOCKING_ATTRS = frozenset({
        "result", "submit", "recv", "send", "connect", "accept",
    })

    def check(self, source: Source) -> Iterator[Finding]:
        yield from self._walk(
            source, source.tree, guard=None,
            imports=collect_imports(source.tree),
        )

    def _walk(self, source: Source, node: ast.AST, guard: str | None,
              imports: dict[str, str]) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            child_guard = guard
            if isinstance(child, ast.With):
                child_guard = _lock_guard_name(child) or guard
            if guard is not None and isinstance(child, ast.Call):
                blocked = self._blocking_reason(child, imports)
                if blocked is not None:
                    yield self.finding(
                        source, child,
                        f"{blocked} while holding {guard!r}",
                    )
            yield from self._walk(source, child, child_guard, imports)

    def _blocking_reason(self, call: ast.Call,
                         imports: dict[str, str]) -> str | None:
        func = call.func
        chain = call_chain(func, imports)
        if chain == ["open"]:
            return "file I/O (open)"
        if chain[:2] == ["time", "sleep"]:
            return "time.sleep"
        if not isinstance(func, ast.Attribute):
            return None
        if chain and chain[0] in ("socket", "requests", "urllib",
                                  "http", "httpx"):
            return f"network I/O ({'.'.join(chain)})"
        if func.attr == "shutdown":
            if not self._wait_is_false(call):
                return "blocking executor shutdown"
            return None
        if func.attr == "join" and not call.args:
            return "thread join"
        if func.attr in self._BLOCKING_ATTRS:
            return f"blocking call .{func.attr}()"
        return None

    @staticmethod
    def _wait_is_false(call: ast.Call) -> bool:
        for keyword in call.keywords:
            if keyword.arg == "wait" and \
                    isinstance(keyword.value, ast.Constant):
                return keyword.value.value is False
        return False


class AbandonedFutureGather(LintRule):
    """REP205: a ``future.result()`` loop that can abandon siblings."""

    rule_id = "REP205"
    severity = "error"
    description = (
        "a loop (or comprehension) calling .result() on each future "
        "in turn stops consuming at the first exception, abandoning "
        "the sibling futures still running (in-flight work keeps "
        "mutating after the caller saw the error); call wait() on the "
        "whole set, or iterate as_completed(), before raising"
    )

    #: A call to either of these anywhere in the enclosing scope means
    #: the author quiesced (or consumed completions in completion
    #: order), which is exactly the fix for this bug class.
    _BARRIER_CALLS = frozenset({"wait", "as_completed"})

    def check(self, source: Source) -> Iterator[Finding]:
        yield from self._visit(
            source, source.tree, self._scope_has_barrier(source.tree)
        )

    def _visit(self, source: Source, node: ast.AST,
               barrier: bool) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            child_barrier = barrier
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                # A barrier in an *enclosing* scope counts too: a helper
                # may loop over futures its caller already waited on.
                child_barrier = barrier or self._scope_has_barrier(child)
            if not child_barrier:
                yield from self._check_node(source, child)
            yield from self._visit(source, child, child_barrier)

    def _check_node(self, source: Source,
                    node: ast.AST) -> Iterator[Finding]:
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            yield from self._result_calls(
                source, node.body, node.target.id
            )
        elif isinstance(node, (ast.ListComp, ast.SetComp,
                               ast.GeneratorExp)):
            for generator in node.generators:
                if isinstance(generator.target, ast.Name):
                    yield from self._result_calls(
                        source, [node.elt], generator.target.id
                    )

    def _result_calls(self, source: Source, body: list[ast.AST],
                      variable: str) -> Iterator[Finding]:
        for statement in body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Attribute) and \
                        node.func.attr == "result" and \
                        isinstance(node.func.value, ast.Name) and \
                        node.func.value.id == variable:
                    yield self.finding(
                        source, node,
                        f"{variable}.result() consumed in submission "
                        "order with no wait()/as_completed() barrier; "
                        "an early exception abandons the futures still "
                        "running",
                    )

    def _scope_has_barrier(self, scope: ast.AST) -> bool:
        """A barrier call in ``scope``, not counting nested functions.

        A ``wait()`` inside a nested helper does not quiesce the
        enclosing scope's futures, so only this scope's own statements
        count; enclosing-scope barriers are inherited in ``_visit``.
        """
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            if isinstance(node, ast.Call) and \
                    _terminal_name(node.func) in self._BARRIER_CALLS:
                return True
            stack.extend(ast.iter_child_nodes(node))
        return False


class BlockingCallInAsync(LintRule):
    """REP206: a blocking call on the event loop (inside ``async def``)."""

    rule_id = "REP206"
    severity = "error"
    description = (
        "a blocking call (time.sleep, Future.result, bare lock "
        "acquire, thread join, synchronous socket or file I/O, "
        "subprocess) inside an `async def` body stalls the event loop "
        "for every connection it is multiplexing; await the async "
        "equivalent or push the work onto an executor"
    )

    def check(self, source: Source) -> Iterator[Finding]:
        imports = collect_imports(source.tree)
        for node in ast.walk(source.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._scan_async_body(source, node, imports)

    def _scan_async_body(self, source: Source,
                         function: ast.AsyncFunctionDef,
                         imports: dict[str, str]) -> Iterator[Finding]:
        # Direct children only, skipping nested sync defs (their bodies
        # run wherever they are *called* — often an executor thread —
        # and nested async defs are visited by the outer walk).
        stack: list[tuple[ast.AST, bool]] = [
            (child, False) for child in ast.iter_child_nodes(function)
        ]
        while stack:
            node, awaited = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            if isinstance(node, ast.Await):
                # Whatever is directly awaited yields the loop; its
                # arguments are still evaluated synchronously.
                stack.extend(
                    (child, True)
                    for child in ast.iter_child_nodes(node)
                )
                continue
            if isinstance(node, ast.Call) and not awaited:
                reason = blocking_call_reason(node, imports)
                if reason is not None:
                    yield self.finding(
                        source, node,
                        f"{reason} blocks the event loop in async "
                        f"{function.name}()",
                    )
            stack.extend(
                (child, False) for child in ast.iter_child_nodes(node)
            )
