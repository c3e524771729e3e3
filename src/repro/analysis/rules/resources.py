"""REP211: resources acquired but not released on every path.

Tracks executors, sockets, and files bound to a *local* name and asks
whether an exception between acquisition and release/ownership-transfer
can strand the resource.  The analysis is linear and lexical — no CFG —
but errs quiet: anything that plausibly transfers ownership (returned,
stored on an attribute, passed to a call, aliased, declared ``global``)
stops tracking, and a release inside a ``finally`` or ``except`` block
counts as protected no matter where it sits.

The shape this exists to catch (a real gateway-client bug)::

    sock = socket.create_connection(addr)
    sock.setsockopt(...)        # raises -> sock leaks
    return sock
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.analysis.lint import Finding, LintRule, Source
from repro.analysis.summaries import attr_chain

#: Constructor terminals that hand back something needing release.
_EXECUTOR_CTORS = frozenset({"ThreadPoolExecutor",
                             "ProcessPoolExecutor"})
_SOCKET_CALLS = frozenset({"create_connection"})
_FILE_CALLS = frozenset({"open", "fdopen"})

#: Methods that release the tracked resource.
_RELEASE_METHODS = frozenset({"close", "shutdown", "terminate",
                              "detach", "release", "__exit__"})


def _acquire_kind(value: ast.expr) -> str | None:
    """What kind of resource a RHS expression acquires, if any."""
    if not isinstance(value, ast.Call):
        return None
    chain = attr_chain(value.func)
    terminal = chain[-1] if chain else ""
    if terminal in _EXECUTOR_CTORS:
        return "executor"
    if terminal in _SOCKET_CALLS or chain == ["socket", "socket"]:
        return "socket"
    if chain == ["open"] or terminal in _FILE_CALLS and \
            (len(chain) == 1 or chain[0] in ("os", "io")):
        return "file"
    return None


@dataclass
class _Stmt:
    """One flattened statement with its cleanup context."""

    node: ast.stmt
    in_cleanup: bool  # inside a finally block or except handler


def _flatten(body: list[ast.stmt], in_cleanup: bool,
             out: list[_Stmt]) -> None:
    """Own statements in source order; nested defs are separate scopes."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        out.append(_Stmt(stmt, in_cleanup))
        if isinstance(stmt, (ast.Try,)):
            _flatten(stmt.body, in_cleanup, out)
            for handler in stmt.handlers:
                _flatten(handler.body, True, out)
            _flatten(stmt.orelse, in_cleanup, out)
            _flatten(stmt.finalbody, True, out)
        else:
            for field in ("body", "orelse", "finalbody"):
                nested = getattr(stmt, field, None)
                if isinstance(nested, list):
                    _flatten(nested, in_cleanup, out)


def _own_exprs(stmt: ast.stmt) -> Iterator[ast.AST]:
    """Expression nodes belonging to this statement, not sub-blocks."""
    if isinstance(stmt, (ast.If, ast.While)):
        yield from ast.walk(stmt.test)
        return
    if isinstance(stmt, ast.For):
        yield from ast.walk(stmt.target)
        yield from ast.walk(stmt.iter)
        return
    if isinstance(stmt, ast.With):
        for item in stmt.items:
            yield from ast.walk(item.context_expr)
        return
    if isinstance(stmt, ast.Try):
        return
    for child in ast.iter_child_nodes(stmt):
        if isinstance(child, ast.stmt):
            continue
        for node in ast.walk(child):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                break
            yield node


def _releases(stmt: ast.stmt, name: str) -> bool:
    for node in _own_exprs(stmt):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                isinstance(node.func.value, ast.Name) and \
                node.func.value.id == name and \
                node.func.attr in _RELEASE_METHODS:
            return True
    return False


def _escapes(stmt: ast.stmt, name: str) -> bool:
    """Ownership leaves the local scope: stop tracking, assume safe."""
    for node in _own_exprs(stmt):
        if isinstance(node, ast.Call):
            args = list(node.args) + [kw.value for kw in node.keywords]
            for arg in args:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Name) and sub.id == name:
                        return True
    if isinstance(stmt, ast.Return) and stmt.value is not None:
        for node in ast.walk(stmt.value):
            if isinstance(node, ast.Name) and node.id == name:
                return True
    if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        value = getattr(stmt, "value", None)
        if value is not None:
            for node in ast.walk(value):
                if isinstance(node, ast.Name) and node.id == name and \
                        not _is_receiver_only(value, node):
                    return True
    if isinstance(stmt, ast.With):
        for item in stmt.items:
            for node in ast.walk(item.context_expr):
                if isinstance(node, ast.Name) and node.id == name:
                    return True
    if isinstance(stmt, ast.Expr) and stmt.value is not None:
        for node in ast.walk(stmt.value):
            if isinstance(node, (ast.Yield, ast.YieldFrom)) and \
                    node.value is not None:
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Name) and sub.id == name:
                        return True
    return False


def _is_receiver_only(value: ast.expr, name_node: ast.Name) -> bool:
    """True when the name only appears as ``name.method(...)`` receiver."""
    for node in ast.walk(value):
        if isinstance(node, ast.Attribute) and node.value is name_node:
            return True
    return False


def _risky(stmt: ast.stmt, name: str) -> bool:
    """Can this statement raise before the resource is safe?"""
    if isinstance(stmt, ast.Raise):
        return True
    for node in _own_exprs(stmt):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute) and \
                    isinstance(node.func.value, ast.Name) and \
                    node.func.value.id == name and \
                    node.func.attr in _RELEASE_METHODS:
                continue
            return True
    return False


class ResourceLeak(LintRule):
    """REP211: executor/socket/file not released on an exception path."""

    rule_id = "REP211"
    severity = "error"
    description = ("resource acquired but not released on every "
                   "exception path")

    def check(self, source: Source) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                yield from self._check_function(source, node)

    def _check_function(self, source: Source,
                        fn: ast.FunctionDef | ast.AsyncFunctionDef
                        ) -> Iterator[Finding]:
        statements: list[_Stmt] = []
        _flatten(fn.body, False, statements)
        declared_elsewhere: set[str] = set()
        for entry in statements:
            if isinstance(entry.node, (ast.Global, ast.Nonlocal)):
                declared_elsewhere.update(entry.node.names)
        for position, entry in enumerate(statements):
            for name, kind, lineno in self._acquisitions(entry.node):
                if name in declared_elsewhere:
                    continue  # stored beyond this scope by declaration
                problem = self._leak_verdict(statements, position,
                                             name)
                if problem is not None:
                    yield self.finding(
                        source, lineno,
                        f"{kind} `{name}` acquired here {problem}; "
                        f"use `with`, or release it in a "
                        f"finally/except block",
                    )

    @staticmethod
    def _acquisitions(stmt: ast.stmt
                      ) -> Iterator[tuple[str, str, int]]:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            return
        value = getattr(stmt, "value", None)
        if value is None:
            return
        targets = stmt.targets if isinstance(stmt, ast.Assign) else \
            [stmt.target]
        kind = _acquire_kind(value)
        if kind is None:
            return
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, kind, stmt.lineno

    @staticmethod
    def _leak_verdict(statements: list[_Stmt], position: int,
                      name: str) -> str | None:
        """Why the acquisition leaks, or ``None`` when it is safe."""
        # A release inside any finally/except block protects every
        # path; scan the whole function for one first.
        for entry in statements[position + 1:]:
            if entry.in_cleanup and _releases(entry.node, name):
                return None
        risky_line: int | None = None
        for entry in statements[position + 1:]:
            node = entry.node
            if _releases(node, name):
                if risky_line is not None:
                    return (f"is not released when line {risky_line} "
                            f"raises (release at line {node.lineno} "
                            f"is skipped)")
                return None
            if _escapes(node, name):
                if risky_line is not None:
                    return (f"leaks when line {risky_line} raises "
                            f"before ownership transfers at line "
                            f"{node.lineno}")
                return None
            if risky_line is None and _risky(node, name):
                risky_line = node.lineno
        return "and never released"
