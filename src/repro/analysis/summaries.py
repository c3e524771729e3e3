"""Per-function summaries: the unit of interprocedural analysis.

One :class:`ModuleSummary` is derived from one module's AST alone — no
cross-module information.  Everything the interprocedural rules
(REP208, REP209) need from a function is distilled here:

* **call sites** — every call the function body makes directly (nested
  ``def``/``lambda`` bodies are deferred work and deliberately excluded),
  with the raw dotted callee expression (``self.flush``, ``mod.fn``),
  whether the call is directly awaited, and which locks are lexically
  held at the site;
* **blocking calls** — direct calls the REP202/REP206 family classifies
  as event-loop/thread blockers (``time.sleep``, ``Future.result``,
  synchronous socket/file I/O, ...);
* **lock acquisitions** — every ``with <lock>:`` entry, resolved to a
  stable *lock identity*, plus the identities already held at that point
  (the static lock-order edges);
* **typed attributes** — per class, each ``self.<attr> = <Name>(...)``
  binding as the raw constructor expression (``LatencyHistogram``,
  ``threading.Lock``); the project index resolves the name to a project
  class, so ``self.<attr>.method()`` gets a callee.

Lock identity
    A lock is named by where it is bound (``module.Class.attr``,
    ``module.attr``, ``module.func.var``), so same-named locks in
    different classes never alias into false cycles.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

#: Lock-ish terminal names (mirrors the REP201/REP202 heuristic).
LOCKISH = ("lock", "condition", "mutex")

#: Stdlib lock constructors (``threading.Lock()`` etc.).
_LOCK_CTORS = frozenset({"Lock", "RLock", "Condition", "Semaphore",
                         "BoundedSemaphore"})

#: Socket-style methods that block the calling thread (REP206's list).
_SOCKET_ATTRS = frozenset({
    "recv", "recv_into", "recvfrom", "send", "sendall", "sendto",
    "accept", "connect",
})


def attr_chain(node: ast.expr) -> list[str]:
    """``a.b.c`` -> ``["a", "b", "c"]`` (empty when not a pure chain)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


def collect_imports(tree: ast.AST) -> dict[str, str]:
    """Local name -> dotted target for every absolute import in ``tree``."""
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    # `import a.b.c` binds `a`; attribute chains resolve
                    # the rest at lookup time.
                    imports[alias.name.split(".")[0]] = \
                        alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and \
                node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    return imports


def call_chain(func: ast.expr, imports: dict[str, str]) -> list[str]:
    """``func``'s dotted chain with its import alias resolved.

    ``t.sleep`` under ``import time as t`` and ``nap`` under ``from time
    import sleep as nap`` both give ``["time", "sleep"]``.
    """
    chain = attr_chain(func)
    if chain and chain[0] in imports:
        return [*imports[chain[0]].split("."), *chain[1:]]
    return chain


def zero_timeout(call: ast.Call) -> bool:
    """``x.result(0)`` / ``x.result(timeout=0)``: a poll, never a wait."""
    values = [*call.args[:1], *(keyword.value for keyword in call.keywords
                                if keyword.arg == "timeout")]
    return any(isinstance(value, ast.Constant) and value.value == 0
               for value in values)


def blocking_call_reason(call: ast.Call,
                         imports: dict[str, str]) -> str | None:
    """Why ``call`` blocks the calling thread, or ``None`` if it doesn't.

    The one classification REP206 applies inside ``async def`` bodies
    and the summaries record for REP208's transitive reachability, so
    the two can never disagree about what "blocking" means.
    ``imports`` is the module's :func:`collect_imports` table.
    """
    func = call.func
    chain = call_chain(func, imports)
    if chain == ["open"]:
        return "file I/O (open)"
    if chain[:2] == ["time", "sleep"]:
        return "time.sleep"
    if not isinstance(func, ast.Attribute):
        return None
    if chain and chain[0] == "subprocess":
        return f"subprocess ({'.'.join(chain)})"
    if chain and chain[0] in ("socket", "requests", "urllib",
                              "http", "httpx"):
        return f"synchronous network I/O ({'.'.join(chain)})"
    if func.attr == "result" and not zero_timeout(call):
        return "Future.result()"
    if func.attr in _SOCKET_ATTRS and chain and chain[0] not in ("self",):
        return f"synchronous socket op .{func.attr}()"
    if func.attr == "acquire" and not call.args and not call.keywords:
        return "bare lock acquire()"
    if func.attr == "join" and not call.args:
        return "thread join"
    return None


# -- summary records -------------------------------------------------------

@dataclass(frozen=True)
class CallSite:
    """One direct call made by a function body."""

    callee: str  # dotted callee expression; "?" marks an opaque receiver
    lineno: int
    awaited: bool = False
    locks_held: tuple[str, ...] = ()


@dataclass(frozen=True)
class BlockingSite:
    """One direct blocking call (REP206 classification)."""

    reason: str
    lineno: int


@dataclass(frozen=True)
class LockAcquire:
    """One ``with <lock>:`` entry, with the identities already held."""

    lock: str
    lineno: int
    held: tuple[str, ...] = ()


@dataclass(frozen=True)
class FunctionSummary:
    """Everything interprocedural analysis needs from one function."""

    name: str
    qualname: str  # module-relative: "func" or "Class.method"
    lineno: int
    is_async: bool = False
    calls: tuple[CallSite, ...] = ()
    blocking: tuple[BlockingSite, ...] = ()
    lock_acquires: tuple[LockAcquire, ...] = ()


@dataclass(frozen=True)
class ClassSummary:
    """A class: its method summaries and (raw) base-class expressions."""

    name: str
    bases: tuple[str, ...] = ()  # dotted base expressions, as written
    methods: dict[str, FunctionSummary] = field(default_factory=dict)
    #: ``self.<attr>`` and class-body bindings -> the raw constructor
    #: expression (``"LatencyHistogram"``); ``""`` when the attribute is
    #: bound to anything else or to more than one constructor.
    attributes: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class ModuleSummary:
    """One module's contribution to the project index."""

    name: str  # dotted module name ("repro.gateway.server")
    path: str  # repo-relative, forward slashes
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    classes: dict[str, ClassSummary] = field(default_factory=dict)
    #: Module-level lock bindings (name -> identity), published so other
    #: modules' imported-guard provisionals (``@pkg.locks.A``) can be
    #: resolved by the project index.
    locks: dict[str, str] = field(default_factory=dict)

    def all_functions(self) -> Iterator[FunctionSummary]:
        yield from self.functions.values()
        for cls in self.classes.values():
            yield from cls.methods.values()


# -- module naming ---------------------------------------------------------

def module_name_for(path: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/repro/gateway/server.py`` -> ``repro.gateway.server``;
    other trees keep their path-derived name (``tests/test_x.py`` ->
    ``tests.test_x``), so absolute imports resolve whenever the repo
    layout matches the import layout.
    """
    normalized = path.replace("\\", "/")
    parts = [part for part in normalized.split("/") if part]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "<module>"


# -- lock identity resolution ----------------------------------------------

def constructor_of(value: ast.expr) -> str:
    """``threading.Lock`` for ``threading.Lock()``; ``""`` if no call."""
    if not isinstance(value, ast.Call):
        return ""
    return ".".join(attr_chain(value.func))


def is_lock_constructor(constructor: str) -> bool:
    """True when a raw constructor expression builds a stdlib lock."""
    return constructor.rsplit(".", 1)[-1] in _LOCK_CTORS


def _binding_pairs(node: ast.stmt) -> Iterator[tuple[ast.expr, ast.expr]]:
    """(target, value) pairs a statement binds, unpacking tuple assigns."""
    if isinstance(node, ast.Assign):
        for target in node.targets:
            if isinstance(target, (ast.Tuple, ast.List)) and \
                    isinstance(node.value, (ast.Tuple, ast.List)) and \
                    len(target.elts) == len(node.value.elts):
                yield from zip(target.elts, node.value.elts)
            else:
                yield target, node.value
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        yield node.target, node.value


class _LockEnv:
    """Lexically scoped lock-name bindings for one module.

    ``module_locks`` maps module-global names, ``class_locks`` holds
    each class's lock attributes (``self.X = threading.Lock()`` in any
    method, or ``X = threading.Lock()`` in the class body), and function
    scopes stack so closures see enclosing bindings (locks made in a
    function, used in nested defs).
    """

    def __init__(self, module: str) -> None:
        self.module = module
        self.module_locks: dict[str, str] = {}
        self.class_locks: dict[str, set[str]] = {}
        #: Import aliases (from :func:`collect_imports`).  A guard that
        #: is an imported name gets the *provisional* identity
        #: ``@<dotted target>``; :class:`~repro.analysis.callgraph.\
        #: ProjectIndex` resolves it against the defining module's lock
        #: table (and drops it when the target is not a lock).
        self.imports: dict[str, str] = {}

    def collect_module(self, tree: ast.Module) -> None:
        for node in tree.body:
            for target, value in _binding_pairs(node):
                if isinstance(target, ast.Name) and \
                        is_lock_constructor(constructor_of(value)):
                    self.module_locks[target.id] = \
                        f"{self.module}.{target.id}"

    def collect_class(self, cls: ast.ClassDef) -> dict[str, str]:
        """``cls``'s attribute constructors, noting which are locks."""
        attributes: dict[str, str] = {}

        def bind(name: str, value: ast.expr) -> None:
            constructor = constructor_of(value)
            if attributes.setdefault(name, constructor) != constructor:
                attributes[name] = ""

        for node in cls.body:
            for target, value in _binding_pairs(node):
                if isinstance(target, ast.Name):
                    bind(target.id, value)
        for node in ast.walk(cls):
            for target, value in _binding_pairs(node):
                chain = attr_chain(target) if \
                    isinstance(target, ast.Attribute) else []
                if len(chain) == 2 and chain[0] in ("self", "cls"):
                    bind(chain[1], value)
        self.class_locks[cls.name] = {
            name for name, constructor in attributes.items()
            if is_lock_constructor(constructor)}
        return attributes

    def resolve_guard(self, expr: ast.expr, class_name: str | None,
                      function_qualname: str,
                      local_scopes: list[dict[str, str]]) -> str | None:
        """The lock identity a ``with`` context expression refers to."""
        chain = attr_chain(expr)
        if not chain:
            return None
        terminal = chain[-1]
        if not any(token in terminal.lower() for token in LOCKISH) and \
                not self._known_binding(chain, class_name, local_scopes):
            return self._provisional(chain)
        if len(chain) == 1:
            name = chain[0]
            for scope in reversed(local_scopes):
                if name in scope:
                    return scope[name]
            if name in self.module_locks:
                return self.module_locks[name]
            if name in self.imports:
                return f"@{self.imports[name]}"
            return f"{self.module}.{name}"
        if chain[0] in ("self", "cls") and len(chain) == 2:
            return f"{self.module}.{class_name or '?'}.{chain[1]}"
        if chain[0] in self.imports:
            return f"@{'.'.join([self.imports[chain[0]], *chain[1:]])}"
        return f"{self.module}.{'.'.join(chain)}"

    def _provisional(self, chain: list[str]) -> str | None:
        """Provisional cross-module identity for an imported guard.

        ``with A:`` where ``A`` came from ``from pkg.locks import A`` is
        a lock the *defining* module names; emit ``@pkg.locks.A`` and
        let the project index look it up (or discard it when the target
        turns out not to be a lock at all).
        """
        if chain[0] in self.imports:
            return f"@{'.'.join([self.imports[chain[0]], *chain[1:]])}"
        return None

    def _known_binding(self, chain: list[str], class_name: str | None,
                       local_scopes: list[dict[str, str]]) -> bool:
        if len(chain) == 1:
            return any(chain[0] in scope for scope in local_scopes) \
                or chain[0] in self.module_locks
        if chain[0] in ("self", "cls") and len(chain) == 2:
            return chain[1] in self.class_locks.get(class_name or "", ())
        return False


# -- function body walk ----------------------------------------------------

class _BodyScanner:
    """Collect one function's call/blocking/lock sites.

    Nested ``def``/``lambda`` bodies are skipped everywhere: their code
    runs when *called* (often on an executor thread or as deferred task
    thunks), so attributing their effects to the enclosing function
    would turn every ``pool.submit(lambda: ...)`` into a false
    positive.  Lock bindings made in the enclosing scopes remain
    visible to nested defs when those are scanned as their own
    functions.
    """

    def __init__(self, env: _LockEnv, class_name: str | None,
                 qualname: str,
                 local_scopes: list[dict[str, str]]) -> None:
        self.env = env
        self.class_name = class_name
        self.qualname = qualname
        self.local_scopes = local_scopes
        self.calls: list[CallSite] = []
        self.blocking: list[BlockingSite] = []
        self.lock_acquires: list[LockAcquire] = []
        self._held: list[str] = []

    def scan(self, function: ast.FunctionDef | ast.AsyncFunctionDef
             ) -> None:
        for statement in function.body:
            self._visit(statement, awaited=False)

    # -- walk --------------------------------------------------------------

    def _visit(self, node: ast.AST, awaited: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return  # deferred work: scanned as its own function
        if isinstance(node, ast.Await):
            for child in ast.iter_child_nodes(node):
                self._visit(child, awaited=True)
            return
        if isinstance(node, ast.stmt):
            self._track_local_locks(node)
        if isinstance(node, ast.With):
            self._visit_with(node)
            return
        if isinstance(node, ast.Call):
            self._record_call(node, awaited)
            for child in ast.iter_child_nodes(node):
                self._visit(child, awaited=False)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child, awaited=False)

    def _track_local_locks(self, node: ast.stmt) -> None:
        for target, value in _binding_pairs(node):
            if isinstance(target, ast.Name) and \
                    is_lock_constructor(constructor_of(value)):
                self.local_scopes[-1][target.id] = \
                    f"{self.env.module}.{self.qualname}.{target.id}"

    def _visit_with(self, node: ast.With) -> None:
        acquired: list[str] = []
        for item in node.items:
            self._visit(item.context_expr, awaited=False)
            if item.optional_vars is not None:
                self._visit(item.optional_vars, awaited=False)
            guard = self.env.resolve_guard(
                item.context_expr, self.class_name, self.qualname,
                self.local_scopes,
            )
            if guard is not None:
                self.lock_acquires.append(LockAcquire(
                    lock=guard, lineno=node.lineno,
                    held=tuple(self._held),
                ))
                self._held.append(guard)
                acquired.append(guard)
        for statement in node.body:
            self._visit(statement, awaited=False)
        for _ in acquired:
            self._held.pop()

    def _record_call(self, node: ast.Call, awaited: bool) -> None:
        callee = self._callee_expr(node.func)
        if callee is None:
            return
        reason = blocking_call_reason(node, self.env.imports)
        if reason is not None:
            self.blocking.append(BlockingSite(reason=reason,
                                              lineno=node.lineno))
        self.calls.append(CallSite(
            callee=callee, lineno=node.lineno, awaited=awaited,
            locks_held=tuple(self._held),
        ))

    @staticmethod
    def _callee_expr(func: ast.expr) -> str | None:
        chain = attr_chain(func)
        if chain:
            return ".".join(chain)
        if isinstance(func, ast.Attribute):
            return f"?.{func.attr}"  # opaque receiver: x().y, a[i].y ...
        return None


# -- module summarization --------------------------------------------------

def summarize_module(path: str, tree: ast.Module) -> ModuleSummary:
    """Distill one parsed module into its :class:`ModuleSummary`."""
    module = module_name_for(path)
    imports = collect_imports(tree)
    env = _LockEnv(module)
    env.imports = imports
    env.collect_module(tree)

    functions: dict[str, FunctionSummary] = {}
    classes: dict[str, ClassSummary] = {}

    def summarize_function(node: ast.FunctionDef | ast.AsyncFunctionDef,
                           qualname: str, class_name: str | None,
                           scopes: list[dict[str, str]]
                           ) -> FunctionSummary:
        own_scope: dict[str, str] = {}
        scanner = _BodyScanner(env, class_name, qualname,
                               scopes + [own_scope])
        scanner.scan(node)
        summary = FunctionSummary(
            name=node.name, qualname=qualname, lineno=node.lineno,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            calls=tuple(scanner.calls),
            blocking=tuple(scanner.blocking),
            lock_acquires=tuple(scanner.lock_acquires),
        )
        # Nested defs become sibling entries (qualified by the parent),
        # preserving access to the enclosing lock scope.
        for child in ast.walk(node):
            if child is node:
                continue
            if isinstance(child, (ast.FunctionDef,
                                  ast.AsyncFunctionDef)) and \
                    _is_directly_nested(node, child):
                nested = summarize_function(
                    child, f"{qualname}.{child.name}", class_name,
                    scopes + [own_scope],
                )
                functions[nested.qualname] = nested
        return summary

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[node.name] = summarize_function(
                node, node.name, None, [])
        elif isinstance(node, ast.ClassDef):
            attributes = env.collect_class(node)
            methods: dict[str, FunctionSummary] = {}
            for child in node.body:
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    qualname = f"{node.name}.{child.name}"
                    methods[child.name] = summarize_function(
                        child, qualname, node.name, [])
            classes[node.name] = ClassSummary(
                name=node.name,
                bases=tuple(".".join(attr_chain(base))
                            for base in node.bases if attr_chain(base)),
                methods=methods,
                attributes=attributes,
            )

    return ModuleSummary(
        name=module, path=path, imports=imports,
        functions=functions, classes=classes,
        locks=dict(env.module_locks),
    )


def _is_directly_nested(parent: ast.AST, child: ast.AST) -> bool:
    """True when ``child`` is a def in ``parent``'s body, not deeper."""
    for node in ast.iter_child_nodes(parent):
        if node is child:
            return True
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        if _is_directly_nested(node, child):
            return True
    return False
