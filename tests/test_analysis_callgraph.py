"""Unit tests for the project symbol table and call graph.

Summaries are built from text in-memory (no filesystem), indexed, and
interrogated the way the interprocedural rules do — resolution through
imports and cycles, method lookup along bases, conservative treatment
of anything the graph cannot pin down.
"""

from __future__ import annotations

import ast

from repro.analysis.callgraph import ProjectIndex
from repro.analysis.summaries import module_name_for, summarize_module


def _index(files: dict[str, str]) -> ProjectIndex:
    return ProjectIndex(
        summarize_module(path, ast.parse(text))
        for path, text in files.items()
    )


# -- module naming ---------------------------------------------------------

def test_module_names_strip_src_and_init():
    assert module_name_for("src/repro/gateway/server.py") == \
        "repro.gateway.server"
    assert module_name_for("src/repro/docstore/__init__.py") == \
        "repro.docstore"
    assert module_name_for("tests/test_x.py") == "tests.test_x"
    assert module_name_for("benchmarks/bench_e16.py") == \
        "benchmarks.bench_e16"


# -- resolution ------------------------------------------------------------

def test_bare_and_imported_calls_resolve():
    index = _index({
        "src/pkg/util.py": "def helper():\n    return 1\n",
        "src/pkg/app.py": (
            "from pkg.util import helper\n"
            "import pkg.util\n"
            "def local():\n    return 2\n"
            "def run():\n"
            "    local()\n"
            "    helper()\n"
            "    pkg.util.helper()\n"
        ),
    })
    caller = "pkg.app:run"
    assert index.resolve_call(caller, "local") == "pkg.app:local"
    assert index.resolve_call(caller, "helper") == "pkg.util:helper"
    assert index.resolve_call(caller, "pkg.util.helper") == \
        "pkg.util:helper"


def test_import_alias_resolves():
    index = _index({
        "src/pkg/util.py": "def helper():\n    return 1\n",
        "src/pkg/app.py": (
            "from pkg.util import helper as h\n"
            "def run():\n    h()\n"
        ),
    })
    assert index.resolve_call("pkg.app:run", "h") == "pkg.util:helper"


def test_import_cycles_do_not_break_resolution():
    # a imports b, b imports a — summaries are per-module so the index
    # never "imports" anything; both directions must resolve.
    index = _index({
        "src/pkg/a.py": (
            "from pkg.b import beta\n"
            "def alpha():\n    beta()\n"
        ),
        "src/pkg/b.py": (
            "from pkg.a import alpha\n"
            "def beta():\n    alpha()\n"
        ),
    })
    assert index.resolve_call("pkg.a:alpha", "beta") == "pkg.b:beta"
    assert index.resolve_call("pkg.b:beta", "alpha") == "pkg.a:alpha"
    # The recursive analyses terminate on the cycle.
    assert index.blocking_chain("pkg.a:alpha") is None
    assert index.transitive_locks("pkg.a:alpha") == {}


def test_self_method_resolution_walks_project_bases():
    index = _index({
        "src/pkg/base.py": (
            "class Base:\n"
            "    def shared(self):\n        return 1\n"
        ),
        "src/pkg/impl.py": (
            "from pkg.base import Base\n"
            "class Impl(Base):\n"
            "    def run(self):\n"
            "        self.local()\n"
            "        self.shared()\n"
            "    def local(self):\n        return 2\n"
        ),
    })
    caller = "pkg.impl:Impl.run"
    assert index.resolve_call(caller, "self.local") == \
        "pkg.impl:Impl.local"
    assert index.resolve_call(caller, "self.shared") == \
        "pkg.base:Base.shared"


def test_typed_attribute_calls_resolve_to_the_constructed_class():
    index = _index({
        "src/pkg/parts.py": (
            "class Histogram:\n"
            "    def snapshot(self):\n        return 1\n"
        ),
        "src/pkg/owner.py": (
            "from pkg import parts\n"
            "from pkg.parts import Histogram\n"
            "class Base:\n"
            "    def __init__(self):\n"
            "        self.inherited = parts.Histogram()\n"
            "class Owner(Base):\n"
            "    def __init__(self, given):\n"
            "        self.latency = Histogram()\n"
            "        self.either = Histogram()\n"
            "        self.either = given\n"
            "        self.helper = make_histogram()\n"
            "    def run(self):\n"
            "        self.latency.snapshot()\n"
        ),
    })
    caller = "pkg.owner:Owner.run"
    assert index.resolve_call(caller, "self.latency.snapshot") == \
        "pkg.parts:Histogram.snapshot"
    assert index.resolve_call(caller, "self.inherited.snapshot") == \
        "pkg.parts:Histogram.snapshot"
    # Bound to two things, to a function's result, or never bound:
    # unknown, so it contributes no effects.
    for callee in ("self.either.snapshot", "self.helper.snapshot",
                   "self.missing.snapshot", "self.latency.missing",
                   "self.latency.snapshot.deeper"):
        assert index.resolve_call(caller, callee) is None, callee


def test_constructor_call_resolves_to_init():
    index = _index({
        "src/pkg/thing.py": (
            "class Thing:\n"
            "    def __init__(self):\n        self.x = 1\n"
        ),
        "src/pkg/app.py": (
            "from pkg.thing import Thing\n"
            "def make():\n    return Thing()\n"
        ),
    })
    assert index.resolve_call("pkg.app:make", "Thing") == \
        "pkg.thing:Thing.__init__"


def test_unknown_callees_stay_conservative():
    index = _index({
        "src/pkg/app.py": (
            "import json\n"
            "def run(obj):\n"
            "    json.dumps(obj)\n"
            "    obj.mystery()\n"
            "    unknown_name()\n"
        ),
    })
    caller = "pkg.app:run"
    assert index.resolve_call(caller, "json.dumps") is None
    assert index.resolve_call(caller, "obj.mystery") is None
    assert index.resolve_call(caller, "unknown_name") is None
    assert index.resolve_call(caller, "?.method") is None
    # And unknowns contribute no effects.
    assert index.blocking_chain(caller) is None


def test_method_on_external_base_is_unknown_not_absent():
    index = _index({
        "src/pkg/impl.py": (
            "import threading\n"
            "class Impl(threading.Thread):\n"
            "    def go(self):\n        self.start()\n"
        ),
    })
    assert index.resolve_call("pkg.impl:Impl.go", "self.start") is None


def test_nested_def_resolves_as_sibling_closure():
    index = _index({
        "src/pkg/app.py": (
            "def outer():\n"
            "    def inner():\n        return 1\n"
            "    return inner()\n"
        ),
    })
    assert index.resolve_call("pkg.app:outer", "inner") == \
        "pkg.app:outer.inner"


# -- transitive analyses ---------------------------------------------------

def test_blocking_chain_crosses_modules_with_provenance():
    index = _index({
        "src/pkg/low.py": (
            "import time\n"
            "def slow():\n    time.sleep(1)\n"
        ),
        "src/pkg/mid.py": (
            "from pkg.low import slow\n"
            "def relay():\n    slow()\n"
        ),
    })
    chain = index.blocking_chain("pkg.mid:relay")
    assert chain is not None
    reason, steps = chain
    assert reason == "time.sleep"
    assert [step.function for step in steps] == \
        ["pkg.mid:relay", "pkg.low:slow"]
    assert steps[0].path == "src/pkg/mid.py"


def test_transitive_locks_aggregate_through_calls():
    index = _index({
        "src/pkg/locks.py": (
            "import threading\n"
            "A = threading.Lock()\n"
            "B = threading.Lock()\n"
            "def take_b():\n"
            "    with B:\n        pass\n"
            "def outer():\n"
            "    with A:\n"
            "        take_b()\n"
        ),
    })
    locks = index.transitive_locks("pkg.locks:outer")
    assert set(locks) == {"pkg.locks.A", "pkg.locks.B"}
    edges = index.lock_order_edges()
    assert ("pkg.locks.A", "pkg.locks.B") in edges
    assert ("pkg.locks.B", "pkg.locks.A") not in edges


def test_plain_locks_are_qualified_by_binding_site():
    # Same attribute name in two classes must not alias into one lock.
    index = _index({
        "src/pkg/two.py": (
            "import threading\n"
            "class P:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def use(self):\n"
            "        with self._lock:\n            pass\n"
            "class Q:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def use(self):\n"
            "        with self._lock:\n            pass\n"
        ),
    })
    p_locks = index.transitive_locks("pkg.two:P.use")
    q_locks = index.transitive_locks("pkg.two:Q.use")
    assert p_locks and q_locks
    assert set(p_locks).isdisjoint(q_locks)


def test_tuple_assigned_locks_resolve_by_binding_site():
    # a, b = Lock(), Lock() in a function, used by a nested def.
    index = _index({
        "src/pkg/tup.py": (
            "import threading\n"
            "def workload():\n"
            "    a, b = threading.Lock(), threading.Lock()\n"
            "    def ab():\n"
            "        with a:\n"
            "            with b:\n                pass\n"
            "    return ab\n"
        ),
    })
    locks = index.transitive_locks("pkg.tup:workload.ab")
    assert set(locks) == {"pkg.tup.workload.a", "pkg.tup.workload.b"}
    assert ("pkg.tup.workload.a", "pkg.tup.workload.b") in \
        index.lock_order_edges()


def test_lambda_bodies_are_deferred_not_attributed():
    # pool.submit(lambda: time.sleep(1)) must not make the enclosing
    # function "blocking" — the lambda runs on the pool, not here.
    index = _index({
        "src/pkg/defer.py": (
            "import time\n"
            "def dispatch(pool):\n"
            "    return pool.submit(lambda: time.sleep(1))\n"
        ),
    })
    assert index.blocking_chain("pkg.defer:dispatch") is None
