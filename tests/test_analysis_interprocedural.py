"""Fixture corpora for REP208/209/211 and the static/runtime cross-check.

Each scenario writes a small package to ``tmp_path``, runs the full
engine (per-file rules + project rules) over it, and asserts on exactly
which interprocedural findings come out — true positives, the
exemptions that keep the rules quiet on correct code, and suppression.

The agreement test at the bottom is the PR's keystone: one lock
workload is *executed* under racecheck (runtime lock-order graph) and
*summarized* statically (REP209's graph), and every runtime cycle must
appear in the static answer — the compile-time checker may not be
blinder than the runtime one on code it can see.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis import racecheck
from repro.analysis.callgraph import ProjectIndex
from repro.analysis.engine import analyze_paths
from repro.analysis.lint import Finding
from repro.analysis.summaries import summarize_module


def _analyze(tmp_path: Path, files: dict[str, str]) -> list[Finding]:
    for name, text in files.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    result = analyze_paths([tmp_path], root=tmp_path)
    return result.findings


def _rules(findings: list[Finding], rule: str) -> list[Finding]:
    return [f for f in findings if f.rule == rule]


# -- REP208: transitively-blocking call reachable from async --------------

REP208_POSITIVE = {
    "pkg/low.py": (
        "import time as t\n\n\n"
        "def slow():\n"
        "    t.sleep(1)\n"
    ),
    "pkg/mid.py": (
        "from pkg.low import slow\n\n\n"
        "def relay():\n"
        "    slow()\n"
    ),
    "pkg/app.py": (
        "from pkg.mid import relay\n\n\n"
        "async def handler():\n"
        "    relay()\n"
    ),
}


def test_rep208_flags_blocking_two_frames_down(tmp_path):
    findings = _rules(_analyze(tmp_path, REP208_POSITIVE), "REP208")
    assert len(findings) == 1
    (finding,) = findings
    assert finding.path == "pkg/app.py"
    assert "time.sleep" in finding.message
    assert "pkg.mid:relay" in finding.message
    assert "pkg.low:slow" in finding.message


def test_rep208_direct_blocking_is_rep206s_job_not_duplicated(tmp_path):
    findings = _analyze(tmp_path, {"pkg/app.py": (
        "import time\n\n\n"
        "async def handler():\n"
        "    time.sleep(1)\n"
    )})
    assert [f.rule for f in findings] == ["REP206"]


def test_rep208_awaited_and_executor_calls_are_exempt(tmp_path):
    findings = _analyze(tmp_path, {
        "pkg/low.py": (
            "import time\n\n\n"
            "def slow():\n"
            "    time.sleep(1)\n"
        ),
        "pkg/app.py": (
            "import asyncio\n\n"
            "from pkg.low import slow\n\n\n"
            "async def helper():\n"
            "    await asyncio.sleep(0)\n\n\n"
            "async def handler(loop, pool):\n"
            "    await helper()\n"
            "    await loop.run_in_executor(None, slow)\n"
            "    pool.submit(slow)\n"
        ),
    })
    assert _rules(findings, "REP208") == []


def test_rep208_async_callee_is_not_blocking(tmp_path):
    # Calling (without awaiting) an async function builds a coroutine;
    # whatever its body does, the *call* does not block.
    findings = _analyze(tmp_path, {"pkg/app.py": (
        "import time\n\n\n"
        "async def worker():\n"
        "    time.sleep(1)  # lint: allow=REP206\n\n\n"
        "async def handler():\n"
        "    return worker()\n"
    )})
    assert _rules(findings, "REP208") == []


def test_rep208_zero_timeout_result_is_a_poll(tmp_path):
    # The gateway's inline lane reads futures it has seen done() with
    # result(timeout=0); a bare result() on the same path still blocks.
    files = {"pkg/app.py": (
        "def ready(future):\n"
        "    return future.result(timeout=0)\n\n\n"
        "async def handler(future):\n"
        "    return ready(future)\n"
    )}
    assert _rules(_analyze(tmp_path, files), "REP208") == []
    files["pkg/app.py"] = files["pkg/app.py"].replace("timeout=0", "")
    assert len(_rules(_analyze(tmp_path, files), "REP208")) == 1


def test_rep208_suppression_comment_works(tmp_path):
    files = dict(REP208_POSITIVE)
    files["pkg/app.py"] = files["pkg/app.py"].replace(
        "    relay()", "    relay()  # lint: allow=REP208")
    assert _rules(_analyze(tmp_path, files), "REP208") == []


# -- REP209: static lock-order cycles --------------------------------------

REP209_POSITIVE = {
    "pkg/locks.py": (
        "from repro.analysis.racecheck import make_lock\n\n"
        "A = make_lock('A')\n"
        "B = make_lock('B')\n"
    ),
    "pkg/one.py": (
        "from pkg.locks import A, B\n\n\n"
        "def take_b():\n"
        "    with B:\n"
        "        pass\n\n\n"
        "def ab():\n"
        "    with A:\n"
        "        take_b()\n"
    ),
    "pkg/two.py": (
        "from pkg.locks import A, B\n\n\n"
        "def ba():\n"
        "    with B:\n"
        "        with A:\n"
        "            pass\n"
    ),
}


def test_rep209_flags_cycle_split_across_modules(tmp_path):
    findings = _rules(_analyze(tmp_path, REP209_POSITIVE), "REP209")
    assert len(findings) == 1
    (finding,) = findings
    assert "A -> B -> A" in finding.message or \
        "B -> A -> B" in finding.message
    # Provenance names both sides of the inversion.
    assert "pkg.one:ab" in finding.message
    assert "pkg.two:ba" in finding.message


def test_rep209_consistent_order_is_clean(tmp_path):
    findings = _analyze(tmp_path, {
        "pkg/locks.py": REP209_POSITIVE["pkg/locks.py"],
        "pkg/one.py": REP209_POSITIVE["pkg/one.py"],
        "pkg/three.py": (
            "from pkg.locks import A, B\n\n\n"
            "def also_ab():\n"
            "    with A:\n"
            "        with B:\n"
            "            pass\n"
        ),
    })
    assert _rules(findings, "REP209") == []


def test_rep209_same_attr_name_in_two_classes_is_no_cycle(tmp_path):
    # P holds its own lock calling Q which takes Q's lock, and vice
    # versa: only a cycle if the two `self._lock`s alias. They must not.
    findings = _analyze(tmp_path, {"pkg/pair.py": (
        "import threading\n\n\n"
        "class P:\n"
        "    def __init__(self, other):\n"
        "        self._lock = threading.Lock()\n"
        "        self.other = other\n\n"
        "    def poke(self):\n"
        "        with self._lock:\n"
        "            pass\n\n\n"
        "class Q:\n"
        "    def __init__(self, other):\n"
        "        self._lock = threading.Lock()\n"
        "        self.other = other\n\n"
        "    def poke(self):\n"
        "        with self._lock:\n"
        "            pass\n"
    )})
    assert _rules(findings, "REP209") == []


# -- REP211: resource leaks (fixture corpus beyond the minimal one) --------

def test_rep211_socket_leak_between_acquire_and_return(tmp_path):
    findings = _analyze(tmp_path, {"pkg/net.py": (
        "import socket\n\n\n"
        "def connect(addr):\n"
        "    sock = socket.create_connection(addr)\n"
        "    sock.setsockopt(6, 1, 1)\n"
        "    return sock\n"
    )})
    assert [f.rule for f in findings] == ["REP211"]
    assert "sock" in findings[0].message


def test_rep211_guarded_acquire_is_clean(tmp_path):
    findings = _analyze(tmp_path, {"pkg/net.py": (
        "import socket\n\n\n"
        "def connect(addr):\n"
        "    sock = socket.create_connection(addr)\n"
        "    try:\n"
        "        sock.setsockopt(6, 1, 1)\n"
        "    except BaseException:\n"
        "        sock.close()\n"
        "        raise\n"
        "    return sock\n"
    )})
    assert _rules(findings, "REP211") == []


def test_rep211_with_statement_is_clean(tmp_path):
    findings = _analyze(tmp_path, {"pkg/io.py": (
        "def read(path):\n"
        "    with open(path) as handle:\n"
        "        return handle.read()\n"
    )})
    assert _rules(findings, "REP211") == []


def test_rep211_executor_never_shut_down(tmp_path):
    findings = _analyze(tmp_path, {"pkg/pool.py": (
        "from concurrent.futures import ThreadPoolExecutor\n\n\n"
        "def burst(tasks):\n"
        "    pool = ThreadPoolExecutor(max_workers=4)\n"
        "    futures = [pool.submit(task) for task in tasks]\n"
        "    return [future.result() for future in futures]\n"
        "    # lint: allow=REP205\n"
    )})
    assert "REP211" in {f.rule for f in findings}


def test_rep211_global_assignment_is_module_state_not_a_leak(tmp_path):
    # The docstore executor pattern: the pool is deliberately stored in
    # a module global under a declared `global`.
    findings = _analyze(tmp_path, {"pkg/pool.py": (
        "from concurrent.futures import ThreadPoolExecutor\n\n"
        "_pool = None\n\n\n"
        "def get_pool():\n"
        "    global _pool\n"
        "    if _pool is None:\n"
        "        _pool = ThreadPoolExecutor(max_workers=4)\n"
        "    return _pool\n"
    )})
    assert _rules(findings, "REP211") == []


def test_rep211_attribute_storage_transfers_ownership(tmp_path):
    findings = _analyze(tmp_path, {"pkg/owner.py": (
        "from concurrent.futures import ThreadPoolExecutor\n\n\n"
        "class Service:\n"
        "    def __init__(self):\n"
        "        self.pool = ThreadPoolExecutor(max_workers=2)\n"
    )})
    assert _rules(findings, "REP211") == []


def test_rep211_finally_release_is_clean(tmp_path):
    findings = _analyze(tmp_path, {"pkg/io.py": (
        "def read(path):\n"
        "    handle = open(path)\n"
        "    try:\n"
        "        return handle.read()\n"
        "    finally:\n"
        "        handle.close()\n"
    )})
    assert _rules(findings, "REP211") == []


# -- static/runtime lock-graph agreement -----------------------------------

#: One workload, two checkers.  Every shape here is *statically
#: resolvable* (named factory locks, direct nesting, cross-function
#: holds) — the contract under test is "runtime sees nothing static
#: misses", which can only hold on code the static side can see.
AGREEMENT_WORKLOAD = """
from repro.analysis.racecheck import make_lock

A = make_lock("AGREE_A")
B = make_lock("AGREE_B")
C = make_lock("AGREE_C")


def take_b():
    with B:
        pass


def hold_a_then_b():
    with A:
        take_b()


def hold_b_then_c():
    with B:
        with C:
            pass


def hold_c_then_a():
    with C:
        with A:
            pass


def drive():
    hold_a_then_b()
    hold_b_then_c()
    hold_c_then_a()
"""


def test_rep209_static_graph_covers_runtime_racecheck_graph(tmp_path):
    # Runtime: execute the workload under racecheck instrumentation.
    previous = racecheck._enabled_override
    racecheck.enable()
    racecheck.reset()
    try:
        namespace: dict = {}
        exec(compile(AGREEMENT_WORKLOAD, "workload.py", "exec"),
             namespace)
        namespace["drive"]()
        runtime = racecheck.report()
    finally:
        racecheck.reset()
        racecheck._enabled_override = previous

    assert runtime.cycles, "workload must produce a runtime cycle"

    # Static: summarize the same source, build the same graph.
    index = ProjectIndex([summarize_module(
        "pkg/workload.py", ast.parse(AGREEMENT_WORKLOAD))])
    static_edges = set(index.lock_order_edges())
    static_cycles = racecheck.find_cycles(static_edges)

    # Every runtime edge between *named* locks appears statically.
    missing_edges = set(runtime.edges) - static_edges
    assert not missing_edges, (
        f"runtime lock-order edges invisible to REP209: "
        f"{sorted(missing_edges)}")
    # And therefore every runtime cycle is found statically.
    static_sets = [frozenset(cycle) for cycle in static_cycles]
    for cycle in runtime.cycles:
        assert frozenset(cycle) in static_sets, (
            f"runtime cycle {cycle} not detected statically; "
            f"static cycles: {static_cycles}")


def test_rep209_is_clean_on_the_real_repo_like_runtime_racecheck():
    # CI's racecheck shard passes (no runtime cycles on the exercised
    # production locks); the static graph over src/repro must agree.
    repo_root = Path(__file__).resolve().parent.parent
    result = analyze_paths([repo_root / "src" / "repro"],
                           root=repo_root)
    rep209 = _rules(result.findings, "REP209")
    assert rep209 == [], [str(f) for f in rep209]
