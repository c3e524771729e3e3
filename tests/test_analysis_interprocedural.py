"""Fixture corpora for REP208/209/211, and REP209 on the real tree.

Each scenario writes a small package to ``tmp_path``, runs the full
engine (per-file rules + project rules) over it, and asserts on exactly
which interprocedural findings come out — true positives, the
exemptions that keep the rules quiet on correct code, and suppression.

The tests at the bottom run the analyzer over ``src/repro``: REP209 is
clean there, and its static lock-order graph holds the one edge the
test suite's lock traffic produces (``GatewayMetrics.snapshot`` reads
its latency histogram under its own lock).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.engine import AnalysisResult, analyze_paths
from repro.analysis.lint import Finding


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
        "import threading\n\n"
        "A = threading.Lock()\n"
        "B = threading.Lock()\n"
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
    assert "pkg.locks.A -> pkg.locks.B -> pkg.locks.A" in \
        finding.message or \
        "pkg.locks.B -> pkg.locks.A -> pkg.locks.B" in finding.message
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


# -- REP208 / REP209 through typed attributes ------------------------------

TYPED_ATTRIBUTE = {
    "pkg/parts.py": (
        "import time\n\n\n"
        "class Histogram:\n"
        "    def flush(self):\n"
        "        time.sleep(1)\n"
    ),
    "pkg/owner.py": (
        "from pkg.parts import Histogram\n\n\n"
        "class Metrics:\n"
        "    def __init__(self):\n"
        "        self.latency = Histogram()\n\n"
        "    async def handler(self):\n"
        "        self.latency.flush()\n"
    ),
}


def test_rep208_sees_through_a_typed_attribute(tmp_path):
    # The attribute's class is imported from another module.
    findings = _rules(_analyze(tmp_path, TYPED_ATTRIBUTE), "REP208")
    assert len(findings) == 1
    assert "pkg.parts:Histogram.flush" in findings[0].message


def test_rep209_sees_through_a_typed_attribute(tmp_path):
    # Metrics holds its lock calling into its histogram, and the
    # histogram holds its own calling back into its owner.
    findings = _analyze(tmp_path, {"pkg/pair.py": (
        "import threading\n\n\n"
        "class Histogram:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.owner = Metrics()\n\n"
        "    def snapshot(self):\n"
        "        with self._lock:\n"
        "            return 1\n\n"
        "    def report(self):\n"
        "        with self._lock:\n"
        "            return self.owner.snapshot()\n\n\n"
        "class Metrics:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.latency = Histogram()\n\n"
        "    def snapshot(self):\n"
        "        with self._lock:\n"
        "            return self.latency.snapshot()\n"
    )})
    (finding,) = _rules(findings, "REP209")
    assert "pkg.pair.Histogram._lock -> pkg.pair.Metrics._lock" in \
        finding.message
    assert "pkg.pair:Histogram.report" in finding.message
    assert "pkg.pair:Metrics.snapshot" in finding.message


# -- a three-lock cycle across calls ---------------------------------------

THREE_LOCK_CYCLE = {"pkg/three.py": """
import threading

A = threading.Lock()
B = threading.Lock()
C = threading.Lock()


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
"""}


def test_rep209_flags_a_three_lock_cycle_across_calls(tmp_path):
    (finding,) = _rules(_analyze(tmp_path, THREE_LOCK_CYCLE), "REP209")
    assert "pkg.three.A -> pkg.three.B -> pkg.three.C -> pkg.three.A" \
        in finding.message
    assert "pkg.three:hold_a_then_b" in finding.message
    assert "pkg.three:take_b" in finding.message


# -- the real tree ---------------------------------------------------------

@pytest.fixture(scope="module")
def repo_analysis() -> AnalysisResult:
    repo_root = Path(__file__).resolve().parent.parent
    return analyze_paths([repo_root / "src" / "repro"], root=repo_root)


def test_static_lock_graph_has_the_gateway_metrics_edge(repo_analysis):
    # The one lock-order edge the serving and cluster suites produce at
    # run time: GatewayMetrics.snapshot holds its lock and calls
    # self.latency.snapshot(), which takes the histogram's.
    edges = repo_analysis.index.lock_order_edges()
    edge = ("repro.serve.metrics.GatewayMetrics._lock",
            "repro.serve.metrics.LatencyHistogram._lock")
    assert edge in edges
    assert "GatewayMetrics.snapshot" in str(edges[edge][0])


def test_rep209_is_clean_on_the_real_repo(repo_analysis):
    rep209 = _rules(repo_analysis.findings, "REP209")
    assert rep209 == [], [str(f) for f in rep209]
    assert ", 11 locks, " in repo_analysis.census()
