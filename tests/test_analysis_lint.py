"""The custom lint framework: rules and the one suppression form.

Each fixture is a minimal module designed to trigger exactly one rule
exactly once; the corpus doubles as living documentation of what the
rules mean.  The final test runs the real linter over the real repo —
the same gate CI applies: no finding without an inline excuse.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.engine import analyze_paths
from repro.analysis.lint import (
    Finding,
    Source,
    format_findings,
    lint_source,
)
from repro.analysis.rules import default_rules

REPO_ROOT = Path(__file__).resolve().parent.parent

#: rule id -> fixture module expected to trigger it exactly once.
FIXTURES = {
    "REP103": """
from repro.errors import AggregationError


def quiet(fn):
    try:
        return fn()
    except AggregationError:
        pass
""",
    "REP201": """
import threading


class Tally:
    def __init__(self):
        self._lock = threading.Lock()
        self.total = 0

    def add(self, n):
        with self._lock:
            self.total += n

    def read(self):
        return self.total
""",
    "REP202": """
import threading
import time

_lock = threading.Lock()


def slow():
    with _lock:
        time.sleep(0.1)
""",
    "REP205": """
def gather(futures):
    return [future.result() for future in futures]
""",
    "REP206": """
import time as t


async def handler(request):
    t.sleep(0.1)
    return request
""",
    "REP211": """
import socket


def connect(addr):
    sock = socket.create_connection(addr)
    sock.setsockopt(6, 1, 1)
    return sock
""",
}

CLEAN_FIXTURE = """
import threading


class Tally:
    def __init__(self):
        self._lock = threading.Lock()
        self.total = 0

    def add(self, n):
        with self._lock:
            self.total += n

    def read(self):
        with self._lock:
            return self.total
"""


def _lint_text(text: str) -> list[Finding]:
    return lint_source(Source("fixture.py", text), default_rules())


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_each_rule_fires_exactly_once_on_its_fixture(rule_id):
    findings = _lint_text(FIXTURES[rule_id])
    assert [f.rule for f in findings] == [rule_id], (
        f"expected exactly one {rule_id} finding, got: "
        f"{[str(f) for f in findings]}"
    )


def test_clean_fixture_produces_no_findings():
    assert _lint_text(CLEAN_FIXTURE) == []


def test_rep205_barrier_in_same_scope_is_clean():
    text = """
from concurrent.futures import wait


def gather(futures):
    wait(futures)
    return [future.result() for future in futures]
"""
    assert _lint_text(text) == []


def test_rep205_enclosing_scope_barrier_covers_nested_helpers():
    text = """
from concurrent.futures import wait


def gather(futures):
    wait(futures)

    def collect():
        return [future.result() for future in futures]

    return collect()
"""
    assert _lint_text(text) == []


def test_rep205_nested_barrier_does_not_excuse_the_outer_scope():
    # A wait() buried in a helper does not quiesce the outer loop's
    # futures; the outer gather must still be flagged.
    text = """
from concurrent.futures import wait


def gather(futures):
    def settle(extra):
        wait(extra)

    return [future.result() for future in futures]
"""
    assert [f.rule for f in _lint_text(text)] == ["REP205"]


def test_rep206_awaited_calls_and_async_primitives_are_clean():
    text = """
import asyncio


async def handler(reader, future):
    await asyncio.sleep(0.1)
    served = await asyncio.wrap_future(future)
    head = await asyncio.wait_for(reader.readuntil(b"x"), timeout=1.0)
    return served, head
"""
    assert _lint_text(text) == []


def test_rep206_nested_sync_def_is_not_the_event_loop():
    # A sync helper defined inside an async function runs wherever it
    # is *called* — typically an executor thread — so its body is not
    # the event loop's problem.
    text = """
import time


async def handler(loop):
    def blocking():
        time.sleep(0.5)
        return 1

    return await loop.run_in_executor(None, blocking)
"""
    assert _lint_text(text) == []


def test_rep206_flags_future_result_in_async_body():
    text = """
async def handler(future):
    return future.result()
"""
    assert [f.rule for f in _lint_text(text)] == ["REP206"]


def test_rep206_allows_polling_a_future_with_a_zero_timeout():
    text = """
async def handler(future, other):
    return future.result(timeout=0), other.result(0)
"""
    assert _lint_text(text) == []
    assert [f.rule for f in _lint_text(text.replace("=0", "=0.5"))] == \
        ["REP206"]


def test_rep206_flags_sync_socket_ops_in_async_body():
    text = """
async def proxy(sock):
    sock.sendall(b"hello")
    return sock.recv(1024)
"""
    assert [f.rule for f in _lint_text(text)] == ["REP206", "REP206"]


def test_rep205_flags_explicit_for_loops_too():
    text = """
def drain(futures):
    results = []
    for future in futures:
        results.append(future.result())
    return results
"""
    assert [f.rule for f in _lint_text(text)] == ["REP205"]


def test_findings_carry_location():
    (finding,) = _lint_text(FIXTURES["REP103"])
    assert finding.path == "fixture.py"
    assert finding.line == 8
    assert finding.severity == "warning"
    assert str(finding).startswith("fixture.py:8: REP103 [warning]")


# -- suppression -----------------------------------------------------------

def test_same_line_suppression():
    text = FIXTURES["REP103"].replace(
        "    except AggregationError:",
        "    except AggregationError:  # lint: allow=REP103 probe",
    )
    assert _lint_text(text) == []


def test_line_above_suppression():
    text = FIXTURES["REP103"].replace(
        "    except AggregationError:",
        "    # lint: allow=REP103\n    except AggregationError:",
    )
    assert _lint_text(text) == []


def test_suppressing_a_different_rule_does_not_hide_the_finding():
    text = FIXTURES["REP103"].replace(
        "    except AggregationError:",
        "    except AggregationError:  # lint: allow=REP202",
    )
    assert [f.rule for f in _lint_text(text)] == ["REP103"]


_MULTI_LINE_GATHER = """
def gather(futures):
    return sorted(  # lint: allow=REP205
        future.result()
        for future in futures
    )
"""


def test_suppression_on_opening_line_covers_multi_line_header():
    # REP205 anchors at the `.result()` call, a line below where the
    # statement opens; the comment on the opening line must cover it.
    assert _lint_text(_MULTI_LINE_GATHER) == []
    assert [f.rule for f in _lint_text(_MULTI_LINE_GATHER.replace(
        "  # lint: allow=REP205", ""))] == ["REP205"]


def test_header_suppression_does_not_leak_into_the_body():
    # The opening-line comment covers the statement *header* only;
    # findings in the body still fire.
    text = """
def drain(pools):
    for pool in sorted(  # lint: allow=REP205
        pools
    ):
        for future in pool:
            future.result()
"""
    assert [f.rule for f in _lint_text(text)] == ["REP205"]


def test_a_marker_inside_a_string_is_not_a_suppression():
    # Docstrings and help texts quote the marker; only a real comment
    # excuses anything (here: the line above the flagged one).
    text = FIXTURES["REP103"].replace(
        "        return fn()", "        return fn('# lint: allow=REP103')")
    assert [f.rule for f in _lint_text(text)] == ["REP103"]


# -- file discovery and syntax errors --------------------------------------

def test_lint_paths_walks_directories_and_reports_syntax_errors(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "bad.py").write_text("def broken(:\n")
    (tmp_path / "pkg" / "warm.py").write_text(FIXTURES["REP103"])
    findings = analyze_paths([tmp_path], root=tmp_path,
                             project_rules=()).findings
    assert [(f.rule, f.path) for f in findings] == [
        ("REP000", "pkg/bad.py"),
        ("REP103", "pkg/warm.py"),
    ]


# -- output ----------------------------------------------------------------

def test_text_format_includes_summary_line():
    rendered = format_findings(_lint_text(FIXTURES["REP103"]))
    assert "1 finding(s): 0 error(s), 1 warning(s)" in rendered


# -- the real repo ---------------------------------------------------------

def test_repo_is_clean():
    """The CI gate: no finding, and no excuse that excuses nothing."""
    findings = analyze_paths(
        [REPO_ROOT / "src" / "repro", REPO_ROOT / "benchmarks"],
        root=REPO_ROOT,
    ).findings
    assert findings == [], (
        "lint findings (fix them, or excuse each with an inline "
        "`# lint: allow=<rule> <reason>`):\n"
        + "\n".join(str(f) for f in findings)
    )


# -- REP207: per-document scoring loops (path-restricted) ------------------

_REP207_HOT_LOOP = """
def scorer(documents, idf):
    scores = []
    for document in documents:
        scores.append(compute_score(document, idf))
    return scores
"""


def _lint_rep207(text: str, path: str) -> list[Finding]:
    from repro.analysis.rules import PerDocumentScoringLoop
    return lint_source(Source(path, text), [PerDocumentScoringLoop()])


def test_rep207_fires_on_search_hot_path():
    findings = _lint_rep207(_REP207_HOT_LOOP,
                            "src/repro/search/ranking.py")
    assert [f.rule for f in findings] == ["REP207"]
    assert "scorer()" in findings[0].message


def test_rep207_is_silent_outside_repro_search():
    assert _lint_rep207(_REP207_HOT_LOOP, "src/repro/kg/fusion.py") == []


def test_rep207_ignores_non_scoring_functions():
    text = """
def ingest(documents):
    for document in documents:
        normalize_score_field(document)
"""
    assert _lint_rep207(text, "src/repro/search/engine.py") == []


def test_rep207_ignores_bookkeeping_loops_in_scoring_functions():
    text = """
def rank(entries):
    out = []
    for entry in entries:
        out.append(entry)
    return out
"""
    assert _lint_rep207(text, "src/repro/search/engine.py") == []


def test_rep207_flags_nested_loop_once_per_line():
    text = """
def score_all(documents, terms):
    total = 0.0
    for document in documents:
        for term in terms:
            total += term_score(document, term)
    return total
"""
    findings = _lint_rep207(text, "src/repro/search/ranking.py")
    assert [f.rule for f in findings] == ["REP207", "REP207"]
    assert len({f.line for f in findings}) == 2


def test_rep207_respects_inline_allow():
    text = """
def scorer(documents, idf):
    # Reference implementation for the differential tests.
    for document in documents:  # lint: allow=REP207
        yield compute_score(document, idf)
"""
    source = Source("src/repro/search/ranking.py", text)
    from repro.analysis.rules import PerDocumentScoringLoop
    findings = lint_source(source, [PerDocumentScoringLoop()])
    assert findings == []
