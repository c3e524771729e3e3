"""The custom lint framework: rules, suppression, baselines.

Each fixture is a minimal module designed to trigger exactly one rule
exactly once; the corpus doubles as living documentation of what the
rules mean.  The final test runs the real linter over the real repo and
compares against the checked-in baseline — the same gate CI applies.
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
    load_baseline,
    new_findings,
    save_baseline,
)
from repro.analysis.rules import default_rules

REPO_ROOT = Path(__file__).resolve().parent.parent

#: rule id -> fixture module expected to trigger it exactly once.
FIXTURES = {
    "REP101": """
def fetch(cache={}):
    return cache
""",
    "REP102": """
def swallow(fn):
    try:
        return fn()
    except:
        return None
""",
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
    "REP204": """
import random

from repro.docstore.functions import FunctionRegistry

registry = FunctionRegistry()


def rank(doc):
    return random.random()


registry.register("rank", rank)
""",
    "REP205": """
def gather(futures):
    return [future.result() for future in futures]
""",
    "REP206": """
import time


async def handler(request):
    time.sleep(0.1)
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


def test_findings_carry_location_and_snippet():
    (finding,) = _lint_text(FIXTURES["REP101"])
    assert finding.path == "fixture.py"
    assert finding.line == 2
    assert finding.severity == "warning"
    assert "cache={}" in finding.snippet
    assert str(finding).startswith("fixture.py:2: REP101 [warning]")


# -- suppression -----------------------------------------------------------

def test_same_line_suppression():
    text = FIXTURES["REP101"].replace(
        "def fetch(cache={}):", "def fetch(cache={}):  # lint: allow=REP101"
    )
    assert _lint_text(text) == []


def test_line_above_suppression():
    text = FIXTURES["REP101"].replace(
        "def fetch(cache={}):",
        "# lint: allow=REP101\ndef fetch(cache={}):",
    )
    assert _lint_text(text) == []


def test_allow_all_suppression():
    text = FIXTURES["REP102"].replace(
        "    except:", "    except:  # lint: allow=all"
    )
    assert _lint_text(text) == []


def test_suppressing_a_different_rule_does_not_hide_the_finding():
    text = FIXTURES["REP101"].replace(
        "def fetch(cache={}):", "def fetch(cache={}):  # lint: allow=REP102"
    )
    assert [f.rule for f in _lint_text(text)] == ["REP101"]


def test_suppression_on_opening_line_covers_multi_line_header():
    # REP101 anchors at the default *expression*, two lines below the
    # `def`; the comment on the opening line must still cover it.
    text = """
def fetch(  # lint: allow=REP101
    size,
    cache={},
):
    return cache
"""
    assert _lint_text(text) == []
    assert [f.rule for f in _lint_text(text.replace(
        "  # lint: allow=REP101", ""))] == ["REP101"]


def test_suppression_above_decorator_covers_decorated_def():
    text = """
import functools


# lint: allow=REP101
@functools.lru_cache(maxsize=None)
def fetch(cache={}):
    return cache
"""
    assert _lint_text(text) == []


def test_suppression_on_def_line_of_decorated_def():
    text = """
import functools


@functools.lru_cache(
    maxsize=None,
)
def fetch(  # lint: allow=REP101
    cache={},
):
    return cache
"""
    assert _lint_text(text) == []


def test_header_suppression_does_not_leak_into_the_body():
    # The opening-line comment covers the statement *header* only;
    # findings in the body still fire.
    text = """
def swallow(  # lint: allow=REP102
    fn,
    cache={},  # lint: allow=REP101
):
    try:
        return fn()
    except:
        return None
"""
    assert [f.rule for f in _lint_text(text)] == ["REP102"]


# -- file discovery and syntax errors --------------------------------------

def test_lint_paths_walks_directories_and_reports_syntax_errors(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "bad.py").write_text("def broken(:\n")
    (tmp_path / "pkg" / "warm.py").write_text(FIXTURES["REP101"])
    findings = analyze_paths([tmp_path], root=tmp_path, project_rules=(),
                             use_cache=False).findings
    assert [(f.rule, f.path) for f in findings] == [
        ("REP000", "pkg/bad.py"),
        ("REP101", "pkg/warm.py"),
    ]


# -- baselines -------------------------------------------------------------

def test_baseline_roundtrip_suppresses_known_findings(tmp_path):
    findings = _lint_text(FIXTURES["REP101"])
    baseline_path = tmp_path / "baseline.json"
    save_baseline(baseline_path, findings)
    assert new_findings(findings, load_baseline(baseline_path)) == []


def test_new_findings_only_reports_what_the_baseline_lacks(tmp_path):
    old = _lint_text(FIXTURES["REP101"])
    baseline_path = tmp_path / "baseline.json"
    save_baseline(baseline_path, old)
    fresh = _lint_text(FIXTURES["REP102"])
    result = new_findings(old + fresh, load_baseline(baseline_path))
    assert [f.rule for f in result] == ["REP102"]


def test_baseline_matching_survives_line_drift(tmp_path):
    findings = _lint_text(FIXTURES["REP101"])
    baseline_path = tmp_path / "baseline.json"
    save_baseline(baseline_path, findings)
    # The same offending line, pushed down by an unrelated edit.
    drifted = _lint_text("\n\n# a new comment\n" + FIXTURES["REP101"])
    assert drifted[0].line != findings[0].line
    assert new_findings(drifted, load_baseline(baseline_path)) == []


def test_baseline_uses_multiset_semantics():
    findings = _lint_text(FIXTURES["REP101"])
    baseline = load_baseline("/nonexistent")
    baseline.update([findings[0].key()])
    # Two identical findings, one baseline entry: one is still new.
    assert len(new_findings(findings * 2, baseline)) == 1


def test_missing_baseline_means_everything_is_new(tmp_path):
    findings = _lint_text(FIXTURES["REP101"])
    assert new_findings(
        findings, load_baseline(tmp_path / "absent.json")
    ) == findings


# -- output formats --------------------------------------------------------

def test_text_format_includes_summary_line():
    rendered = format_findings(_lint_text(FIXTURES["REP101"]))
    assert "1 finding(s): 0 error(s), 1 warning(s)" in rendered


def test_json_format_is_parseable():
    import json

    rendered = format_findings(_lint_text(FIXTURES["REP102"]), "json")
    payload = json.loads(rendered)
    assert payload[0]["rule"] == "REP102"


# -- the real repo ---------------------------------------------------------

def test_repo_is_clean_against_checked_in_baseline():
    """The CI gate: no findings beyond the checked-in baseline."""
    findings = analyze_paths(
        [REPO_ROOT / "src" / "repro", REPO_ROOT / "benchmarks"],
        root=REPO_ROOT, project_rules=(), use_cache=False,
    ).findings
    baseline = load_baseline(REPO_ROOT / "analysis-baseline.json")
    fresh = new_findings(findings, baseline)
    assert fresh == [], (
        "new lint findings (fix them or run "
        "`repro-covidkg analyze --update-baseline`):\n"
        + "\n".join(str(f) for f in fresh)
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
