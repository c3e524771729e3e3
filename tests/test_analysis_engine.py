"""Engine behaviour: assembly, stale excuses, and the census line.

The per-rule fixtures live in ``test_analysis_lint.py`` (per-file
rules) and ``test_analysis_interprocedural.py`` (project rules); this
file covers what only the engine does — reporting an allowance that
excuses nothing, and stating what a run inspected.
"""

from __future__ import annotations

from repro.analysis.engine import analyze_paths

CORPUS = {
    "pkg/net.py": (
        "import socket\n\n\n"
        "def connect(addr):\n"
        "    sock = socket.create_connection(addr)\n"
        "    sock.setsockopt(6, 1, 1)\n"
        "    return sock\n"
    ),
    "pkg/slow.py": (
        "import time\n\n\n"
        "def slow():\n"
        "    time.sleep(1)\n"
    ),
    "pkg/app.py": (
        "from pkg.slow import slow\n\n\n"
        "async def handler():\n"
        "    slow()\n"
    ),
}


def _write_corpus(root, files=CORPUS):
    for name, text in files.items():
        target = root / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")


# -- an allowance that excuses nothing --------------------------------------

def test_unused_allow_is_reported_and_a_used_one_is_not(tmp_path):
    files = dict(CORPUS)
    files["pkg/app.py"] = files["pkg/app.py"].replace(
        "    slow()", "    slow()  # lint: allow=REP208 probe")
    files["pkg/slow.py"] = files["pkg/slow.py"].replace(
        "    time.sleep(1)", "    time.sleep(1)  # lint: allow=REP202")
    _write_corpus(tmp_path, files)
    findings = analyze_paths([tmp_path], root=tmp_path).findings
    assert [(f.rule, f.path, f.line) for f in findings] == [
        ("REP211", "pkg/net.py", 5), ("REP000", "pkg/slow.py", 5)]
    stale = findings[1]
    assert stale.severity == "error"
    assert "allow=REP202" in stale.message


def test_allow_naming_no_rule_is_stale_but_an_unrun_rule_is_not(tmp_path):
    _write_corpus(tmp_path, {"pkg/app.py": (
        "def one():  # lint: allow=REP208\n"
        "    return 1  # lint: allow=REP999\n"
    )})
    # REP208 did not run (no project rules): its allowance proves
    # nothing either way.  REP999 is no rule at all.
    findings = analyze_paths([tmp_path], root=tmp_path,
                             project_rules=()).findings
    assert [(f.rule, f.line) for f in findings] == [("REP000", 2)]
    findings = analyze_paths([tmp_path], root=tmp_path).findings
    assert [(f.rule, f.line) for f in findings] == [
        ("REP000", 1), ("REP000", 2)]


# -- what a run inspected ---------------------------------------------------

def test_census_counts_come_from_the_summaries(tmp_path):
    _write_corpus(tmp_path, {**CORPUS, "pkg/locks.py": (
        "import threading\n\n"
        "REGISTRY = threading.Lock()\n\n\n"
        "class Box:\n"
        "    _ids = threading.Lock()\n\n"
        "    def __init__(self):\n"
        "        self._lock = threading.RLock()\n"
        "        self._ready = threading.Condition()\n"
        "        self._thread = threading.Thread(target=self.run)\n\n"
        "    def run(self):\n"
        "        pass\n"
    )})
    result = analyze_paths([tmp_path], root=tmp_path, project_rules=())
    assert result.census().startswith(
        "4 files; 1 async defs, 4 locks, 1 thread spawn sites; "
        "rules REP103 ")
    assert "REP208" not in result.census()
