"""Engine behaviour: cache correctness, config, changed-only, SARIF.

The cache contract is the load-bearing one — a warm run must produce
*identical* findings to a cold run, and editing one file must re-analyze
exactly that file (``AnalysisResult.analyzed_paths``) while everything
else comes from cache.
"""

from __future__ import annotations

import json
import subprocess

import pytest

from repro.analysis.engine import (
    AnalysisConfig,
    _parse_toml_subset,
    analyze_paths,
    changed_files,
    load_config,
)
from repro.analysis.sarif import dump_sarif, to_sarif, validate_sarif
from repro.analysis.rules import default_rules, project_rules

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


def _keyed(findings):
    return [(f.rule, f.path, f.line, f.severity, f.message)
            for f in findings]


# -- cache correctness -----------------------------------------------------

def test_warm_run_is_all_cache_hits_with_identical_findings(tmp_path):
    _write_corpus(tmp_path)
    cold = analyze_paths([tmp_path], root=tmp_path)
    assert cold.cache_hits == 0
    assert cold.files == 3
    assert {f.rule for f in cold.findings} == {"REP208", "REP211"}

    warm = analyze_paths([tmp_path], root=tmp_path)
    assert warm.cache_hits == 3
    assert warm.analyzed_paths == []
    assert _keyed(warm.findings) == _keyed(cold.findings)


def test_editing_one_file_reanalyzes_only_that_file(tmp_path):
    _write_corpus(tmp_path)
    cold = analyze_paths([tmp_path], root=tmp_path)

    # A whitespace-only edit: content hash changes, findings must not.
    target = tmp_path / "pkg" / "net.py"
    target.write_text(target.read_text() + "\n# trailing comment\n",
                      encoding="utf-8")
    warm = analyze_paths([tmp_path], root=tmp_path)
    assert warm.analyzed_paths == ["pkg/net.py"]
    assert warm.cache_hits == 2
    assert _keyed(warm.findings) == _keyed(cold.findings)


def test_edit_that_fixes_the_bug_clears_the_finding(tmp_path):
    _write_corpus(tmp_path)
    analyze_paths([tmp_path], root=tmp_path)
    (tmp_path / "pkg" / "app.py").write_text(
        "from pkg.slow import slow\n\n\n"
        "async def handler(loop):\n"
        "    await loop.run_in_executor(None, slow)\n",
        encoding="utf-8")
    result = analyze_paths([tmp_path], root=tmp_path)
    assert result.analyzed_paths == ["pkg/app.py"]
    assert {f.rule for f in result.findings} == {"REP211"}


def test_interprocedural_findings_survive_caching(tmp_path):
    # REP208's evidence spans pkg/app.py and pkg/slow.py; both sides
    # must reconstitute from cached summaries, not just per-file hits.
    _write_corpus(tmp_path)
    analyze_paths([tmp_path], root=tmp_path)
    warm = analyze_paths([tmp_path], root=tmp_path)
    assert warm.cache_hits == 3
    rep208 = [f for f in warm.findings if f.rule == "REP208"]
    assert len(rep208) == 1
    assert "pkg.slow:slow" in rep208[0].message


def test_corrupt_cache_entry_is_rebuilt_not_trusted(tmp_path):
    _write_corpus(tmp_path)
    cold = analyze_paths([tmp_path], root=tmp_path)
    cache = tmp_path / ".repro-analysis-cache"
    entries = sorted(cache.glob("*.json"))
    assert len(entries) == 3
    entries[0].write_text("{not json", encoding="utf-8")
    warm = analyze_paths([tmp_path], root=tmp_path)
    assert warm.cache_hits == 2
    assert len(warm.analyzed_paths) == 1
    assert _keyed(warm.findings) == _keyed(cold.findings)


def test_no_cache_flag_skips_the_cache_dir_entirely(tmp_path):
    _write_corpus(tmp_path)
    result = analyze_paths([tmp_path], root=tmp_path, use_cache=False)
    assert result.cache_hits == 0
    assert not (tmp_path / ".repro-analysis-cache").exists()


# -- configuration ---------------------------------------------------------

def test_severity_override_and_disable(tmp_path):
    _write_corpus(tmp_path)
    config = AnalysisConfig(severity={"REP211": "warning"},
                            disable=frozenset({"REP208"}))
    result = analyze_paths([tmp_path], root=tmp_path, config=config,
                           use_cache=False)
    assert {f.rule for f in result.findings} == {"REP211"}
    assert all(f.severity == "warning" for f in result.findings)


PYPROJECT = """\
[project]
name = "demo"

[tool.repro.analysis]
disable = ["REP101", "REP102"]

[tool.repro.analysis.severity]
REP208 = "warning"
REP211 = "note"
"""


def test_load_config_reads_pyproject(tmp_path):
    (tmp_path / "pyproject.toml").write_text(PYPROJECT,
                                             encoding="utf-8")
    config = load_config(tmp_path)
    assert config.disable == frozenset({"REP101", "REP102"})
    assert config.severity == {"REP208": "warning", "REP211": "note"}


def test_toml_subset_fallback_matches_tomllib():
    tomllib = pytest.importorskip("tomllib")
    flat = _parse_toml_subset(PYPROJECT)
    full = tomllib.loads(PYPROJECT)
    assert flat["tool.repro.analysis"]["disable"] == \
        full["tool"]["repro"]["analysis"]["disable"]
    assert flat["tool.repro.analysis.severity"] == \
        full["tool"]["repro"]["analysis"]["severity"]


def test_missing_pyproject_gives_empty_config(tmp_path):
    config = load_config(tmp_path)
    assert config.severity == {}
    assert config.disable == frozenset()


# -- changed-only ----------------------------------------------------------

def _git(root, *argv):
    subprocess.run(["git", *argv], cwd=str(root), check=True,
                   capture_output=True)


def test_changed_files_reports_diff_and_untracked(tmp_path):
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "config", "user.email", "t@t")
    _git(tmp_path, "config", "user.name", "t")
    (tmp_path / "a.py").write_text("x = 1\n", encoding="utf-8")
    _git(tmp_path, "add", "a.py")
    _git(tmp_path, "commit", "-qm", "seed")

    assert changed_files(tmp_path) == set()
    (tmp_path / "a.py").write_text("x = 2\n", encoding="utf-8")
    (tmp_path / "b.py").write_text("y = 1\n", encoding="utf-8")
    assert changed_files(tmp_path) == {"a.py", "b.py"}


def test_changed_files_returns_none_outside_git(tmp_path):
    assert changed_files(tmp_path) is None


# -- SARIF -----------------------------------------------------------------

def test_emitted_sarif_is_valid_and_round_trips(tmp_path):
    _write_corpus(tmp_path)
    result = analyze_paths([tmp_path], root=tmp_path, use_cache=False)
    metadata = [(r.rule_id, r.severity, r.description)
                for r in [*default_rules(), *project_rules()]]
    text = dump_sarif(result.findings, metadata)
    document = json.loads(text)
    assert validate_sarif(document) == []

    run = document["runs"][0]
    advertised = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert {"REP208", "REP209", "REP211"} <= advertised
    assert {r["ruleId"] for r in run["results"]} == \
        {"REP208", "REP211"}
    for res in run["results"]:
        location = res["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uriBaseId"] == "SRCROOT"
        assert location["region"]["startLine"] >= 1


def test_validator_catches_structural_breakage():
    document = to_sarif([], [("REP101", "warning", "demo")])
    assert validate_sarif(document) == []

    broken = json.loads(json.dumps(document))
    del broken["runs"][0]["tool"]["driver"]["name"]
    assert any("driver" in problem and "name" in problem
               for problem in validate_sarif(broken))

    broken = json.loads(json.dumps(document))
    broken["version"] = "9.9"
    assert any("version" in problem
               for problem in validate_sarif(broken))

    broken = json.loads(json.dumps(document))
    broken["runs"][0]["results"] = [{"message": {"text": "x"},
                                    "level": "fatal"}]
    assert any("level" in problem
               for problem in validate_sarif(broken))
