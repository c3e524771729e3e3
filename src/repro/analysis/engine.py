"""The analysis engine: parsing, caching, config, assembly.

Re-reading and re-parsing every file on every run was fine at 40 files
and is not at 160+.  The engine splits analysis into a *per-file* step
— parse, run the per-file rules, build the module summary and
suppression index — and a *project* step that stitches summaries into
a :class:`~repro.analysis.callgraph.ProjectIndex` and runs the
interprocedural rules.

The per-file step is pure in the file's content, so its output is
cached under ``.repro-analysis-cache/`` keyed by a content hash (plus
an engine version stamped with the rule set, so rule changes invalidate
everything).  A warm run touches each file only to hash it.  Per-file
work runs in a plain loop — the GIL serializes ``ast`` work, so a
thread pool was measured slower (EXPERIMENTS.md) — and findings come
out in the same deterministic order whatever the cache state.

Severity overrides and rule disabling live in ``pyproject.toml``::

    [tool.repro.analysis]
    disable = ["REP101"]

    [tool.repro.analysis.severity]
    REP208 = "warning"

Parsed with :mod:`tomllib` where available (3.11+) and a small
line-oriented fallback on 3.10 — the section grammar used here is flat
enough that the fallback handles it exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.analysis.callgraph import ProjectIndex
from repro.analysis.lint import (
    Finding,
    LintRule,
    ProjectRule,
    Source,
    SuppressionIndex,
    iter_python_files,
)
from repro.analysis.summaries import ModuleSummary, summarize_module

#: Bump when rule logic or summary shape changes: invalidates the cache.
ENGINE_VERSION = "4"

DEFAULT_CACHE_DIR = ".repro-analysis-cache"


# -- configuration ---------------------------------------------------------

@dataclass
class AnalysisConfig:
    """Severity overrides and disabled rules from ``pyproject.toml``."""

    severity: dict[str, str] = field(default_factory=dict)
    disable: frozenset[str] = frozenset()

    def apply(self, findings: Iterable[Finding]) -> list[Finding]:
        out = []
        for finding in findings:
            if finding.rule in self.disable:
                continue
            override = self.severity.get(finding.rule)
            if override and override != finding.severity:
                finding = dataclasses.replace(finding,
                                              severity=override)
            out.append(finding)
        return out


def _parse_toml_subset(text: str) -> dict[str, dict[str, Any]]:
    """Flat ``[section]`` / ``key = value`` TOML subset (3.10 fallback).

    Handles exactly what ``[tool.repro.analysis]`` uses: string values,
    and single-line arrays of strings.
    """
    sections: dict[str, dict[str, Any]] = {}
    current: dict[str, Any] | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1].strip(), {})
            continue
        if current is None or "=" not in line:
            continue
        key, _, value = line.partition("=")
        key = key.strip().strip('"')
        value = value.split("#")[0].strip()
        if value.startswith("[") and value.endswith("]"):
            items = [item.strip().strip('"').strip("'")
                     for item in value[1:-1].split(",")]
            current[key] = [item for item in items if item]
        else:
            current[key] = value.strip('"').strip("'")
    return sections


def load_config(root: str | Path = ".") -> AnalysisConfig:
    """The ``[tool.repro.analysis]`` config from ``pyproject.toml``."""
    pyproject = Path(root) / "pyproject.toml"
    if not pyproject.exists():
        return AnalysisConfig()
    text = pyproject.read_text(encoding="utf-8")
    try:
        import tomllib
        section = tomllib.loads(text).get("tool", {}) \
            .get("repro", {}).get("analysis", {})
    except ModuleNotFoundError:  # Python 3.10
        flat = _parse_toml_subset(text)
        section = dict(flat.get("tool.repro.analysis", {}))
        section["severity"] = flat.get("tool.repro.analysis.severity",
                                       {})
    severity = {str(rule): str(level)
                for rule, level in (section.get("severity") or
                                    {}).items()}
    disable = frozenset(str(rule)
                        for rule in (section.get("disable") or []))
    return AnalysisConfig(severity=severity, disable=disable)


# -- per-file step ---------------------------------------------------------

@dataclass
class FileRecord:
    """Everything the per-file step produces (the cacheable unit)."""

    path: str
    findings: list[Finding]  # per-file rule hits, pre-suppression
    summary: ModuleSummary | None  # None when the file does not parse
    suppressions: SuppressionIndex
    from_cache: bool = False

    def to_json(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "findings": [finding.to_json()
                         for finding in self.findings],
            "summary": self.summary.to_json() if self.summary else None,
            "suppressions": self.suppressions.to_json(),
        }

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "FileRecord":
        return cls(
            path=payload["path"],
            findings=[Finding(**raw) for raw in payload["findings"]],
            summary=ModuleSummary.from_json(payload["summary"])
            if payload["summary"] else None,
            suppressions=SuppressionIndex.from_json(
                payload["suppressions"]),
            from_cache=True,
        )


def _analyze_file(path: str, text: str,
                  rules: Sequence[LintRule]) -> FileRecord:
    try:
        source = Source(path, text)
    except SyntaxError as exc:
        return FileRecord(
            path=path,
            findings=[Finding(
                rule="REP000", severity="error", path=path,
                line=exc.lineno or 1,
                message=f"file does not parse: {exc.msg}",
            )],
            summary=None,
            suppressions=SuppressionIndex({}, {}),
        )
    findings = []
    for rule in rules:
        findings.extend(rule.check(source))
    return FileRecord(
        path=path,
        findings=findings,
        summary=summarize_module(path, source.tree),
        suppressions=source.suppressions,
    )


# -- the engine ------------------------------------------------------------

@dataclass
class AnalysisResult:
    """Assembled findings plus cache statistics."""

    findings: list[Finding]
    files: int = 0
    cache_hits: int = 0
    analyzed_paths: list[str] = field(default_factory=list)
    index: ProjectIndex | None = None


def _rules_fingerprint(rules: Sequence[LintRule],
                       proj: Sequence[ProjectRule]) -> str:
    ids = [f"{r.rule_id}:{r.severity}" for r in [*rules, *proj]]
    return hashlib.sha256(
        "|".join([ENGINE_VERSION, *sorted(ids)]).encode()
    ).hexdigest()[:16]


def _cache_key(fingerprint: str, path: str, text: str) -> str:
    digest = hashlib.sha256()
    digest.update(fingerprint.encode())
    digest.update(b"\0")
    digest.update(path.encode())
    digest.update(b"\0")
    digest.update(text.encode())
    return digest.hexdigest()


def analyze_paths(paths: Sequence[str | Path],
                  root: str | Path | None = None,
                  *,
                  rules: Sequence[LintRule] | None = None,
                  project_rules: Sequence[ProjectRule] | None = None,
                  config: AnalysisConfig | None = None,
                  use_cache: bool = True,
                  cache_dir: str | Path = DEFAULT_CACHE_DIR
                  ) -> AnalysisResult:
    """Analyze every Python file under ``paths``, project rules included.

    Paths in findings are made relative to ``root`` (default: the
    current directory) with forward slashes, so baselines are portable
    across machines and OSes.
    """
    if rules is None:
        from repro.analysis.rules import default_rules
        rules = default_rules()
    if project_rules is None:
        from repro.analysis.rules import project_rules as _project
        project_rules = _project()
    root = Path(root) if root is not None else Path.cwd()
    if config is None:
        config = load_config(root)
    fingerprint = _rules_fingerprint(rules, project_rules)
    cache_path = Path(cache_dir)
    if not cache_path.is_absolute():
        cache_path = root / cache_path
    if use_cache:
        cache_path.mkdir(parents=True, exist_ok=True)

    files = iter_python_files(paths)
    texts: dict[str, str] = {}

    def load_one(file_path: Path) -> FileRecord:
        try:
            relative = file_path.resolve().relative_to(root.resolve())
            rel = relative.as_posix()
        except ValueError:
            rel = file_path.as_posix()
        text = file_path.read_text(encoding="utf-8")
        texts[rel] = text
        key = _cache_key(fingerprint, rel, text)
        entry = cache_path / f"{key}.json"
        if use_cache and entry.exists():
            try:
                payload = json.loads(entry.read_text(encoding="utf-8"))
                return FileRecord.from_json(payload)
            except (json.JSONDecodeError, KeyError, TypeError):
                pass  # corrupt entry: fall through and rebuild
        record = _analyze_file(rel, text, rules)
        if use_cache:
            tmp = entry.with_suffix(".tmp")
            tmp.write_text(json.dumps(record.to_json()),
                           encoding="utf-8")
            tmp.replace(entry)
        return record

    records = [load_one(file_path) for file_path in files]

    index = ProjectIndex(
        record.summary for record in records
        if record.summary is not None
    )

    findings: list[Finding] = []
    suppressions = {record.path: record.suppressions
                    for record in records}
    for record in records:
        for finding in record.findings:
            if finding.rule == "REP000" or \
                    not record.suppressions.allows(finding.rule,
                                                   finding.line):
                findings.append(finding)
    lines_by_path: dict[str, list[str]] = {}
    for rule in project_rules:
        for finding in rule.check_project(index):
            index_for_path = suppressions.get(finding.path)
            if index_for_path is not None and \
                    index_for_path.allows(finding.rule, finding.line):
                continue
            if finding.path in texts and not finding.snippet:
                lines = lines_by_path.setdefault(
                    finding.path, texts[finding.path].splitlines())
                if 1 <= finding.line <= len(lines):
                    finding = dataclasses.replace(
                        finding,
                        snippet=lines[finding.line - 1].strip())
            findings.append(finding)

    findings = config.apply(findings)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return AnalysisResult(
        findings=findings,
        files=len(records),
        cache_hits=sum(1 for r in records if r.from_cache),
        analyzed_paths=sorted(r.path for r in records
                              if not r.from_cache),
        index=index,
    )


# -- changed-only support --------------------------------------------------

def changed_files(root: str | Path = ".",
                  since: str = "HEAD") -> set[str] | None:
    """Repo-relative paths changed vs ``since`` plus untracked files.

    ``None`` means "could not tell" (not a git checkout, bad ref):
    callers should fall back to analyzing everything rather than
    silently skipping files.
    """
    def run(*argv: str) -> list[str] | None:
        try:
            proc = subprocess.run(
                ["git", *argv], cwd=str(root), capture_output=True,
                text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        if proc.returncode != 0:
            return None
        return [line.strip() for line in proc.stdout.splitlines()
                if line.strip()]

    diffed = run("diff", "--name-only", since)
    if diffed is None:
        return None
    untracked = run("ls-files", "--others", "--exclude-standard")
    if untracked is None:
        return None
    return set(diffed) | set(untracked)
