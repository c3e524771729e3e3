"""Custom AST lint framework: findings, suppressions, baselines.

The engine is deliberately small: a rule is an object with a ``rule_id``
and a ``check(source)`` generator; the framework handles file discovery,
parsing, suppression comments, stable ordering, and baseline diffing.

Suppressing a finding
    Append ``# lint: allow=<rule-id>`` (comma-separate several ids, or
    ``allow=all``) to the flagged line, or put the comment alone on the
    line directly above it.  For decorated defs and multi-line
    statements, a comment on the ``def``/opening line (or above the
    first decorator) suppresses findings reported anywhere in the
    statement header — rules anchor findings to different lines of the
    same statement (the decorator, the ``def``, an argument default),
    and one suppression should cover them all.

Baselines
    A baseline is a JSON file recording accepted findings as
    ``(rule, path, source-line-text)`` triples — line *text*, not line
    numbers, so unrelated edits that shift code do not resurrect old
    findings.  :func:`new_findings` returns only findings not covered by
    the baseline (multiset semantics: two identical lines need two
    baseline entries).
"""

from __future__ import annotations

import ast
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

#: Marker introducing a suppression comment.
SUPPRESS_MARKER = "lint: allow="


@dataclass(frozen=True)
class Finding:
    """One lint hit: where, which rule, how bad, and why."""

    rule: str
    severity: str  # "error" | "warning"
    path: str  # repo-relative, forward slashes
    line: int  # 1-based
    message: str
    snippet: str = ""  # stripped source line (baseline matching key)

    def key(self) -> tuple[str, str, str]:
        """Baseline identity: stable across unrelated line-number drift."""
        return (self.rule, self.path, self.snippet)

    def to_json(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "snippet": self.snippet,
        }

    def __str__(self) -> str:
        return (f"{self.path}:{self.line}: {self.rule} "
                f"[{self.severity}] {self.message}")


class Source:
    """One parsed module handed to every rule."""

    def __init__(self, path: str, text: str) -> None:
        self.path = path
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=path)
        self._suppressions: SuppressionIndex | None = None

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    @property
    def suppressions(self) -> "SuppressionIndex":
        if self._suppressions is None:
            self._suppressions = SuppressionIndex.from_ast(
                self.lines, self.tree)
        return self._suppressions


class LintRule:
    """Base class: subclasses set the id/severity and implement check()."""

    rule_id: str = ""
    severity: str = "warning"
    description: str = ""

    def check(self, source: Source) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, source: Source, node: ast.AST | int,
                message: str) -> Finding:
        lineno = node if isinstance(node, int) else node.lineno
        return Finding(
            rule=self.rule_id,
            severity=self.severity,
            path=source.path,
            line=lineno,
            message=message,
            snippet=source.line_text(lineno).strip(),
        )


class ProjectRule:
    """Base for interprocedural rules: one pass over the whole project.

    Unlike :class:`LintRule`, which sees one file, a project rule runs
    once against the :class:`~repro.analysis.callgraph.ProjectIndex`
    after every module summary is built.  Findings come back with empty
    snippets; the engine fills those in (it already holds every file's
    text) and applies suppression via the per-file
    :class:`SuppressionIndex`.
    """

    rule_id: str = ""
    severity: str = "warning"
    description: str = ""

    def check_project(self, index: Any) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, path: str, lineno: int, message: str) -> Finding:
        return Finding(rule=self.rule_id, severity=self.severity,
                       path=path, line=lineno, message=message)


def _allowed_rules(line: str) -> set[str] | None:
    """The rule ids a source line's suppression comment allows, if any."""
    marker = line.find(SUPPRESS_MARKER)
    if marker < 0 or "#" not in line[:marker]:
        return None
    spec = line[marker + len(SUPPRESS_MARKER):].split()[0] if \
        line[marker + len(SUPPRESS_MARKER):].split() else ""
    return {rule.strip() for rule in spec.split(",") if rule.strip()}


class SuppressionIndex:
    """Which rules each line allows — statement-header aware.

    ``allowed`` maps line numbers carrying a suppression comment to the
    rule ids they permit.  ``owner`` maps every line inside a
    *multi-line statement header* (decorators, a ``def``'s argument
    list, a parenthesized ``with``) to ``(stmt_line, first_line)`` —
    the ``def``/opening line and the first line including decorators —
    so a suppression on the opening line covers findings anywhere in
    the header.  Serializable, so the analysis cache can keep it
    without re-parsing the file.
    """

    def __init__(self, allowed: dict[int, frozenset[str]],
                 owner: dict[int, tuple[int, int]]) -> None:
        self.allowed = allowed
        self.owner = owner

    @classmethod
    def from_ast(cls, lines: Sequence[str],
                 tree: ast.AST) -> "SuppressionIndex":
        allowed: dict[int, frozenset[str]] = {}
        for lineno, line in enumerate(lines, start=1):
            rules = _allowed_rules(line)
            if rules is not None:
                allowed[lineno] = frozenset(rules)
        owner: dict[int, tuple[int, int]] = {}
        # ast.walk is breadth-first: outer statements register their
        # spans first and inner ones overwrite, so the innermost
        # statement owns each header line.
        for node in ast.walk(tree):
            if not isinstance(node, ast.stmt):
                continue
            first = _stmt_first_line(node)
            body = getattr(node, "body", None)
            if isinstance(body, list) and body and \
                    isinstance(body[0], ast.stmt):
                header_end = _stmt_first_line(body[0]) - 1
            else:
                header_end = node.end_lineno or node.lineno
            if header_end <= first:
                continue  # single-line header: base lookup suffices
            for lineno in range(first, header_end + 1):
                owner[lineno] = (node.lineno, first)
        return cls(allowed, owner)

    def allows(self, rule: str, lineno: int) -> bool:
        candidates = [lineno, lineno - 1]
        span = self.owner.get(lineno)
        if span is not None:
            stmt_line, first = span
            candidates += [stmt_line, first, first - 1]
        for candidate in candidates:
            allowed = self.allowed.get(candidate)
            if allowed and (rule in allowed or "all" in allowed):
                return True
        return False

    def to_json(self) -> dict[str, Any]:
        return {
            "allowed": {str(line): sorted(rules)
                        for line, rules in self.allowed.items()},
            "owner": {str(line): list(span)
                      for line, span in self.owner.items()},
        }

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "SuppressionIndex":
        return cls(
            allowed={int(line): frozenset(rules)
                     for line, rules in payload["allowed"].items()},
            owner={int(line): (span[0], span[1])
                   for line, span in payload["owner"].items()},
        )


def _stmt_first_line(node: ast.stmt) -> int:
    """A statement's first physical line, decorators included."""
    first = node.lineno
    for decorator in getattr(node, "decorator_list", []):
        first = min(first, decorator.lineno)
    return first


def is_suppressed(source: Source, finding: Finding) -> bool:
    """True when the statement header or adjacent line allows the rule."""
    return source.suppressions.allows(finding.rule, finding.line)


# -- running ---------------------------------------------------------------

def iter_python_files(paths: Sequence[str | Path]) -> list[Path]:
    """Every ``.py`` file under the given files/directories, sorted."""
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def lint_source(source: Source,
                rules: Iterable[LintRule]) -> list[Finding]:
    """Apply every rule to one parsed module, dropping suppressed hits."""
    findings = []
    for rule in rules:
        for finding in rule.check(source):
            if not is_suppressed(source, finding):
                findings.append(finding)
    return findings


# -- baselines -------------------------------------------------------------

def load_baseline(path: str | Path) -> Counter:
    """The accepted-finding multiset from a baseline file (empty if absent)."""
    path = Path(path)
    if not path.exists():
        return Counter()
    payload = json.loads(path.read_text(encoding="utf-8"))
    return Counter(
        (entry["rule"], entry["path"], entry.get("snippet", ""))
        for entry in payload.get("findings", [])
    )


def save_baseline(path: str | Path, findings: Iterable[Finding]) -> None:
    """Write the current findings as the new accepted baseline."""
    payload = {
        "version": 1,
        "comment": (
            "Accepted repro.analysis lint findings. CI fails only on "
            "findings NOT listed here; regenerate with "
            "`repro-covidkg analyze --update-baseline`."
        ),
        "findings": [finding.to_json() for finding in findings],
    }
    Path(path).write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )


def new_findings(findings: Iterable[Finding],
                 baseline: Counter) -> list[Finding]:
    """Findings not covered by the baseline (multiset semantics)."""
    remaining = Counter(baseline)
    fresh = []
    for finding in findings:
        if remaining[finding.key()] > 0:
            remaining[finding.key()] -= 1
        else:
            fresh.append(finding)
    return fresh


def format_findings(findings: Sequence[Finding],
                    output_format: str = "text") -> str:
    """Render findings for the CLI (``text`` or ``json``)."""
    if output_format == "json":
        return json.dumps(
            [finding.to_json() for finding in findings], indent=2
        )
    lines = [str(finding) for finding in findings]
    errors = sum(1 for f in findings if f.severity == "error")
    warnings = len(findings) - errors
    lines.append(
        f"{len(findings)} finding(s): {errors} error(s), "
        f"{warnings} warning(s)"
    )
    return "\n".join(lines)
