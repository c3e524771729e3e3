"""Custom AST lint framework: findings, rules, suppression comments.

The framework is deliberately small: a rule is an object with a
``rule_id`` and a ``check(source)`` generator; the framework handles
file discovery, parsing and suppression comments.

Suppressing a finding
    Append ``# lint: allow=<rule-id>`` (comma-separate several ids) and
    the reason to the flagged line, or put the comment alone on the
    line directly above it.  For a multi-line statement, a comment on
    (or above) its opening line suppresses findings reported anywhere
    in the statement header — a rule anchors a finding at the call it
    flags, which may sit lines below where the statement starts.  This
    is the only way to excuse a finding, and an allowance that excuses
    nothing is reported (``REP000``) by
    :func:`repro.analysis.engine.analyze_paths`.
"""

from __future__ import annotations

import ast
import io
import tokenize
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

    def __str__(self) -> str:
        return (f"{self.path}:{self.line}: {self.rule} "
                f"[{self.severity}] {self.message}")


class Source:
    """One parsed module handed to every rule."""

    def __init__(self, path: str, text: str) -> None:
        self.path = path
        self.text = text
        self.tree = ast.parse(text, filename=path)
        self._suppressions: SuppressionIndex | None = None

    @property
    def suppressions(self) -> "SuppressionIndex":
        if self._suppressions is None:
            self._suppressions = SuppressionIndex.from_source(
                self.text, self.tree)
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
        )


class ProjectRule:
    """Base for interprocedural rules: one pass over the whole project.

    Unlike :class:`LintRule`, which sees one file, a project rule runs
    once against the :class:`~repro.analysis.callgraph.ProjectIndex`
    after every module summary is built; the engine applies
    suppression via the per-file :class:`SuppressionIndex`.
    """

    rule_id: str = ""
    severity: str = "warning"
    description: str = ""

    def check_project(self, index: Any) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, path: str, lineno: int, message: str) -> Finding:
        return Finding(rule=self.rule_id, severity=self.severity,
                       path=path, line=lineno, message=message)


def _allowed_rules(comment: str) -> set[str] | None:
    """The rule ids a comment allows, if it is a suppression comment."""
    _, marker, rest = comment.partition(SUPPRESS_MARKER)
    if not marker:
        return None
    return {rule for rule in "".join(rest.split()[:1]).split(",") if rule}


class SuppressionIndex:
    """Which rules each line allows — statement-header aware.

    ``allowed`` maps line numbers carrying a suppression comment to the
    rule ids they permit.  ``owner`` maps every line inside a
    *multi-line statement header* (a call spread over several lines, a
    parenthesized ``with``) to the statement's opening line, so a
    suppression there covers findings anywhere in the header.  ``used``
    records every ``(comment line, rule id)`` that excused a finding,
    so :meth:`unused` can name the ones that did not.
    """

    def __init__(self, allowed: dict[int, frozenset[str]],
                 owner: dict[int, int]) -> None:
        self.allowed = allowed
        self.owner = owner
        self.used: set[tuple[int, str]] = set()

    @classmethod
    def from_source(cls, text: str, tree: ast.AST) -> "SuppressionIndex":
        allowed: dict[int, frozenset[str]] = {}
        # Real comments only: the marker also appears in docstrings and
        # help strings, which excuse nothing.
        if SUPPRESS_MARKER in text:
            for token in tokenize.generate_tokens(
                    io.StringIO(text).readline):
                if token.type != tokenize.COMMENT:
                    continue
                rules = _allowed_rules(token.string)
                if rules is not None:
                    allowed[token.start[0]] = frozenset(rules)
        owner: dict[int, int] = {}
        # ast.walk is breadth-first: outer statements register their
        # spans first and inner ones overwrite, so the innermost
        # statement owns each header line.
        for node in ast.walk(tree):
            if not isinstance(node, ast.stmt):
                continue
            body = getattr(node, "body", None)
            if isinstance(body, list) and body and \
                    isinstance(body[0], ast.stmt):
                header_end = body[0].lineno - 1
            else:
                header_end = node.end_lineno or node.lineno
            for lineno in range(node.lineno + 1, header_end + 1):
                owner[lineno] = node.lineno
        return cls(allowed, owner)

    def allows(self, rule: str, lineno: int) -> bool:
        candidates = [lineno, lineno - 1]
        opening = self.owner.get(lineno)
        if opening is not None:
            candidates += [opening, opening - 1]
        for candidate in candidates:
            if rule in self.allowed.get(candidate, ()):
                self.used.add((candidate, rule))
                return True
        return False

    def unused(self) -> list[tuple[int, str]]:
        """Every ``(comment line, rule id)`` that excused no finding."""
        return sorted(
            (line, rule) for line, rules in self.allowed.items()
            for rule in rules if (line, rule) not in self.used
        )


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


def format_findings(findings: Sequence[Finding]) -> str:
    """Render findings for the CLI, one per line plus a summary."""
    lines = [str(finding) for finding in findings]
    errors = sum(1 for f in findings if f.severity == "error")
    warnings = len(findings) - errors
    lines.append(
        f"{len(findings)} finding(s): {errors} error(s), "
        f"{warnings} warning(s)"
    )
    return "\n".join(lines)
