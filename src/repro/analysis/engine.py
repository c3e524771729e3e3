"""The analysis engine: parse every file once, run the rules, assemble.

Analysis is a *per-file* step — parse, run the per-file rules, build
the module summary — and a *project* step that stitches the summaries
into a :class:`~repro.analysis.callgraph.ProjectIndex` and runs the
interprocedural rules (REP208, REP209) over it.  Files are analysed in
a plain loop (the GIL serializes ``ast`` work) and findings come out
sorted by ``(path, line, rule)``.

The only way to excuse a finding is an inline ``# lint: allow=<rule>``
comment (:mod:`repro.analysis.lint`); an allowance that excuses nothing
is itself reported as ``REP000``, so the excuses cannot outlive the
code they were written for.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.analysis.callgraph import ProjectIndex
from repro.analysis.lint import (
    Finding,
    LintRule,
    ProjectRule,
    Source,
    iter_python_files,
    lint_source,
)
from repro.analysis.summaries import is_lock_constructor, summarize_module


@dataclass
class AnalysisResult:
    """Assembled findings plus what was inspected to produce them."""

    findings: list[Finding]
    files: int
    rules: tuple[str, ...]  # ids of the rules that ran, sorted
    index: ProjectIndex

    def census(self) -> str:
        """What the run looked at, from the module summaries it built."""
        functions = list(self.index.functions.values())
        async_defs = sum(1 for fn in functions if fn.is_async)
        spawns = sum(1 for fn in functions for call in fn.calls
                     if call.callee.rsplit(".", 1)[-1] == "Thread")
        locks = sum(len(module.locks) + sum(
            is_lock_constructor(constructor)
            for cls in module.classes.values()
            for constructor in cls.attributes.values())
            for module in self.index.modules.values())
        return (f"{self.files} files; {async_defs} async defs, "
                f"{locks} locks, {spawns} thread spawn "
                f"sites; rules {' '.join(self.rules)}")


def analyze_paths(paths: Sequence[str | Path],
                  root: str | Path | None = None,
                  *,
                  rules: Sequence[LintRule] | None = None,
                  project_rules: Sequence[ProjectRule] | None = None
                  ) -> AnalysisResult:
    """Analyze every Python file under ``paths``, project rules included.

    Paths in findings are made relative to ``root`` (default: the
    current directory) with forward slashes.
    """
    from repro.analysis.rules import default_rules
    from repro.analysis.rules import project_rules as all_project_rules

    file_rules, cross_rules = default_rules(), all_project_rules()
    if rules is None:
        rules = file_rules
    if project_rules is None:
        project_rules = cross_rules
    ran = {rule.rule_id for rule in [*rules, *project_rules]}
    root = Path(root) if root is not None else Path.cwd()

    findings: list[Finding] = []
    sources: dict[str, Source] = {}
    files = iter_python_files(paths)
    for file_path in files:
        try:
            relative = file_path.resolve().relative_to(root.resolve())
            rel = relative.as_posix()
        except ValueError:
            rel = file_path.as_posix()
        try:
            source = Source(rel, file_path.read_text(encoding="utf-8"))
        except SyntaxError as exc:
            findings.append(Finding(
                rule="REP000", severity="error", path=rel,
                line=exc.lineno or 1,
                message=f"file does not parse: {exc.msg}",
            ))
            continue
        sources[rel] = source
        findings.extend(lint_source(source, rules))

    index = ProjectIndex(summarize_module(path, source.tree)
                         for path, source in sources.items())
    for rule in project_rules:
        for finding in rule.check_project(index):
            source = sources.get(finding.path)
            if source is None or not source.suppressions.allows(
                    finding.rule, finding.line):
                findings.append(finding)

    # An allowance naming a rule that did not run (a partial rule set)
    # proves nothing; one naming no rule at all is as stale as an
    # unused one.
    skipped = {rule.rule_id
               for rule in [*file_rules, *cross_rules]} - ran
    for path, source in sources.items():
        for line, rule_id in source.suppressions.unused():
            if rule_id not in skipped:
                findings.append(Finding(
                    rule="REP000", severity="error", path=path,
                    line=line,
                    message=f"'# lint: allow={rule_id}' suppresses no "
                            f"{rule_id} finding; remove it",
                ))

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return AnalysisResult(findings=findings, files=len(files),
                          rules=tuple(sorted(ran)), index=index)
