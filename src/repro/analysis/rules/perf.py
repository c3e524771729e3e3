"""Performance lint rules.

REP207 guards the search hot path: ranking work must run on the
columnar kernels (:mod:`repro.search.columnar`), not as per-document
Python loops.  The rule is deliberately path-restricted — a ``for``
loop that scores documents one at a time is idiomatic everywhere else
in the repo (ingest, KG fusion, tests); it is only a regression inside
``repro/search`` where the batch path exists.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.lint import Finding, LintRule, Source

#: Function (or closure) names that mark a scoring/ranking hot path.
_HOT_FUNC_RE = re.compile(r"(^|_)(score|scorer|rank|ranking)")

#: Callable names whose presence inside a loop body marks the loop as
#: doing per-document scoring work rather than bookkeeping.
_SCORING_CALL_RE = re.compile(
    r"(^|_)(score|rank|idf|tokenize|stem|min_window|positions)"
)


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


class PerDocumentScoringLoop(LintRule):
    """REP207: per-document Python scoring loop in a search hot path.

    Flags ``for`` loops inside scoring/ranking functions under
    ``repro/search`` whose body calls scoring work per iteration.
    Reference implementations kept for the differential tests carry a
    ``# lint: allow=REP207`` escape; new per-document loops must use
    the columnar kernels.
    """

    rule_id = "REP207"
    severity = "warning"
    description = (
        "per-document Python scoring loop in a repro/search hot path; "
        "use the columnar kernels (repro.search.columnar) or add "
        "'# lint: allow=REP207' for a deliberate reference path"
    )

    def __init__(self, restrict_to: str = "repro/search") -> None:
        self.restrict_to = restrict_to

    def _scoring_calls(self, loop: ast.For) -> bool:
        for node in ast.walk(loop):
            if isinstance(node, ast.Call) and \
                    _SCORING_CALL_RE.search(_call_name(node)):
                return True
        return False

    def check(self, source: Source) -> Iterator[Finding]:
        path = source.path.replace("\\", "/")
        if self.restrict_to and self.restrict_to not in path:
            return
        flagged: set[int] = set()
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            if not _HOT_FUNC_RE.search(node.name):
                continue
            for inner in ast.walk(node):
                if isinstance(inner, ast.For) and \
                        inner.lineno not in flagged and \
                        self._scoring_calls(inner):
                    flagged.add(inner.lineno)
                    yield self.finding(
                        source, inner,
                        f"per-document scoring loop in {node.name}(); "
                        "hot-path ranking belongs on the columnar "
                        "kernels",
                    )
