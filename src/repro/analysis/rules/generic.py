"""Hygiene rules ``ruff`` has no equivalent for (CI runs both)."""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint import Finding, LintRule, Source


class SwallowedAggregationError(LintRule):
    """REP103: ``except AggregationError: pass`` hides pipeline bugs."""

    rule_id = "REP103"
    severity = "warning"
    description = (
        "an AggregationError caught and discarded hides malformed "
        "pipelines; handle it, log it, or let it propagate"
    )

    @staticmethod
    def _catches_aggregation_error(handler: ast.ExceptHandler) -> bool:
        exc_types = []
        if isinstance(handler.type, ast.Tuple):
            exc_types = list(handler.type.elts)
        elif handler.type is not None:
            exc_types = [handler.type]
        for exc_type in exc_types:
            name = exc_type.id if isinstance(exc_type, ast.Name) else \
                getattr(exc_type, "attr", None)
            if name == "AggregationError":
                return True
        return False

    @staticmethod
    def _is_noop_body(body: list[ast.stmt]) -> bool:
        for statement in body:
            if isinstance(statement, (ast.Pass, ast.Continue)):
                continue
            if isinstance(statement, ast.Expr) and \
                    isinstance(statement.value, ast.Constant):
                continue  # docstring or `...`
            return False
        return True

    def check(self, source: Source) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ExceptHandler) and \
                    self._catches_aggregation_error(node) and \
                    self._is_noop_body(node.body):
                yield self.finding(
                    source, node,
                    "AggregationError caught and silently discarded",
                )
