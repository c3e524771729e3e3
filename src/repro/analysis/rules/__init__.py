"""The repo's lint rule set.

``default_rules()`` returns one instance of every per-file rule, and
``project_rules()`` one instance of every interprocedural rule;
the CLI and the tests both go through them so the two can never
disagree about what "the linter" means.
"""

from __future__ import annotations

from repro.analysis.lint import LintRule, ProjectRule
from repro.analysis.rules.concurrency import (
    AbandonedFutureGather,
    BlockingCallInAsync,
    BlockingCallUnderLock,
    UnguardedSharedState,
)
from repro.analysis.rules.generic import SwallowedAggregationError
from repro.analysis.rules.interprocedural import (
    StaticLockOrderCycle,
    TransitiveBlockingInAsync,
)
from repro.analysis.rules.perf import PerDocumentScoringLoop
from repro.analysis.rules.resources import ResourceLeak

__all__ = [
    "default_rules",
    "project_rules",
    "UnguardedSharedState",
    "BlockingCallInAsync",
    "BlockingCallUnderLock",
    "AbandonedFutureGather",
    "PerDocumentScoringLoop",
    "SwallowedAggregationError",
    "ResourceLeak",
    "TransitiveBlockingInAsync",
    "StaticLockOrderCycle",
]


def default_rules() -> list[LintRule]:
    """One instance of every per-file rule, in stable rule-id order."""
    rules = [
        SwallowedAggregationError(),
        UnguardedSharedState(),
        BlockingCallUnderLock(),
        AbandonedFutureGather(),
        BlockingCallInAsync(),
        PerDocumentScoringLoop(),
        ResourceLeak(),
    ]
    return sorted(rules, key=lambda rule: rule.rule_id)


def project_rules() -> list[ProjectRule]:
    """One instance of every interprocedural rule, in rule-id order."""
    rules: list[ProjectRule] = [
        TransitiveBlockingInAsync(),
        StaticLockOrderCycle(),
    ]
    return sorted(rules, key=lambda rule: rule.rule_id)
