"""``repro.analysis`` — static analysis and runtime race checking.

Three correctness tools for the concurrent serving/docstore tiers:

* :mod:`repro.analysis.lint` — a visitor-based AST lint framework with
  repo-specific concurrency rules (unguarded shared state, blocking
  calls under locks, nondeterministic rank functions)
  plus generic hygiene rules, a suppression comment syntax, and a
  checked-in baseline so CI fails only on *new* findings.
* :mod:`repro.analysis.racecheck` — instrumented drop-in ``Lock`` /
  ``RLock`` / ``Condition`` wrappers (enabled via ``REPRO_RACECHECK=1``)
  that build a global lock-order graph and report cycles (potential
  deadlocks) and self-deadlocks.
* :mod:`repro.analysis.pipeline_check` — a pre-flight validator for
  aggregation pipelines: stage names, expression operators, ``$function``
  resolution against the registry, shape errors, and perf warnings —
  so malformed requests fail fast instead of mid-scatter.

The package ``__init__`` is deliberately lazy: the docstore/serve
modules import :mod:`repro.analysis.racecheck` at startup, and that
must not drag the AST tooling (or anything heavier) into every process.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

__all__ = [
    "Finding",
    "PipelineIssue",
    "PipelineValidationError",
    "default_rules",
    "validate_pipeline",
    "ensure_valid_pipeline",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.analysis.lint": ("Finding",),
    "repro.analysis.pipeline_check": (
        "PipelineIssue", "PipelineValidationError",
        "ensure_valid_pipeline", "validate_pipeline"),
    "repro.analysis.rules": ("default_rules",),
})
