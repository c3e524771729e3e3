"""``repro.analysis`` — static analysis for the concurrent tiers.

:mod:`repro.analysis.lint` / :mod:`repro.analysis.engine` are a
visitor-based AST lint framework with repo-specific concurrency rules
(unguarded shared state, blocking calls under locks or on the event
loop, lock-order cycles, leaked sockets), each kept because a probe
shows a defect only it reports (EXPERIMENTS.md, "Trial: the analyzer"),
and one suppression form, ``# lint: allow=<rule>``.  REP209 is the one
lock-order check.

Nothing the serving path runs lives here: no replica or router process
imports this package.  The package ``__init__`` is lazy all the same,
so ``repro-covidkg analyze`` loads only the AST tooling it runs.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

__all__ = [
    "Finding",
    "default_rules",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.analysis.lint": ("Finding",),
    "repro.analysis.rules": ("default_rules",),
})
