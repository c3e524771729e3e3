"""``repro.analysis`` — static analysis and runtime race checking.

Two correctness tools for the concurrent serving/docstore tiers:

* :mod:`repro.analysis.lint` / :mod:`repro.analysis.engine` — a
  visitor-based AST lint framework with repo-specific concurrency rules
  (unguarded shared state, blocking calls under locks or on the event
  loop, lock-order cycles, leaked sockets), each kept because a probe
  shows a defect only it reports (EXPERIMENTS.md, "Trial: the
  analyzer"), and one suppression form, ``# lint: allow=<rule>``.
* :mod:`repro.analysis.racecheck` — instrumented drop-in ``Lock`` /
  ``RLock`` / ``Condition`` wrappers (enabled via ``REPRO_RACECHECK=1``)
  that build a global lock-order graph and report cycles (potential
  deadlocks) and self-deadlocks.

Nothing the serving path runs lives here except ``racecheck``'s lock
factories.

The package ``__init__`` is deliberately lazy: the docstore/serve
modules import :mod:`repro.analysis.racecheck` at startup, and that
must not drag the AST tooling (or anything heavier) into every process.
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
