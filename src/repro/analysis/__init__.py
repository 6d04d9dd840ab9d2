"""Project-invariant static analysis and runtime concurrency witnesses.

FanStore's correctness argument rests on concurrency discipline the
paper takes for granted: metadata is immutable-in-RAM after the
allgather, the daemon serves remote reads from a background thread, and
the multi-read/single-write model makes lock protocols load-bearing
(PAPER.md §III). This package machine-checks that discipline:

- :mod:`repro.analysis.core` — the AST lint framework (findings,
  inline waivers, the pass registry) behind the ``fanstore-lint``
  console script (:mod:`repro.analysis.cli`);
- :mod:`repro.analysis.passes` — the project-specific passes
  (lock-order, blocking-under-lock, protocol-conformance,
  deadline-propagation, error-conventions, determinism, durable-write,
  metric-catalogue);
- :mod:`repro.analysis.lockdep` — the runtime lock-order witness
  (lockdep-style acquired-while-held graph with witness stacks),
  activated across the tier-1 suite by
  :mod:`repro.analysis.pytest_plugin`.

The rule catalogue, waiver syntax, and how to add a pass are documented
in ``docs/static-analysis.md``.
"""

from repro.analysis.core import Finding, LintPass, Project, run_lint
from repro.analysis.lockdep import LockdepWitness, current_witness

__all__ = [
    "Finding",
    "LintPass",
    "LockdepWitness",
    "Project",
    "current_witness",
    "run_lint",
]
