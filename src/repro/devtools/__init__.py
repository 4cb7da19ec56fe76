"""Developer tooling: static analysis that guards the project's invariants.

The distributed runtime grown in PRs 3-5 rests on invariants no general
linter knows about: columnar fast paths must never fall back to tuple
materialization, anything crossing the executor's process boundary must
be pickle-clean, every concrete sampler must stay reachable from the variant
registry and covered by the conformance suite, snapshots must stay
symmetric, and nothing in the hot layers may smuggle in nondeterminism.
:mod:`repro.devtools.lint` encodes those invariants as AST rules
(RPR001-RPR006) behind the ``repro lint`` CLI subcommand and the
``lint-static`` CI job.
"""

from .lint import LintReport, Violation, all_rules, run_lint

__all__ = ["LintReport", "Violation", "all_rules", "run_lint"]
