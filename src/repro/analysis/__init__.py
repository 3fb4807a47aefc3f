"""Static invariant checking for the reproduction's core guarantees.

The repo's contracts — bit-for-bit equality between the autograd and
compiled serving paths, no stray allocations in per-tick hot paths, and
NaN-transparent POT/streaming state — are enforced dynamically by tests,
but a test only exercises the configurations someone thought to pin.  This
package makes the contracts *executable on every file, every CI run*:

* :mod:`repro.analysis.lint` — an AST-walking rule framework with
  repo-specific rules (wall-clock reads, unseeded RNG, ``id()`` cache
  keys, set-iteration ordering, hot-path allocations, NaN-contract and
  float32-literal violations), ``# repro: allow[rule]`` suppressions and
  unused-suppression detection.  ``python -m repro.analysis`` runs it as a
  blocking CI gate.
* :mod:`repro.analysis.plancheck` — a structural verifier for the compiled
  runtime: symbolic shape/dtype propagation over plan weights plus the
  write-lock (``freeze``) contract.  Exposed to users as
  ``compile_detector(..., verify=True)``.
* :mod:`repro.analysis.hotpath` — the registry naming the functions whose
  steady-state ticks must not allocate, plus the ``@hot_path`` decorator
  for registering new ones in place.
"""

from .hotpath import HOT_PATHS, hot_path
from .lint import (
    DEFAULT_TARGETS,
    LintFinding,
    lint_file,
    lint_paths,
    lint_source,
)
from .plancheck import (
    PlanIssue,
    PlanReport,
    PlanVerificationError,
    check_structure,
    verify_detector,
    verify_model,
)
from .rules import RULES

__all__ = [
    "DEFAULT_TARGETS",
    "HOT_PATHS",
    "LintFinding",
    "PlanIssue",
    "PlanReport",
    "PlanVerificationError",
    "RULES",
    "check_structure",
    "hot_path",
    "lint_file",
    "lint_paths",
    "lint_source",
    "verify_detector",
    "verify_model",
]
