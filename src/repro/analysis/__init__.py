"""Static analysis and runtime invariant checking for the reproduction.

These layers keep the "refactor freely, run fast" loop safe:

* :mod:`repro.analysis.lint` — project-specific AST rules (determinism,
  wall-clock isolation, mutable defaults, broad excepts, float equality,
  unused imports), plus the runtime annotation check that used to live
  only in the test suite.  Run via ``repro lint``.
* :mod:`repro.analysis.sanitize` — a runtime checker that observes the
  reference replay loop (``simulate(sanitize=True)`` / ``--sanitize`` /
  ``REPRO_SANITIZE``) validating remap bijectivity, intra-pod closure,
  MEA counter bounds, timeline monotonicity, and stats conservation.
* the **deep lint** (``repro lint --deep``) — cache-key soundness
  from ``simulate()`` (:mod:`~repro.analysis.cachekey`).

The kernels' ``finally`` write-backs are checked by tests: the state
differential ``TestManagerState`` in
``tests/test_kernel_differential.py`` faults every kernel mid-replay
and compares the manager state it leaves with the reference loop's.
"""

from .lint import Finding, deep_findings, lint_tree, run_lint
from .sanitize import (
    SANITIZE_ENV_VAR,
    SanitizerError,
    SimulationSanitizer,
    resolve_sanitize,
    sanitized_simulate,
)

__all__ = [
    "Finding",
    "deep_findings",
    "lint_tree",
    "run_lint",
    "SANITIZE_ENV_VAR",
    "SanitizerError",
    "SimulationSanitizer",
    "resolve_sanitize",
    "sanitized_simulate",
]
