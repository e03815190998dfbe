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
* the **deep lint** (``repro lint --deep``) — per-function CFGs
  (:mod:`~repro.analysis.cfg`) powering two checkers: hoisted-state
  write-back proofs (:mod:`~repro.analysis.writeback`, whose must-pass
  query is :func:`~repro.analysis.writeback.reaches_exit_avoiding`) and
  cache-key soundness from ``simulate()``
  (:mod:`~repro.analysis.cachekey`).
"""

from .cfg import build_cfg, iter_function_scopes
from .lint import Finding, deep_findings, lint_tree, run_lint
from .sanitize import (
    SANITIZE_ENV_VAR,
    SanitizerError,
    SimulationSanitizer,
    resolve_sanitize,
    sanitized_simulate,
)
from .writeback import reaches_exit_avoiding

__all__ = [
    "Finding",
    "build_cfg",
    "deep_findings",
    "iter_function_scopes",
    "lint_tree",
    "reaches_exit_avoiding",
    "run_lint",
    "SANITIZE_ENV_VAR",
    "SanitizerError",
    "SimulationSanitizer",
    "resolve_sanitize",
    "sanitized_simulate",
]
