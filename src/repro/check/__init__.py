"""repro.check: static analysis + dynamic checkers for FG programs.

Three layers of correctness analysis over FG programs (docs/ANALYSIS.md):

* :mod:`repro.check.linter` — rule-based static analysis (FG101–FG111)
  of an assembled :class:`~repro.core.program.FGProgram`; ``start()``
  runs its structural rules, ``lint()`` and ``repro lint`` every rule.
* :mod:`repro.check.dataflow` — the one interpreter of stage bytecode,
  behind the linter's EOS scan and FG109, plus FGPar: per-stage
  read/write effect sets and the ``pure`` / ``read_shared`` /
  ``write_shared`` parallel-safety verdict, computed on request (the
  effect lint rules, ``repro lint --effects`` and FGRace); ``start()``
  scans only replicated stages, for FG109.
* :mod:`repro.check.sanitizer` / :mod:`repro.check.races` — the opt-in
  runtime checkers: FGSan tracks buffer ownership
  (``FGProgram(sanitize=True)`` / ``REPRO_SANITIZE=1``), FGRace checks
  shared-cell accesses for happens-before ordering
  (``FGProgram(race_detect=True)`` / ``REPRO_RACE=1``, ``strict`` for
  the static-coverage cross-check).
"""

from repro.check.dataflow import (
    PURE,
    READ_SHARED,
    WRITE_SHARED,
    Cell,
    Effects,
    ProgramEffects,
    classify_fn,
    fn_effects,
    program_effects,
)
from repro.check.findings import Finding, LintReport, Rule, Severity
from repro.check.linter import (
    RULES,
    ignored_rules,
    lint_program,
    normalize_rule_ids,
)
from repro.check.races import RaceDetector, RaceFinding, race_from_env
from repro.check.sanitizer import Sanitizer, sanitize_from_env

__all__ = [
    "Cell",
    "Effects",
    "Finding",
    "LintReport",
    "ProgramEffects",
    "PURE",
    "READ_SHARED",
    "RaceDetector",
    "RaceFinding",
    "Rule",
    "RULES",
    "Sanitizer",
    "Severity",
    "WRITE_SHARED",
    "classify_fn",
    "fn_effects",
    "ignored_rules",
    "lint_program",
    "normalize_rule_ids",
    "program_effects",
    "race_from_env",
    "sanitize_from_env",
]
