"""``repro lint`` support: execute program files and collect findings.

FG programs are assembled by running Python code, so the linter lints by
*executing* each file with the module-level findings collector armed:
every ``FGProgram.lint`` pass (triggered from ``start()``) appends its
findings, and an error-severity finding aborts the program with
:class:`~repro.errors.LintError` before any pipeline process spawns.
The CLI exit code is 0 (clean), 1 (lint errors — or warnings under
``--strict``), or 2 (a file crashed for a non-lint reason).
"""

from __future__ import annotations

import json
import runpy
import sys
from typing import Callable, Optional, Sequence

from repro.check import linter
from repro.check.findings import Finding, LintReport
from repro.env import detectors_masked
from repro.errors import LintError

__all__ = ["lint_paths", "rules_table"]

#: per-stage effect entry: (program, pipeline, stage, classification)
StageEffect = tuple[str, str, str, str]


def rules_table() -> list[str]:
    """One aligned line per rule: ID, severity, name, summary."""
    rules = list(linter.RULES.values())
    id_w = max(len(r.rule_id) for r in rules)
    sev_w = max(len(r.severity.value) for r in rules)
    title_w = max(len(r.title) for r in rules)
    return [
        f"{r.rule_id:<{id_w}}  {r.severity.value:<{sev_w}}  "
        f"{r.title:<{title_w}}  {r.summary}"
        for r in rules
    ]


def _find_lint_error(exc: BaseException) -> Optional[LintError]:
    """Walk an exception chain (ProcessFailed.original, __cause__, ...)
    for the LintError that actually stopped the program."""
    seen: set[int] = set()
    frontier: list[BaseException] = [exc]
    while frontier:
        err = frontier.pop()
        if id(err) in seen:
            continue
        seen.add(id(err))
        if isinstance(err, LintError):
            return err
        for attr in ("original", "__cause__", "__context__"):
            nested = getattr(err, attr, None)
            if isinstance(nested, BaseException):
                frontier.append(nested)
        for failure in getattr(err, "failures", []) or []:
            cause = getattr(failure, "cause", None)
            if isinstance(cause, BaseException):
                frontier.append(cause)
    return None


def _run_one(path: str, *, effects: bool = False) -> tuple[
        list[Finding], list[StageEffect], Optional[BaseException]]:
    """Execute ``path`` with the collector armed; return (findings,
    per-stage effects, non-lint crash)."""
    collected: list[tuple[str, list[Finding]]] = []
    effect_rows: list[tuple[str, list[tuple[str, str, str]]]] = []
    previous = linter.COLLECTOR
    previous_effects = linter.EFFECTS
    previous_argv = sys.argv
    linter.COLLECTOR = collected
    if effects:
        linter.EFFECTS = effect_rows
    # the file runs as __main__ and may parse sys.argv; hand it a clean
    # one so the repro CLI's own arguments don't leak into it
    sys.argv = [path]
    crash: Optional[BaseException] = None
    try:
        # this is the *static* gate: the dynamic detectors' opt-in
        # variables are masked while the file runs, or a RaceError/
        # SanitizerError they raise would be reported as a non-lint
        # crash (exit 2)
        with detectors_masked():
            runpy.run_path(path, run_name="__main__")
    except SystemExit as exc:
        if exc.code not in (None, 0):
            crash = exc
    except BaseException as exc:  # noqa: BLE001 - report, don't die
        if _find_lint_error(exc) is None:
            crash = exc
    finally:
        linter.COLLECTOR = previous
        linter.EFFECTS = previous_effects
        sys.argv = previous_argv
    findings = [f for _, report in collected for f in report]
    stage_effects = [(prog, pipeline, stage, safety)
                     for prog, rows in effect_rows
                     for pipeline, stage, safety in rows]
    return findings, stage_effects, crash


def lint_paths(paths: Sequence[str], *, as_json: bool = False,
               strict: bool = False, effects: bool = False,
               out: Callable[[str], None] = print) -> int:
    """Lint every program assembled by each file in ``paths``.

    With ``effects`` the per-stage parallel-safety verdicts (``pure`` /
    ``read_shared`` / ``write_shared``) are reported alongside findings.
    """
    per_file: dict[str, list[Finding]] = {}
    per_file_effects: dict[str, list[StageEffect]] = {}
    crashes: dict[str, str] = {}
    for path in paths:
        findings, stage_effects, crash = _run_one(path, effects=effects)
        per_file[path] = findings
        per_file_effects[path] = stage_effects
        if crash is not None:
            crashes[path] = repr(crash)
    all_findings = [f for findings in per_file.values() for f in findings]
    report = LintReport(all_findings)
    if as_json:
        payload: dict[str, object] = {
            "files": {
                path: [f.to_dict() for f in findings]
                for path, findings in per_file.items()
            },
            "crashes": crashes,
            "errors": len(report.errors),
            "warnings": len(report.warnings),
        }
        if effects:
            payload["effects"] = {
                path: [{"program": prog, "pipeline": pipeline,
                        "stage": stage, "parallel_safety": safety}
                       for prog, pipeline, stage, safety in rows]
                for path, rows in per_file_effects.items()
            }
        out(json.dumps(payload, indent=2))
    else:
        for path, findings in per_file.items():
            status = ("crashed" if path in crashes
                      else "clean" if not findings else
                      f"{len(findings)} finding(s)")
            out(f"{path}: {status}")
            for f in findings:
                out(f"  {f}")
            for prog, pipeline, stage, safety in per_file_effects[path]:
                out(f"  {prog}/{pipeline}/{stage}: {safety}")
            if path in crashes:
                out(f"  non-lint failure: {crashes[path]}")
        out(f"{len(report.errors)} error(s), "
            f"{len(report.warnings)} warning(s), "
            f"{len(crashes)} crashed file(s)")
    if crashes:
        return 2
    if report.errors or (strict and report.warnings):
        return 1
    return 0
