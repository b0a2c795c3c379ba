"""`repro lint` tests: exit codes, JSON output, argv isolation."""

import json
import os
import subprocess
import sys

from repro.check.runner import lint_paths

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
CLEAN = os.path.join(FIXTURES, "clean_program.py")
DEFECT = os.path.join(FIXTURES, "lint_defect.py")


def run_lint(paths, **kwargs):
    lines = []
    code = lint_paths(paths, out=lines.append, **kwargs)
    return code, "\n".join(lines)


def test_clean_program_exits_zero():
    code, output = run_lint([CLEAN])
    assert code == 0
    assert f"{CLEAN}: clean" in output


def test_defect_fixture_exits_nonzero():
    code, output = run_lint([DEFECT])
    assert code == 1
    assert "FG104" in output


def test_mixed_batch_reports_every_file():
    code, output = run_lint([CLEAN, DEFECT])
    assert code == 1
    assert f"{CLEAN}: clean" in output
    assert "1 error(s)" in output


def test_json_output_is_machine_readable():
    code, output = run_lint([DEFECT], as_json=True)
    assert code == 1
    payload = json.loads(output)
    findings = payload["files"][DEFECT]
    assert findings[0]["rule"] == "FG104"
    assert payload["errors"] == 1
    assert payload["crashes"] == {}


def test_crashing_file_exits_two(tmp_path):
    crasher = tmp_path / "crasher.py"
    crasher.write_text("raise RuntimeError('boom')\n")
    code, output = run_lint([str(crasher)])
    assert code == 2
    assert "boom" in output


def test_cli_entry_point_end_to_end():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        ["src"] + env.get("PYTHONPATH", "").split(os.pathsep))
    clean = subprocess.run(
        [sys.executable, "-m", "repro", "lint", CLEAN],
        capture_output=True, text=True, env=env)
    assert clean.returncode == 0, clean.stdout + clean.stderr
    defect = subprocess.run(
        [sys.executable, "-m", "repro", "lint", DEFECT],
        capture_output=True, text=True, env=env)
    assert defect.returncode == 1, defect.stdout + defect.stderr
    assert "FG104" in defect.stdout


RACE_DEFECT = os.path.join(FIXTURES, "race_defect.py")


def test_race_defect_fixture_warns_fg110():
    code, output = run_lint([RACE_DEFECT])
    assert code == 0  # FG110 is a warning; only --strict blocks
    assert "FG110" in output


def test_race_defect_fixture_fails_strict():
    code, output = run_lint([RACE_DEFECT], strict=True)
    assert code == 1
    assert "FG110" in output


def test_race_defect_fixture_is_linted_statically_under_repro_race(
        monkeypatch):
    """``repro lint`` is the static gate: with the dynamic detectors'
    opt-in variables set, FGRace's RaceError on the fixture must not
    turn FG110's exit code (0, or 1 under --strict) into a crash (2)."""
    monkeypatch.setenv("REPRO_RACE", "1")
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    code, output = run_lint([RACE_DEFECT])
    assert (code, "FG110" in output) == (0, True)
    assert "non-lint failure" not in output
    code, output = run_lint([RACE_DEFECT], strict=True)
    assert (code, "FG110" in output) == (1, True)
    # masked only while the file ran
    assert os.environ["REPRO_RACE"] == os.environ["REPRO_SANITIZE"] == "1"


def test_list_rules_prints_the_full_catalog():
    from repro.check.runner import rules_table
    lines = rules_table()
    ids = [line.split()[0] for line in lines]
    # FG112 is retired; FG113/FG114 keep their numbers
    assert ids == [f"FG{n}" for n in range(101, 115) if n != 112]
    assert any("cross-stage-write-race" in line for line in lines)


def test_cli_list_rules_flag():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        ["src"] + env.get("PYTHONPATH", "").split(os.pathsep))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--list-rules"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "FG114" in proc.stdout


def test_effects_reports_stage_classifications():
    code, output = run_lint([CLEAN], effects=True)
    assert code == 0
    assert "/fill: pure" in output


def test_effects_json_carries_parallel_safety():
    code, output = run_lint([RACE_DEFECT], as_json=True, effects=True)
    payload = json.loads(output)
    rows = payload["effects"][RACE_DEFECT]
    assert {"program": "race-defect-fixture", "pipeline": "a",
            "stage": "bump_a",
            "parallel_safety": "write_shared"} in rows
