"""Every scenario shows exactly what its manifest line recorded.

One test per scenario name, drawn from the table *and* the manifest, so a
scenario without a line and a line without a scenario both fail; a
mismatch names the scenario and its first differing field (or list
index).  Re-recording is ``record.py``'s job, never this test's.
"""

import itertools
import json
import platform
import sys

import pytest

from tests.behaviour import read_manifest
from tests.behaviour.scenarios import SCENARIOS

#: stands for a field or list item one side does not have
ABSENT = "<absent>"
#: the one scenario whose text comes from one interpreter's bytecode, and
#: the interpreter it was recorded under
LINT, LINT_INTERPRETER = "lint/examples-and-fixtures", "CPython 3.11"


def first_difference(name, expected, observed):
    """``None`` when the two flat dicts agree, else one line naming the
    scenario and the first differing field, in the scenario's order."""
    for field in [*observed, *(f for f in expected if f not in observed)]:
        want, got = expected.get(field, ABSENT), observed.get(field, ABSENT)
        if want == got:
            continue
        if isinstance(want, list) and isinstance(got, list):
            i = next(i for i in itertools.count()
                     if want[i:i + 1] != got[i:i + 1])
            field = f"{field}[{i}]"
            want, got = ((s[i:i + 1] or [ABSENT])[0] for s in (want, got))
        return f"{name}: {field}: manifest {want!r}, run {got!r}"
    return None


def check(name, table, manifest):
    assert name in manifest, (
        f"{name}: no manifest line; record it (tests/behaviour/record.py)")
    assert name in table, f"{name}: manifest line with no scenario"
    running = "%s %d.%d" % (platform.python_implementation(),
                            *sys.version_info[:2])
    if name == LINT and running != LINT_INTERPRETER:
        pytest.skip(f"recorded from {LINT_INTERPRETER} bytecode; "
                    f"unverified on {running}")
    observed = json.loads(json.dumps(table[name]()))  # as the line spells it
    difference = first_difference(name, manifest[name], observed)
    assert difference is None, difference


@pytest.mark.parametrize("name", sorted(SCENARIOS.keys()
                                        | read_manifest().keys()))
def test_scenario(name, request):
    table = SCENARIOS
    if name.startswith("recovery/") and name in SCENARIOS:
        # the spied runs test_recover_polls asserts on: one run each
        records = request.getfixturevalue("recovery_matrix")[0]
        table = {name: lambda: records[name]}
    check(name, table, read_manifest())


# -- the test of the test --------------------------------------------------

@pytest.mark.parametrize("name, field, tamper, named", [
    ("documents/Quota", "document", lambda text: "{}", "document"),
    ("handoff/two-pipeline", "events",
     lambda events: events[:5] + [[0.0, "x", "spawn", ""]] + events[6:],
     r"events\[5\]"),
], ids=["field", "list-item"])
def test_a_changed_value_names_the_scenario_and_the_field(
        name, field, tamper, named):
    line = read_manifest()[name]
    manifest = {name: {**line, field: tamper(line[field])}}
    with pytest.raises(AssertionError, match=f"^{name}: {named}: manifest "):
        check(name, SCENARIOS, manifest)


@pytest.mark.parametrize("name", ["hook-sites", LINT])
def test_a_scenario_and_a_line_must_pair_up(name):
    """Neither half alone is skipped, not even an interpreter-bound one."""
    with pytest.raises(AssertionError, match="no manifest line"):
        check(name, SCENARIOS, {})
    with pytest.raises(AssertionError, match="line with no scenario"):
        check(name, {}, read_manifest())

