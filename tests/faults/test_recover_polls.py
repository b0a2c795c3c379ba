"""Recovery waits are polls, and the scheduler evaluates them.

``RecoveryManager``'s waits — ``backup_wait``, ``sync_point`` without a
drain, the watchdog between ticks with work — are ``Kernel.poll`` calls,
whose false ticks the virtual-time scheduler runs without waking the
poller (``repro.sim.kernel``, "Polls").  The committed golden chaos record
runs no recovery manager, so these tests run the behaviour manifest's
twelve ``recovery/*`` scenarios (whose lines hold what the runs recorded
while every wait was still a sleep loop) under spies, once per session
(``recovery_matrix`` in ``tests/conftest.py``; ``tests/behaviour`` checks
the same runs): each spied run still records its manifest line, the runs
reach each wait, and every predicate evaluation keeps the predicate
contract.
"""

import json

import pytest

from repro.errors import FaultError
from repro.recover import RecoverPolicy, SpeculationPolicy
from tests.behaviour import read_manifest
from tests.behaviour.scenarios import RECOVERY_RUNS


@pytest.mark.parametrize("run", RECOVERY_RUNS)
def test_recovery_run_reproduces_the_sleep_loop_run(recovery_matrix, run):
    records, _, _, polled = recovery_matrix
    name = f"recovery/{run}"
    assert records[name] == read_manifest()[name]
    assert polled[name] > 0  # and the scheduler ran ticks itself


def test_the_matrix_reaches_every_wait(recovery_matrix):
    _, reached, _, _ = recovery_matrix
    for site in ("backup_wait", "sync_point", "_run", "sync_point drain",
                 "watchdog compensates", "watchdog samples"):
        assert reached[site] > 0, (site, dict(reached))


def test_no_predicate_evaluation_changes_what_a_run_records(
        recovery_matrix):
    _, reached, changed, _ = recovery_matrix
    assert sum(reached[s] for s in ("backup_wait", "sync_point", "_run"))
    assert changed == []


# -- the timing a poll is handed -----------------------------------------

BAD_TIMES = [float("nan"), float("inf"), float("-inf"), 0.0, -1e-3]


@pytest.mark.parametrize("value", BAD_TIMES)
def test_recover_tick_must_be_finite_and_positive(value):
    with pytest.raises(FaultError, match="tick must be finite and > 0"):
        RecoverPolicy(tick=value)
    doc = json.loads(json.dumps({"tick": value}))  # NaN / Infinity tokens
    with pytest.raises(FaultError, match="tick must be finite and > 0"):
        RecoverPolicy.from_json(doc)


@pytest.mark.parametrize("value", BAD_TIMES)
def test_speculation_interval_must_be_finite_and_positive(value):
    match = "interval must be finite and > 0"
    with pytest.raises(FaultError, match=match):
        SpeculationPolicy(interval=value)
    doc = json.loads(json.dumps(
        {"backup_runs": True, "speculation": {"interval": value}}))
    with pytest.raises(FaultError, match=match):
        RecoverPolicy.from_json(doc)
