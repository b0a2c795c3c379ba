"""Recovery waits are polls, and the scheduler evaluates them.

``RecoveryManager``'s waits — ``backup_wait``, ``sync_point`` without a
drain, the watchdog between ticks with work — are ``Kernel.poll`` calls,
whose false ticks the virtual-time scheduler runs without waking the
poller (``repro.sim.kernel``, "Polls").  The committed golden chaos record
runs no recovery manager, so these tests pin twelve recovery runs
(``tests/recovery_matrix.py``) against a fixture recorded while every wait
was still a sleep loop, show that the runs reach each wait, and check the
predicate contract on every evaluation.
"""

import collections
import json
import os
import sys

import pytest

from repro.errors import FaultError
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.recover import RecoverPolicy, RecoveryManager, SpeculationPolicy
from repro.sim import VirtualTimeKernel
from tests.recovery_matrix import RUNS, record

FIXTURE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "fixtures", "parent_recovery_runs.json")


#: every way an instrument is created or changed; the metrics snapshot is
#: a function of instrument state and the clock, and the clock does not
#: move inside a predicate, so a predicate that calls none of these
#: leaves the snapshot as it found it (and snapshotting ~650 instruments
#: around each of ~15k evaluations would cost half a minute)
METRIC_WRITES = ((Counter, "inc"), (Gauge, "set"), (Histogram, "observe"),
                 (MetricsRegistry, "_get_or_create"))


@pytest.fixture(scope="module")
def matrix():
    """Run the matrix once under spies: (records, reached, changed, polled).

    ``reached`` counts, per wait site, the scheduler's evaluations of its
    predicate (those made while the poller is parked as one) and the work
    the non-poll arms did; ``changed`` lists every predicate evaluation
    that recorded a trace event, made a recovery decision or wrote a
    metric.
    """
    reached = collections.Counter()
    changed = []
    managers = []
    evaluating = []
    poll = VirtualTimeKernel.poll
    init = RecoveryManager.__init__
    sync_point = RecoveryManager.sync_point
    compensate = RecoveryManager._compensate_deaths
    watch = RecoveryManager._watch_stragglers

    def spy_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        managers.append(self)

    def spy_poll(kernel, ready, tick):
        site = sys._getframe(1).f_code.co_name
        poller = kernel.current_process()
        manager = managers[-1]

        def checked():
            before = len(kernel.tracer.events), len(manager.decisions)
            evaluating.append(site)
            try:
                result = ready()
            finally:
                evaluating.pop()
            if (len(kernel.tracer.events), len(manager.decisions)) != before:
                changed.append(site)
            if poller._step is not None:  # parked: the scheduler asks
                reached[site] += 1
            return result

        poll(kernel, checked, tick)

    def metric_write(original):
        def spy(self, *args, **kwargs):
            if evaluating:
                changed.append(f"{evaluating[-1]}: {original.__name__}")
            return original(self, *args, **kwargs)
        return spy

    def spy_sync_point(self, name, rank, value, drain=None):
        if drain is not None:
            inner = drain

            def drain():
                reached["sync_point drain"] += 1
                inner()

        return sync_point(self, name, rank, value, drain=drain)

    def spy_compensate(self):
        before = len(self.decisions)
        compensate(self)
        reached["watchdog compensates"] += len(self.decisions) - before

    def spy_watch(self):
        before = self._next_watch
        watch(self)
        reached["watchdog samples"] += self._next_watch != before

    polled = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RecoveryManager, "__init__", spy_init)
        mp.setattr(VirtualTimeKernel, "poll", spy_poll)
        mp.setattr(RecoveryManager, "sync_point", spy_sync_point)
        mp.setattr(RecoveryManager, "_compensate_deaths", spy_compensate)
        mp.setattr(RecoveryManager, "_watch_stragglers", spy_watch)
        for cls, name in METRIC_WRITES:
            mp.setattr(cls, name, metric_write(getattr(cls, name)))
        records = {}
        for run in RUNS:
            records[run] = record(run)
            polled[run] = managers[-1].kernel.polled
    return records, reached, changed, polled


@pytest.mark.parametrize("run", RUNS)
def test_recovery_run_reproduces_the_sleep_loop_run(matrix, run):
    with open(FIXTURE) as fh:
        recorded = json.load(fh)
    records, _, _, polled = matrix
    assert records[run] == recorded[run]
    assert polled[run] > 0  # and the scheduler ran ticks itself


def test_the_matrix_reaches_every_wait(matrix):
    _, reached, _, _ = matrix
    for site in ("backup_wait", "sync_point", "_run", "sync_point drain",
                 "watchdog compensates", "watchdog samples"):
        assert reached[site] > 0, (site, dict(reached))


def test_no_predicate_evaluation_changes_what_a_run_records(matrix):
    _, reached, changed, _ = matrix
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
