"""Fixtures shared across test packages."""

import collections
import sys

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.recover import RecoveryManager
from repro.sim import VirtualTimeKernel
from tests.behaviour.scenarios import RECOVERY_RUNS, SCENARIOS


#: every way an instrument is created or changed; the metrics snapshot is
#: a function of instrument state and the clock, and the clock does not
#: move inside a predicate, so a predicate that calls none of these
#: leaves the snapshot as it found it (and snapshotting ~650 instruments
#: around each of ~15k evaluations would cost half a minute)
METRIC_WRITES = ((Counter, "inc"), (Gauge, "set"), (Histogram, "observe"),
                 (MetricsRegistry, "_get_or_create"))


@pytest.fixture(scope="session")
def recovery_matrix():
    """Run the behaviour manifest's ``recovery/*`` scenarios once per
    session, under the spies ``tests/faults/test_recover_polls.py``
    asserts on: (records, reached, changed, polled), the first and last
    keyed by scenario name.  ``tests/behaviour`` checks these same runs
    against their manifest lines, so no recovery run happens twice.

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
            before = (len(kernel.tracer.events),
                      len(manager.decisions.entries))
            evaluating.append(site)
            try:
                result = ready()
            finally:
                evaluating.pop()
            if (len(kernel.tracer.events),
                    len(manager.decisions.entries)) != before:
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
        before = len(self.decisions.entries)
        compensate(self)
        reached["watchdog compensates"] += (len(self.decisions.entries)
                                            - before)

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
        for run in RECOVERY_RUNS:
            name = f"recovery/{run}"
            records[name] = SCENARIOS[name]()
            polled[name] = managers[-1].kernel.polled
    return records, reached, changed, polled
