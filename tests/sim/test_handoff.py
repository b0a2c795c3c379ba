"""The hand-off: park -> pick -> wake, the one path every event crosses.

The wake primitive is a binary flag on a raw lock (``repro.sim.kernel``,
"Carriers"), and a parking process that is itself the next pick keeps the
run token without touching it ("Self hand-off").  These tests pin the
primitive's contract and a lone sleeper's counts, trace and abort; the
behaviour manifest's ``handoff/two-pipeline`` and ``perf-workload/*``
lines pin that neither shortcut is visible from inside the simulation.
"""

import itertools
import sys
import threading

import pytest

from repro.errors import ProcessFailed
from repro.sim import Tracer, VirtualTimeKernel
from repro.sim.kernel import _Wake
from repro.sim.trace import PARK, RESUME
from tests.sim.test_carriers import _kernel_threads


# -- the wake primitive --------------------------------------------------


def _in_thread(fn):
    """Run ``fn`` on a thread; return (thread, errors)."""
    errors = []

    def body():
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - reported by the test
            errors.append(exc)

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    return thread, errors


def test_set_before_wait_returns_at_once_and_is_consumed():
    wake = _Wake()
    wake.set()
    thread, errors = _in_thread(wake.wait)
    thread.join(10.0)
    assert not thread.is_alive() and not errors
    # wait() consumed the wake: the next wait blocks until the next set
    thread, errors = _in_thread(wake.wait)
    thread.join(0.05)
    assert thread.is_alive()
    wake.set()
    thread.join(10.0)
    assert not thread.is_alive() and not errors


def test_double_set_is_harmless():
    wake = _Wake()
    wake.set()
    wake.set()
    wake.wait()
    # two sets were one wake
    thread, errors = _in_thread(wake.wait)
    thread.join(0.05)
    assert thread.is_alive()
    wake.set()
    thread.join(10.0)
    assert not thread.is_alive() and not errors


def test_clear_then_wait_blocks_until_set():
    wake = _Wake()
    wake.set()
    wake.clear()
    wake.clear()  # idempotent too
    woke = []
    thread, errors = _in_thread(lambda: (wake.wait(), woke.append(True)))
    thread.join(0.05)
    assert thread.is_alive() and not woke
    wake.set()
    thread.join(10.0)
    assert not thread.is_alive() and woke == [True] and not errors


def test_two_racing_setters_never_raise_or_lose_a_wake():
    """Two threads set one flag for every round a third waits on it; the
    waiter releases both setters after each wake, so a set may land on a
    set flag, on a clear one, or while the waiter is being woken."""
    rounds = 10_000
    wake = _Wake()
    go = [_Wake(), _Wake()]
    done = []
    woken = []

    def setter(i):
        while True:
            go[i].wait()
            if done:
                return
            wake.set()

    def waiter():
        for _ in range(rounds):
            for g in go:
                g.set()
            wake.wait()
            woken.append(None)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        setters = [_in_thread(lambda i=i: setter(i)) for i in range(2)]
        thread, errors = _in_thread(waiter)
        thread.join(60.0)
        lost = thread.is_alive()
        done.append(True)
        for g in go:
            g.set()
        wake.set()  # frees the waiter if a wake was lost
        for t, _ in setters:
            t.join(10.0)
        thread.join(10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not lost, f"a wake was lost after {len(woken)} rounds"
    assert len(woken) == rounds
    assert not errors and not any(errs for _, errs in setters)
    assert not any(t.is_alive() for t, _ in setters)


# -- a lone sleeper keeps the token --------------------------------------


def test_lone_sleeper_switches_without_a_handoff():
    n = 25
    tracer = Tracer()
    kernel = VirtualTimeKernel(tracer=tracer)
    ident = []

    def sleeper():
        for i in range(n):
            kernel.sleep(0.125 * (i % 3))
            ident.append(threading.get_ident())
        return kernel.now()

    proc = kernel.spawn(sleeper, name="lone")
    kernel.run()
    deadlines = list(itertools.accumulate(0.125 * (i % 3) for i in range(n)))
    assert kernel.now() == proc.result == deadlines[-1]
    assert kernel.switches == n
    assert kernel.handoffs == 0
    assert kernel.threads_started == 1
    assert len(set(ident)) == 1
    # a switch in every observable sense: one PARK/RESUME pair per sleep,
    # the PARK carrying the deadline, the RESUME stamped at it
    events = [e for e in tracer.events if e.kind in (PARK, RESUME)][1:]
    assert [(e.kind, e.detail) for e in events[0::2]] == [
        (PARK, f"sleep until t={d:.9g}") for d in deadlines]
    assert [(e.kind, e.time) for e in events[1::2]] == [
        (RESUME, d) for d in deadlines]
    assert proc.waiting_on is None
    assert _kernel_threads() == []


def test_waiting_on_of_a_sleeper_is_spelled_out_when_read():
    kernel = VirtualTimeKernel()
    seen = {}

    def sleeper():
        kernel.sleep(1.5)

    def watcher(target):
        kernel.sleep(0.5)
        seen["while asleep"] = target.waiting_on

    target = kernel.spawn(sleeper, name="sleeper")
    kernel.spawn(watcher, target, name="watcher")
    kernel.run()
    assert seen["while asleep"] == "sleep until t=1.5"
    assert target.waiting_on is None
    assert kernel.switches == 2 and kernel.handoffs == 1


def test_self_handing_off_sleeper_is_aborted_with_a_failed_sibling():
    before = threading.active_count()
    kernel = VirtualTimeKernel()
    ticks = []

    def sleeper():
        for i in range(1000):  # alone on the timeline but for one instant
            kernel.sleep(1.0)
            ticks.append(i)

    def boom():
        kernel.sleep(10.5)
        raise ValueError("boom")

    proc = kernel.spawn(sleeper, name="sleeper")
    kernel.spawn(boom, name="boom")
    with pytest.raises(ProcessFailed, match="boom"):
        kernel.run()
    assert len(ticks) == 10
    assert not proc.alive and proc.exception is None
    assert kernel.switches - kernel.handoffs == 9
    assert _kernel_threads() == []
    assert threading.active_count() == before
