"""``Kernel.poll``: the scheduler runs a false tick without waking anyone.

``poll(ready, tick)`` is ``while not ready(): sleep(tick)``, and the base
class implements it as that loop.  The virtual-time kernel parks the
poller once and evaluates ``ready`` at each pop (``repro.sim.kernel``,
"Polls").  These tests hold the two against each other — the same trace,
switch count, clock and results on generated programs — and pin the
edges: a true-at-once poll, bad ticks, an abort mid-poll, the wait
report, a predicate that raises, the real-time kernel, and the livelock
guard that stops a run in which only polls and sleeps are left.
"""

import collections
import functools
import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError, ProcessFailed
from repro.sim import Channel, RealTimeKernel, Tracer, VirtualTimeKernel, virtual
from repro.sim.kernel import Kernel
from tests.sim.test_carriers import _kernel_threads


def _kernel(inline):
    """A traced kernel and the poll to use on it: the scheduler's, or the
    base class's loop of sleeps on the same kernel."""
    kernel = VirtualTimeKernel(tracer=Tracer())
    poll = kernel.poll if inline else functools.partial(Kernel.poll, kernel)
    return kernel, poll


def _outcome(kernel, procs):
    return ([tuple(e) for e in kernel.tracer.events], kernel.switches,
            kernel.now(), [p.result for p in procs])


# -- generated programs: scheduler polls == the loop ---------------------

TIMES = st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0])
TICKS = st.sampled_from([0.125, 0.25, 0.5, 0.75])


@st.composite
def programs(draw):
    """Sleepers, one channel producer/consumer pair, and pollers.

    Every counter a poller waits on is bumped by a sleeper, the consumer
    or an earlier poller, and every threshold is one the counter
    reaches, so every poll returns.
    """
    sleepers = draw(st.lists(st.lists(TIMES, min_size=1, max_size=5),
                             max_size=3))
    items = draw(st.lists(st.tuples(TIMES, TIMES), max_size=5))
    capacity = draw(st.sampled_from([None, 1, 2]))
    finals = {f"s{i}": len(d) for i, d in enumerate(sleepers)}
    if items:
        finals["consumer"] = len(items)
    pollers = []
    for j in range(draw(st.integers(1, 3))):
        rounds = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["count", "clock"] if finals
                                        else ["clock"]))
            if kind == "clock":
                target = ("clock", draw(st.sampled_from(
                    [0.0, 0.3, 0.5, 1.1, 2.0])))
            else:
                name = draw(st.sampled_from(sorted(finals)))
                target = (name, draw(st.integers(1, finals[name])))
            rounds.append((draw(TIMES), target))
        pollers.append((draw(TICKS), rounds))
        finals[f"p{j}"] = len(rounds)
    return sleepers, items, capacity, pollers


def run_program(program, inline):
    sleepers, items, capacity, pollers = program
    kernel, poll = _kernel(inline)
    counts = collections.Counter()
    procs = []

    def sleeper(name, durations):
        stamps = []
        for d in durations:
            kernel.sleep(d)
            counts[name] += 1
            stamps.append(kernel.now())
        return stamps

    def producer():
        for i, (delay, _) in enumerate(items):
            kernel.sleep(delay)
            channel.put(i)

    def consumer():
        got = []
        for _, delay in items:
            got.append((channel.get(), kernel.now()))
            kernel.sleep(delay)
            counts["consumer"] += 1
        return got

    def poller(name, tick, rounds):
        stamps = []
        for delay, (what, level) in rounds:
            kernel.sleep(delay)
            if what == "clock":
                poll(lambda: kernel.now() >= level, tick)
            else:
                poll(lambda: counts[what] >= level, tick)
            counts[name] += 1
            stamps.append(kernel.now())
        return stamps

    for i, durations in enumerate(sleepers):
        procs.append(kernel.spawn(sleeper, f"s{i}", durations,
                                  name=f"s{i}"))
    if items:
        channel = Channel(kernel, capacity=capacity, name="wire")
        procs.append(kernel.spawn(producer, name="producer"))
        procs.append(kernel.spawn(consumer, name="consumer"))
    for j, (tick, rounds) in enumerate(pollers):
        procs.append(kernel.spawn(poller, f"p{j}", tick, rounds,
                                  name=f"p{j}"))
    kernel.run()
    return kernel, _outcome(kernel, procs)


@settings(max_examples=80, deadline=None)
@given(programs())
def test_scheduler_polls_are_the_loop_of_sleeps(program):
    loop, expected = run_program(program, inline=False)
    inline, outcome = run_program(program, inline=True)
    assert outcome == expected
    assert loop.polled == 0
    assert inline.handoffs <= loop.handoffs
    assert inline.switches - inline.handoffs - inline.polled >= 0
    assert _kernel_threads() == []


# -- edges ---------------------------------------------------------------


def test_a_poll_true_at_once_costs_no_switch_and_no_event():
    def body(poll):
        poll(lambda: True, 1.0)
        return "done"

    idle, _ = _kernel(True)
    proc = idle.spawn(lambda: "done", name="p")
    idle.run()
    baseline = _outcome(idle, [proc])
    for inline in (True, False):
        kernel, poll = _kernel(inline)
        proc = kernel.spawn(body, poll, name="p")
        kernel.run()
        assert _outcome(kernel, [proc]) == baseline  # 0 switches there


def test_a_lone_poller_is_stepped_by_the_scheduler_alone():
    kernel, poll = _kernel(True)
    proc = kernel.spawn(lambda: poll(lambda: kernel.now() >= 2.0, 0.25),
                        name="p")
    kernel.run()
    assert kernel.now() == 2.0 and proc.result is None
    # parked at 0, seven false ticks (0.25 ... 1.75), woken at 2.0
    assert (kernel.switches, kernel.polled, kernel.handoffs) == (8, 7, 0)


@pytest.mark.parametrize("tick", [math.nan, math.inf, -math.inf, -1e-9])
@pytest.mark.parametrize("kernel_cls", [VirtualTimeKernel, RealTimeKernel])
def test_a_bad_tick_is_refused_before_ready_is_asked(kernel_cls, tick):
    kernel = kernel_cls()
    asked = []
    with pytest.raises(ValueError, match="poll tick must be finite"):
        kernel.poll(lambda: asked.append(True) or True, tick)
    with pytest.raises(ValueError, match="poll tick must be finite"):
        Kernel.poll(kernel, lambda: asked.append(True) or True, tick)
    assert asked == []


def test_zero_tick_polls_agree_with_the_loop():
    """A zero tick re-queues the poller at the same instant, behind
    every process already ready."""
    outcomes = []
    for inline in (True, False):
        kernel, poll = _kernel(inline)
        channel = Channel(kernel, capacity=1, name="wire")
        got = []

        def producer():
            for i in range(3):
                channel.put(i)

        def consumer():
            for _ in range(3):
                got.append(channel.get())

        def poller():
            poll(lambda: len(got) == 3, 0.0)
            return kernel.now()

        procs = [kernel.spawn(poller, name="poller"),
                 kernel.spawn(producer, name="producer"),
                 kernel.spawn(consumer, name="consumer")]
        kernel.run()
        outcomes.append(_outcome(kernel, procs))
    assert outcomes[0] == outcomes[1]


def test_a_failure_mid_poll_unwinds_the_poller():
    before = threading.active_count()
    kernel, poll = _kernel(True)
    asked = []

    def ready():
        asked.append((kernel.now(), kernel._aborting))
        return False

    def boom():
        kernel.sleep(5.5)
        raise RuntimeError("boom")

    poller = kernel.spawn(poll, ready, 1.0, name="poller")
    kernel.spawn(boom, name="boom")
    with pytest.raises(ProcessFailed, match="boom"):
        kernel.run()
    assert not poller.alive and poller.exception is None
    # asked at 0 by the poller, at 1 ... 5 by the scheduler, never again
    assert asked == [(float(t), False) for t in range(6)]
    assert kernel.polled == 5
    assert _kernel_threads() == []
    assert threading.active_count() == before


def test_a_predicate_that_raises_fails_its_own_poller():
    outcomes = []
    for inline in (True, False):
        kernel, poll = _kernel(inline)

        def ready():
            if kernel.now() >= 2.0:
                raise KeyError("gone")
            return False

        kernel.spawn(poll, ready, 0.5, name="poller")
        kernel.spawn(kernel.sleep, 3.0, name="sleeper")
        with pytest.raises(ProcessFailed) as info:
            kernel.run()
        outcomes.append((info.value.process_name,
                         type(info.value.original), kernel.now()))
        assert _kernel_threads() == []
    assert outcomes[0] == outcomes[1] == ("poller", KeyError, 2.0)


def test_the_wait_report_shows_a_poller_as_a_sleep():
    reports = []
    for inline in (True, False):
        kernel, poll = _kernel(inline)

        def monitor():
            kernel.sleep(1.0)
            me = kernel.current_process()
            reports.append(kernel._describe_blocked(
                p for p in kernel.processes if p is not me))

        kernel.spawn(poll, lambda: kernel.now() >= 2.0, 0.75, name="poller")
        kernel.spawn(monitor, name="monitor")
        kernel.run()
    # parked at 0 until 0.75, stepped there to 1.5: the report says so
    assert reports == ["  - poller: waiting on sleep until t=1.5"] * 2


def test_real_time_poll_waits_for_the_condition():
    kernel = RealTimeKernel(time_scale=0.0)
    flag = []

    def setter():
        for _ in range(5):
            kernel.sleep(1.0)
        flag.append(True)

    def poller():
        kernel.poll(lambda: bool(flag), 1.0)
        return len(flag)

    kernel.spawn(setter, name="setter")
    proc = kernel.spawn(poller, name="poller")
    kernel.run(timeout=10.0)
    assert proc.result == 1


# -- the livelock guard --------------------------------------------------


def test_a_poll_livelock_fails_fast(monkeypatch):
    """A poller whose condition never comes, a reader nobody writes to
    and a sleeper ticking forever: nothing but the clock wakes anyone."""
    monkeypatch.setattr(virtual, "LIVELOCK_SWITCHES", 1000)
    kernel = VirtualTimeKernel()
    never = Channel(kernel, name="never")

    def ticker():
        while True:
            kernel.sleep(1.0)

    kernel.spawn(never.get, name="reader")
    kernel.spawn(ticker, name="ticker")
    kernel.spawn(kernel.poll, lambda: False, 0.25, name="poller")
    with pytest.raises(DeadlockError) as info:
        kernel.run()
    header, *lines = str(info.value).splitlines()
    assert header == ("livelock: 1001 switches since a process was last "
                      "woken other than by the clock; only polls and "
                      "sleeps are running (1 polling, listed first)")
    assert lines[0].startswith("  - poller: waiting on sleep until t=")
    assert sorted(lines[1:]) == [
        "  - reader: waiting on get <- never (occupancy 0/inf)",
        f"  - ticker: waiting on sleep until t={math.ceil(kernel.now())}"]
    assert _kernel_threads() == []


def test_the_livelock_guard_counts_from_the_last_wake_up(monkeypatch):
    """Each channel hand-over restarts the count, so a long wait beside
    a working pipeline never trips the guard."""
    monkeypatch.setattr(virtual, "LIVELOCK_SWITCHES", 50)
    kernel = VirtualTimeKernel()
    channel = Channel(kernel, capacity=1, name="wire")
    got = []

    def producer():
        for i in range(40):
            kernel.sleep(1.0)
            channel.put(i)

    def consumer():
        for _ in range(40):
            got.append(channel.get())

    kernel.spawn(producer, name="producer")
    kernel.spawn(consumer, name="consumer")
    poller = kernel.spawn(kernel.poll, lambda: len(got) == 40, 0.25,
                          name="poller")
    kernel.run()
    assert poller.state.value == "done" and kernel.now() == 40.0
    assert kernel.switches > 4 * virtual.LIVELOCK_SWITCHES
